// Error handling primitives for iScope.
//
// Library code throws `iscope::Error` (or a subclass) on contract violations
// and unrecoverable input problems. The ISCOPE_CHECK macro is used for
// argument validation on public API boundaries; it is always on (these are
// not asserts that vanish in release builds -- a scheduler silently fed a
// negative deadline must fail loudly).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace iscope {

/// Base class for all iScope exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Malformed external input (trace file, CSV, SWF log...).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Internal invariant broken; indicates a bug in iScope itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

namespace detail {
/// `file` (a __FILE__) from its last `src/` component on, or its last
/// component when it has none: a check's message names the source file,
/// not the directory the program was built in, which would otherwise
/// reach clients through the daemon's ERR replies.
inline std::string_view source_path(std::string_view file) {
  if (const std::size_t at = file.rfind("/src/"); at != std::string_view::npos)
    return file.substr(at + 1);
  if (file.starts_with("src/")) return file;
  return file.substr(file.rfind('/') + 1);  // npos + 1 == 0: no slash
}

[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << source_path(file) << ":"
     << line;
  if (!msg.empty()) os << " -- " << msg;
  if (std::string(kind) == "ISCOPE_CHECK_ARG") throw InvalidArgument(os.str());
  throw InternalError(os.str());
}
}  // namespace detail

}  // namespace iscope

/// Validate a caller-supplied argument; throws iscope::InvalidArgument.
#define ISCOPE_CHECK_ARG(cond, msg)                                        \
  do {                                                                     \
    if (!(cond))                                                           \
      ::iscope::detail::throw_check_failure("ISCOPE_CHECK_ARG", #cond,     \
                                            __FILE__, __LINE__, (msg));    \
  } while (false)

/// Validate an internal invariant; throws iscope::InternalError.
#define ISCOPE_CHECK(cond, msg)                                            \
  do {                                                                     \
    if (!(cond))                                                           \
      ::iscope::detail::throw_check_failure("ISCOPE_CHECK", #cond,         \
                                            __FILE__, __LINE__, (msg));    \
  } while (false)
