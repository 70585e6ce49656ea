// Bounds-checked little-endian binary serialization, and the two adapters
// that run a field list over it.
//
// The checkpoint layer (src/service/checkpoint.cpp) and the wire protocol
// (src/service/wire.cpp) both need a byte codec that (a) round-trips
// doubles bit-exactly -- the seeded-replay invariant compares SimResult
// fields bitwise -- and (b) never reads past the end of an attacker- or
// disk-corruption-shaped buffer. Writer appends to a growable byte vector;
// Reader throws iscope::ParseError on any over-read, so truncated files and
// lying length prefixes surface as a typed error instead of UB. Multi-byte
// values are fixed little-endian regardless of host order, making
// checkpoints portable across machines.
//
// Both formats list each payload's fields once, as a template over an
// adapter: Save runs the list to write it, Load<Refuse> to read it and
// apply each field's check, raising Refuse on a failed one. So a field
// cannot be written but not read, or read without its check.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/quantity.hpp"

namespace iscope::serial {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Bit-pattern transport: NaNs and signed zeros survive unchanged.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[off_++];
  }
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) throw ParseError("serial: boolean byte out of range");
    return v != 0;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[off_ + static_cast<std::size_t>(i)])
           << (8 * i);
    off_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[off_ + static_cast<std::size_t>(i)])
           << (8 * i);
    off_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Length-prefixed string; `max_len` bounds hostile prefixes before any
  /// allocation happens.
  std::string str(std::size_t max_len = 1u << 20) {
    const std::uint64_t n = u64();
    if (n > max_len) throw ParseError("serial: string length exceeds cap");
    need(static_cast<std::size_t>(n));
    std::string s(reinterpret_cast<const char*>(data_ + off_),
                  static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Element-count guard for vector headers: a lying count must fail here,
  /// not in a multi-gigabyte resize.
  std::size_t count(std::size_t max_count) {
    const std::uint64_t n = u64();
    if (n > max_count) throw ParseError("serial: element count exceeds cap");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return size_ - off_; }
  bool done() const { return off_ == size_; }
  void expect_done() const {
    if (!done()) throw ParseError("serial: trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - off_ < n)
      throw ParseError("serial: read past end of buffer");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

/// Element-count ceiling of a `vec` whose call names none. Generous (a
/// simulation this large would not fit a checkpoint anyway) but finite: a
/// corrupt count fails in Reader::count, never in a resize.
inline constexpr std::size_t kMaxElems = std::size_t{1} << 28;

// A field list calls the adapter once per field, in wire order:
//   io(v)                     plain field
//   io.same(v, what)          identity: written, only compared on load
//   io.in(v, lo, hi, what)    loaded value must lie in [lo, hi]
//   io.index(v, limit, what)  index below `limit`
//   io.finite(v, what)        loaded double (or quantity) must be finite
//   io.text(v, cap)           string; loaded length <= cap
//   io.vec(v, cap, each)      length-prefixed; loaded length <= cap
//   io.vec(v, each)           the same, capped at kMaxElems
//   io.fixed(v, n, each)      exactly n elements, length not written
//   io.check(ok, what)        a load fails unless `ok` (writes nothing)
// std::uint32_t fields travel as u32 and other integral fields as u64,
// bytes and enums as u8, bools as b, and doubles and quantities (watts,
// joules, seconds) as f64. Save::vec hands its elements const, so a list
// run per element is a template over the element's constness.

/// Writer adapter: every call emits its field.
class Save {
 public:
  static constexpr bool kLoading = false;
  explicit Save(Writer& w) : w_(w) {}

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.b(v);
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      w_.i64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      w_.u32(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      w_.u64(v);
    } else if constexpr (std::is_same_v<T, Watts>) {
      w_.f64(v.watts());
    } else if constexpr (std::is_same_v<T, Joules>) {
      w_.f64(v.joules());
    } else {
      static_assert(std::is_same_v<T, Seconds>, "no wire encoding for T");
      w_.f64(v.seconds());
    }
  }
  template <class T>
  void same(const T& v, const char*) {
    (*this)(v);
  }
  template <class T>
  void in(const T& v, T, T, const char*) {
    (*this)(v);
  }
  void index(std::size_t v, std::size_t, const char*) { w_.u64(v); }
  template <class T>
  void finite(const T& v, const char*) {
    (*this)(v);
  }
  void text(const std::string& v, std::size_t) { w_.str(v); }
  template <class V, class Each>
  void vec(const V& v, std::size_t, Each&& each) {
    w_.u64(v.size());
    for (const auto& e : v) each(e);
  }
  template <class V, class Each>
  void vec(const V& v, Each&& each) {
    vec(v, kMaxElems, each);
  }
  template <class V, class Each>
  void fixed(const V& v, std::size_t, Each&& each) {
    for (const auto& e : v) each(e);
  }
  void check(bool, const char*) {}

 private:
  Writer& w_;
};

/// Reader adapter: every call reads its field and applies its check. A
/// failed check throws `Refuse(prefix + reason)`; the reader's own
/// over-reads stay ParseError.
template <class Refuse>
class Load {
 public:
  static constexpr bool kLoading = true;
  Load(Reader& r, const char* prefix) : r_(r), prefix_(prefix) {}

  template <class T>
  void operator()(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.b();
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      v = static_cast<T>(r_.u8());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.f64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = r_.i64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.str();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      v = r_.u32();
    } else if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(r_.u64());
    } else {
      v = T{r_.f64()};  // a dimensioned quantity
    }
  }
  template <class T>
  void same(const T& v, const char* what) {
    T got{};
    (*this)(got);
    if (got != v)
      refuse(std::string("identity mismatch -- the restoring simulator was "
                         "built with a different ") +
             what);
  }
  template <class T>
  void in(T& v, T lo, T hi, const char* what) {
    (*this)(v);
    if (v < lo || v > hi) refuse(std::string(what) + " out of range");
  }
  void index(std::size_t& v, std::size_t limit, const char* what) {
    (*this)(v);
    if (v >= limit) refuse(std::string(what) + " index out of range");
  }
  template <class T>
  void finite(T& v, const char* what) {
    const double x = r_.f64();
    if (!std::isfinite(x)) refuse(std::string("non-finite ") + what);
    v = T{x};
  }
  void text(std::string& v, std::size_t cap) { v = r_.str(cap); }
  template <class V, class Each>
  void vec(V& v, std::size_t cap, Each&& each) {
    // Every element takes at least one byte, so the unread payload bounds
    // the length before anything is allocated.
    v.clear();
    v.resize(r_.count(std::min(cap, r_.remaining())));
    for (auto& e : v) each(e);
  }
  template <class V, class Each>
  void vec(V& v, Each&& each) {
    vec(v, kMaxElems, each);
  }
  template <class V, class Each>
  void fixed(V& v, std::size_t n, Each&& each) {
    v.assign(n, typename V::value_type{});
    for (auto& e : v) each(e);
  }
  void check(bool ok, const char* what) {
    if (!ok) refuse(what);
  }

 private:
  [[noreturn]] void refuse(const std::string& what) const {
    throw Refuse(prefix_ + what);
  }

  Reader& r_;
  const char* prefix_;
};

}  // namespace iscope::serial
