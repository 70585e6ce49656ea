// Minimal JSON reader shared by the self-validating writers.
//
// iScope emits JSON documents (telemetry metric snapshots, Chrome
// trace_event files) that iscope_cli checks before writing, and iscope_lint
// reads its baseline file back. This is the one parser behind both: a
// small recursive-descent reader that covers the JSON we produce -- it is
// a type checker, not a general-purpose JSON library (notably, \uXXXX
// escapes are consumed but not decoded).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace iscope::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;  ///< also holds bools (1.0 / 0.0)
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is(Kind k) const { return kind == k; }
};

/// Parse a complete JSON document; throws iscope::ParseError on malformed
/// input (including trailing characters).
Value parse(const std::string& text);

/// Member lookup on an object value; nullptr when absent.
const Value* find(const Value& object, const std::string& key);

/// "" when `object` has `key` with kind `kind`, else a diagnostic naming
/// the missing/mistyped key.
std::string check_key(const Value& object, const std::string& key,
                      Value::Kind kind);

}  // namespace iscope::json
