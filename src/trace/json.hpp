// Minimal JSON document model + recursive-descent parser, and the string
// escaper every JSON writer in the repository uses.
//
// Exists so the trace exporter's output can be validated without external
// dependencies: the round-trip unit test and tools/trace_check both parse
// through this. Handles the full JSON grammar (objects, arrays, strings
// with escapes, numbers, booleans, null); throws std::runtime_error with a
// byte offset on malformed input. Not a general-purpose library: documents
// are small (a trace file), so the model favours simplicity over speed.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace marp::trace {

struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  bool is_object() const noexcept { return type == Type::Object; }
  bool is_array() const noexcept { return type == Type::Array; }
  bool is_string() const noexcept { return type == Type::String; }
  bool is_number() const noexcept { return type == Type::Number; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws std::runtime_error on malformed input,
/// including a raw control byte inside a string.
JsonValue parse_json(std::string_view text);

/// `raw` as the inside of a JSON string literal: quote, backslash and every
/// control byte escaped, all other bytes copied.
std::string json_escape(std::string_view raw);

}  // namespace marp::trace
