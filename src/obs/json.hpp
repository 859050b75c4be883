#pragma once
// Minimal JSON support for the telemetry sinks.
//
// JsonWriter builds syntactically valid JSON incrementally (commas and
// nesting handled by a state stack); parse_json reads it back into a
// JsonValue tree. The dialect is the subset the run reports need: objects,
// arrays, strings, finite doubles, booleans and null. Non-finite doubles
// are written as null (JSON has no NaN/Inf).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perftrack::obs {

/// Escape `text` for inclusion inside a JSON string literal (no quotes).
std::string escape_json(std::string_view text);

class JsonWriter {
public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  const std::string& str() const { return out_; }

private:
  void before_value();

  std::string out_;
  // One frame per open container: do we need a comma before the next item?
  std::vector<bool> comma_;
  bool after_key_ = false;
};

/// Parsed JSON value (tree). Arrays/objects own their children.
class JsonValue {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }

  /// Object member access; throws Error when absent or not an object.
  const JsonValue& at(const std::string& name) const;
  bool has(const std::string& name) const {
    return is_object() && object.count(name) > 0;
  }
};

/// Parse a complete JSON document; throws ParseError on malformed input,
/// trailing garbage, or containers nested more than 256 deep.
JsonValue parse_json(std::string_view text);

}  // namespace perftrack::obs
