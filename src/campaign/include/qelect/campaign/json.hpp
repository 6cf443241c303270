// A minimal JSON reader for the campaign subsystem.
//
// Campaign specs (hand-written files, or the copy a store header embeds)
// are small JSON documents, so a dependency-free recursive-descent parser
// covers everything: objects, arrays, strings (with the escape set
// trace::json_escape produces), numbers, booleans, null.  Numbers keep
// both readings -- double always, int64 when the literal is integral --
// because task keys and seeds must round-trip exactly.  Writing stays
// manual (fprintf/ostream), matching the style of bench/bench_json.hpp
// and trace/jsonl_sink.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qelect::campaign {

/// One parsed JSON value.  Object member order is preserved (specs are
/// re-serialized canonically elsewhere; preserving order keeps error
/// messages readable).
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type() const { return type_; }

  /// Typed accessors; each throws CheckError on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object access: get returns null for a missing key, require throws.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& require(const std::string& key) const;

  /// Convenience lookups with defaults (object values only).
  double number_or(const std::string& key, double fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  const std::vector<std::pair<std::string, JsonValue>>& members() const;

 private:
  friend class JsonParser;
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0;
  std::int64_t int_ = 0;
  bool integral_ = false;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed).  Throws
/// CheckError with position info on malformed input.
JsonValue parse_json(const std::string& text);

/// Serializes a string with the campaign/trace escape conventions.
std::string json_quote(const std::string& text);

/// Serializes a double compactly and losslessly for the integral/metric
/// values campaigns record ("%.17g", trimmed to "%g" when round-trippable).
std::string json_number(double value);

}  // namespace qelect::campaign
