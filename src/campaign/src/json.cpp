#include "qelect/campaign/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "qelect/trace/jsonl_sink.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::campaign {

namespace {

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw CheckError("json: " + what + " at offset " + std::to_string(pos));
}

}  // namespace

bool JsonValue::as_bool() const {
  QELECT_CHECK(type_ == Type::Bool, "json: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  QELECT_CHECK(type_ == Type::Number, "json: not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  QELECT_CHECK(type_ == Type::Number && integral_,
               "json: not an integral number");
  return int_;
}

const std::string& JsonValue::as_string() const {
  QELECT_CHECK(type_ == Type::String, "json: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  QELECT_CHECK(type_ == Type::Array, "json: not an array");
  return array_;
}

bool JsonValue::has(const std::string& key) const {
  return find(key) != nullptr;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  QELECT_CHECK(type_ == Type::Object, "json: not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::require(const std::string& key) const {
  const JsonValue* v = find(key);
  QELECT_CHECK(v != nullptr, "json: missing key '" + key + "'");
  return *v;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_double();
}

std::int64_t JsonValue::int_or(const std::string& key,
                               std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_int();
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  QELECT_CHECK(type_ == Type::Object, "json: not an object");
  return object_;
}

/// Hand-rolled recursive descent over a string; positions are byte offsets
/// for error messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  void parse_literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; ++c) {
      if (pos_ >= text_.size() || text_[pos_] != *c) {
        fail_at(pos_, std::string("expected '") + lit + "'");
      }
      ++pos_;
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type_ = JsonValue::Type::Bool;
    if (peek() == 't') {
      parse_literal("true");
      v.bool_ = true;
    } else {
      parse_literal("false");
      v.bool_ = false;
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail_at(pos_, "expected a value");
    const std::string lit = text_.substr(start, pos_ - start);
    JsonValue v;
    v.type_ = JsonValue::Type::Number;
    char* end = nullptr;
    v.num_ = std::strtod(lit.c_str(), &end);
    if (end == nullptr || *end != '\0') fail_at(start, "bad number " + lit);
    if (integral) {
      // from_chars reports an overflow that strtoll would saturate.
      const char* first = lit.data() + (lit[0] == '+' ? 1 : 0);
      const char* last = lit.data() + lit.size();
      const auto [ptr, ec] = std::from_chars(first, last, v.int_);
      if (ec == std::errc::result_out_of_range) {
        fail_at(start, "integer " + lit + " overflows int64");
      }
      if (ec != std::errc() || ptr != last) fail_at(start, "bad number " + lit);
      v.integral_ = true;
    } else if (v.num_ == std::floor(v.num_) && std::abs(v.num_) < 9e15) {
      v.int_ = static_cast<std::int64_t>(v.num_);
      v.integral_ = true;
    }
    return v;
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.type_ = JsonValue::Type::String;
    std::string& out = v.str_;
    for (;;) {
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail_at(pos_, "truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // Our own writers only emit \u00XX for control characters; decode
          // the Latin-1 range and substitute '?' beyond it.
          out += code >= 0 && code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail_at(pos_, "unknown escape");
      }
    }
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail_at(pos_ - 1, "expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(key.str_, parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail_at(pos_ - 1, "expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::string json_quote(const std::string& text) {
  return "\"" + trace::json_escape(text) + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", value);
  if (std::strtod(buf, nullptr) == value) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace qelect::campaign
