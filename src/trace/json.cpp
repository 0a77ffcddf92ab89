#include "trace/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace marp::trace {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type != Type::Object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue value;
        value.type = JsonValue::Type::String;
        value.str = parse_string();
        return value;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue{JsonValue::Type::Bool, true};
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue{JsonValue::Type::Bool, false};
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue value;
    value.type = JsonValue::Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.type = JsonValue::Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences; the exporter never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue value;
    value.type = JsonValue::Type::Number;
    const auto result = std::from_chars(text_.data() + start,
                                        text_.data() + pos_, value.number);
    if (result.ec != std::errc{} || result.ptr != text_.data() + pos_) {
      fail("bad number");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace marp::trace
