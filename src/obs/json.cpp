#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace perftrack::obs {

namespace {

/// True for the bytes escape_json rewrites.
bool needs_escape(char ch) {
  return ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20;
}

}  // namespace

std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (true) {
    // Append each run of plain bytes at once.
    std::size_t run = pos;
    while (run < text.size() && !needs_escape(text[run])) ++run;
    out.append(text, pos, run - pos);
    if (run == text.size()) return out;
    const char ch = text[run];
    pos = run + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(ch)));
        out += buf;
      }
    }
  }
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!comma_.empty()) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!comma_.empty()) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
  }
  out_ += '"';
  out_ += escape_json(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  out_ += '"';
  out_ += escape_json(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", number);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

const JsonValue& JsonValue::at(const std::string& name) const {
  if (!is_object()) throw Error("JSON value is not an object");
  auto it = object.find(name);
  if (it == object.end()) throw Error("missing JSON member: " + name);
  return it->second;
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing characters after JSON document");
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("json offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers nest by recursion: cap the depth so a hostile
        // document cannot overflow the stack.
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (consume_literal("true")) v.boolean = true;
        else if (consume_literal("false")) v.boolean = false;
        else fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(name), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Append each run of plain bytes at once.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\')
        ++run;
      out.append(text_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only — enough for our own escaped output).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      eat_digits();
    }
    if (!digits) fail("expected a number");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    std::string token(text_.substr(start, pos_ - start));
    v.number = std::strtod(token.c_str(), nullptr);
    return v;
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace perftrack::obs
