#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nbtisim::common::json {
namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view, errors carry a byte offset.

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_nested(&Parser::parse_object);
      case '[': return parse_nested(&Parser::parse_array);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        if (consume_literal("nan")) fail("bad literal (did you mean NaN?)");
        fail("bad literal");
      // Non-finite extension (see file comment of json.h).
      case 'I':
        if (consume_literal("Infinity")) {
          return Value(std::numeric_limits<double>::infinity());
        }
        fail("bad literal");
      case 'N':
        if (consume_literal("NaN")) {
          return Value(std::numeric_limits<double>::quiet_NaN());
        }
        fail("bad literal");
      default: return parse_number();
    }
  }

  /// Parses one array or object one level deeper, refusing to recurse past
  /// kMaxDepth so hostile input fails with the usual error instead of
  /// exhausting the stack.
  Value parse_nested(Value (Parser::*parse)()) {
    if (depth_ == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    ++depth_;
    Value v = (this->*parse)();
    --depth_;
    return v;
  }

  Value parse_object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      for (const auto& [k, v] : obj) {
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_codepoint()); break;
        default: fail("bad escape character");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  unsigned parse_codepoint() {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
      if (!consume_literal("\\u")) fail("unpaired high surrogate");
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == 'I') {
        if (consume_literal("Infinity")) {
          return Value(-std::numeric_limits<double>::infinity());
        }
        fail("bad literal");
      }
    }
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == before) fail("expected digits");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    const std::string token(text_.substr(start, pos_ - start));
    return Value(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

// ---------------------------------------------------------------------------
// Writer.

void write_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void write_value(std::string& out, const Value& v, int indent, int depth,
                 NonFinite nf) {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::Number: out += format_number(v.as_number(), nf); break;
    case Value::Kind::String: write_escaped(out, v.as_string()); break;
    case Value::Kind::Array: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out += indent < 0 ? "," : ",";
        newline_pad(depth + 1);
        write_value(out, a[i], indent, depth + 1, nf);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Value::Kind::Object: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out += ",";
        newline_pad(depth + 1);
        write_escaped(out, o[i].first);
        out += indent < 0 ? ":" : ": ";
        write_value(out, o[i].second, indent, depth + 1, nf);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) kind_error("a bool");
  return std::get<bool>(data_);
}

double Value::as_number() const {
  if (!is_number()) kind_error("a number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(data_);
}

Array& Value::as_array() {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(data_);
}

Object& Value::as_object() {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(data_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (!is_object()) kind_error("an object");
  if (const Value* v = find(key)) return *v;
  throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
}

void Value::set(std::string key, Value v) {
  if (is_null()) data_ = Object{};
  if (!is_object()) kind_error("an object");
  for (auto& [k, existing] : std::get<Object>(data_)) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  std::get<Object>(data_).emplace_back(std::move(key), std::move(v));
}

double Value::number_or(std::string_view key, double def) const {
  const Value* v = find(key);
  return v == nullptr ? def : v->as_number();
}

int Value::int_or(std::string_view key, int def) const {
  const Value* v = find(key);
  return v == nullptr ? def : static_cast<int>(v->as_number());
}

bool Value::bool_or(std::string_view key, bool def) const {
  const Value* v = find(key);
  return v == nullptr ? def : v->as_bool();
}

std::string Value::string_or(std::string_view key, std::string def) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(def) : v->as_string();
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string format_number(double d, NonFinite nf) {
  if (std::isnan(d)) return nf == NonFinite::Null ? "null" : "NaN";
  if (std::isinf(d)) {
    if (nf == NonFinite::Null) return "null";
    return d > 0.0 ? "Infinity" : "-Infinity";
  }
  // Integral values within the exact-integer range print without a fraction.
  if (d == static_cast<double>(static_cast<long long>(d)) &&
      std::fabs(d) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(d));
  }
  // Shortest representation that round-trips to the identical double.
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::string dump(const Value& v, int indent, NonFinite nf) {
  std::string out;
  write_value(out, v, indent, 0, nf);
  return out;
}

Value load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    return parse(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace nbtisim::common::json
