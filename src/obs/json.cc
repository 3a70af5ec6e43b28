#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dbrepair::obs {

int64_t Json::AsInt() const {
  if (is_double()) return static_cast<int64_t>(std::get<double>(value_));
  return std::get<int64_t>(value_);
}

double Json::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(value_));
  return std::get<double>(value_);
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : AsObject()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::Set(std::string_view key, Json value) {
  for (auto& [k, v] : AsObject()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  AsObject().emplace_back(std::string(key), std::move(value));
}

void JsonEscape(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendInt(std::string* out, int64_t v) {
  char buffer[24];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), v);
  out->append(buffer, end.ptr);
}

void AppendDouble(std::string* out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    *out += "null";
    return;
  }
  // The standard defines this as printf's "%.17g" in the C locale: the
  // same text at well under half the cost.
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), d,
                    std::chars_format::general, 17);
  const std::string_view text(buffer, end.ptr);
  *out += text;
  // Keep a marker so the value parses back as a double, not an int.
  if (text.find_first_of(".eE") == std::string_view::npos) *out += ".0";
}

void AppendNewlineIndent(std::string* out, int indent, int depth) {
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  if (is_null()) {
    *out += "null";
  } else if (is_bool()) {
    *out += AsBool() ? "true" : "false";
  } else if (is_int()) {
    AppendInt(out, std::get<int64_t>(value_));
  } else if (is_double()) {
    AppendDouble(out, std::get<double>(value_));
  } else if (is_string()) {
    JsonEscape(AsString(), out);
  } else if (is_array()) {
    const Array& items = AsArray();
    if (items.empty()) {
      *out += "[]";
      return;
    }
    out->push_back('[');
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out->push_back(',');
      if (indent >= 0) AppendNewlineIndent(out, indent, depth + 1);
      items[i].DumpTo(out, indent, depth + 1);
    }
    if (indent >= 0) AppendNewlineIndent(out, indent, depth);
    out->push_back(']');
  } else {
    const Object& fields = AsObject();
    if (fields.empty()) {
      *out += "{}";
      return;
    }
    out->push_back('{');
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out->push_back(',');
      if (indent >= 0) AppendNewlineIndent(out, indent, depth + 1);
      JsonEscape(fields[i].first, out);
      *out += indent >= 0 ? ": " : ":";
      fields[i].second.DumpTo(out, indent, depth + 1);
    }
    if (indent >= 0) AppendNewlineIndent(out, indent, depth);
    out->push_back('}');
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    DBREPAIR_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError("json: " + message + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      DBREPAIR_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json(std::move(s));
    }
    if (ConsumeWord("null")) return Json(nullptr);
    if (ConsumeWord("true")) return Json(true);
    if (ConsumeWord("false")) return Json(false);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json::Object fields;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(fields));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      DBREPAIR_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      DBREPAIR_ASSIGN_OR_RETURN(Json value, ParseValue());
      fields.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Json(std::move(fields));
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json::Array items;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(items));
    while (true) {
      DBREPAIR_ASSIGN_OR_RETURN(Json value, ParseValue());
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Json(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are not
          // produced by our emitter).
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
          return Error("unknown escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Out-of-range integers fall through to double parsing.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Error("malformed number '" + std::string(token) + "'");
    }
    return Json(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace dbrepair::obs
