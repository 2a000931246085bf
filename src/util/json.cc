#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ucqn {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

void AppendJsonQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  AppendJsonQuoted(&out, s);
  return out;
}

namespace {

std::string FormatJsonNumber(double n) {
  // Integral values (counters, TTLs, ids) print without a decimal point
  // so round-trips stay byte-stable with the repo's hand-rolled emitters.
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
    return buf;
  }
  if (!std::isfinite(n)) return "0";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  return buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ < text_.size()) return Fail("trailing characters");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool AppendCodepoint(unsigned long cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return true;
  }

  bool ParseHex4(unsigned long* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned long value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned long>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned long>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned long>(c - 'A' + 10);
      else return Fail("bad \\u escape digit");
    }
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected '\"'");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned long cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned long low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendCodepoint(cp, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a number");
    const double value = std::atof(text_.substr(start, pos_ - start).c_str());
    if (!std::isfinite(value)) return Fail("number out of range");
    *out = JsonValue::Number(value);
    return true;
  }

  // The members after an opening '{' (already consumed).
  bool ParseObject(JsonValue* out) {
    *out = JsonValue::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->Set(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  // The items after an opening '[' (already consumed).
  bool ParseArray(JsonValue* out) {
    *out = JsonValue::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->Append(std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  // Objects and arrays recurse, so a hostile line of a few hundred
  // thousand '[' would otherwise exhaust the stack. No protocol line or
  // snapshot file nests anywhere near this deep.
  static constexpr std::size_t kMaxDepth = 512;

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        return Fail("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      }
      ++pos_;
      ++depth_;
      const bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      *out = JsonValue::String(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!Literal("true", 4)) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false", 5)) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null", 4)) return false;
      *out = JsonValue::Null();
      return true;
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
};

}  // namespace

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return FormatJsonNumber(number_);
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) out += ", ";
        first = false;
        out += v.Dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ", ";
        first = false;
        out += JsonQuote(k) + ": " + v.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error) {
  Parser parser(text);
  JsonValue value;
  if (!parser.Parse(&value)) {
    if (error != nullptr) *error = parser.error();
    return std::nullopt;
  }
  return value;
}

}  // namespace ucqn
