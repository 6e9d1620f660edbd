#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace dibs {

CodecError::CodecError(std::string field, std::string reason)
    : std::runtime_error("field '" + field + "': " + reason),
      field_(std::move(field)) {}

namespace json {
namespace {

// True when `tok` matches the JSON number grammar:
//   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// The permissive scanner collects any run of number-ish characters; this
// check is what rejects "1.2.3", "--5", "1e", and bare "." before strtod
// gets a chance to guess a value for them.
bool IsJsonNumber(const std::string& tok) {
  size_t i = 0;
  const size_t n = tok.size();
  if (i < n && tok[i] == '-') {
    ++i;
  }
  if (i >= n || tok[i] < '0' || tok[i] > '9') {
    return false;
  }
  if (tok[i] == '0') {
    ++i;
  } else {
    while (i < n && tok[i] >= '0' && tok[i] <= '9') {
      ++i;
    }
  }
  if (i < n && tok[i] == '.') {
    ++i;
    if (i >= n || tok[i] < '0' || tok[i] > '9') {
      return false;
    }
    while (i < n && tok[i] >= '0' && tok[i] <= '9') {
      ++i;
    }
  }
  if (i < n && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    if (i < n && (tok[i] == '+' || tok[i] == '-')) {
      ++i;
    }
    if (i >= n || tok[i] < '0' || tok[i] > '9') {
      return false;
    }
    while (i < n && tok[i] >= '0' && tok[i] <= '9') {
      ++i;
    }
  }
  return i == n;
}

class Parser {
 public:
  explicit Parser(const std::string& input) : in_(input) {}

  bool Parse(Value* out, std::string* error) {
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = error_.empty() ? "malformed JSON" : error_;
      }
      return false;
    }
    SkipSpace();
    if (pos_ != in_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseLiteral(const char* word, Value* out, Value::Kind kind,
                    bool boolean) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= in_.size() || in_[pos_] != *p) {
        return Fail("bad literal");
      }
    }
    out->kind = kind;
    out->boolean = boolean;
    if (kind == Value::Kind::kNull) {
      out->number = std::numeric_limits<double>::quiet_NaN();
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= in_.size()) {
        break;
      }
      const char esc = in_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > in_.size()) {
            return Fail("truncated \\u escape");
          }
          const std::string hex = in_.substr(pos_, 4);
          for (char h : hex) {
            const bool is_hex = (h >= '0' && h <= '9') ||
                                (h >= 'a' && h <= 'f') || (h >= 'A' && h <= 'F');
            if (!is_hex) {
              return Fail("bad \\u escape");
            }
          }
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // The encoders only emit \u00xx for control bytes; decode those
          // directly and pass anything wider through as '?' rather than
          // growing a UTF-16 decoder nobody writes into these fields.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(Value* out) {
    if (depth_ >= kMaxDepth) {
      return Fail("nesting too deep");
    }
    ++depth_;
    const bool ok = ParseValueInner(out);
    --depth_;
    return ok;
  }

  bool ParseValueInner(Value* out) {
    SkipSpace();
    if (pos_ >= in_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = in_[pos_];
    switch (c) {
      case 'n':
        return ParseLiteral("null", out, Value::Kind::kNull, false);
      case 't':
        return ParseLiteral("true", out, Value::Kind::kBool, true);
      case 'f':
        return ParseLiteral("false", out, Value::Kind::kBool, false);
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->text);
      case '[': {
        ++pos_;
        out->kind = Value::Kind::kArray;
        SkipSpace();
        if (pos_ < in_.size() && in_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          Value item;
          if (!ParseValue(&item)) {
            return false;
          }
          out->items.push_back(std::move(item));
          SkipSpace();
          if (pos_ < in_.size() && in_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return Consume(']');
        }
      }
      case '{': {
        ++pos_;
        out->kind = Value::Kind::kObject;
        // Room for a typical encoded object (a trace line has 17 members)
        // up front, instead of regrowing from one member.
        out->fields.reserve(32);
        SkipSpace();
        if (pos_ < in_.size() && in_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          const size_t key_at = pos_;
          std::string key;
          if (!ParseString(&key)) {
            return false;
          }
          if (Find(*out, key) != nullptr) {
            pos_ = key_at;
            return Fail("repeated key '" + key + "'");
          }
          if (!Consume(':')) {
            return false;
          }
          out->fields.emplace_back(std::move(key), Value());
          if (!ParseValue(&out->fields.back().second)) {
            return false;
          }
          SkipSpace();
          if (pos_ < in_.size() && in_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return Consume('}');
        }
      }
      default: {
        const size_t start = pos_;
        while (pos_ < in_.size() &&
               (in_[pos_] == '-' || in_[pos_] == '+' || in_[pos_] == '.' ||
                in_[pos_] == 'e' || in_[pos_] == 'E' ||
                (in_[pos_] >= '0' && in_[pos_] <= '9'))) {
          ++pos_;
        }
        if (pos_ == start) {
          return Fail("unexpected character");
        }
        out->kind = Value::Kind::kNumber;
        out->text.assign(in_, start, pos_ - start);
        if (!IsJsonNumber(out->text)) {
          pos_ = start;
          return Fail("malformed number '" + out->text + "'");
        }
        out->number = std::strtod(out->text.c_str(), nullptr);
        // "1e999" is grammatically fine but overflows to inf — JSON has no
        // inf, so a token that cannot be represented finitely is corrupt.
        if (!std::isfinite(out->number)) {
          pos_ = start;
          return Fail("non-finite number '" + out->text + "'");
        }
        return true;
      }
    }
  }

  static constexpr int kMaxDepth = 64;  // fuzzed "[[[[..." must not smash the stack

  const std::string& in_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

const char* KindName(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return "bool";
    case Value::Kind::kNumber:
      return "number";
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kArray:
      return "array";
    case Value::Kind::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void ThrowKind(const std::string& key, const char* want,
                            const Value& got) {
  throw CodecError(key, std::string("expected ") + want + ", got " +
                            KindName(got.kind));
}

}  // namespace

bool Parse(const std::string& input, Value* out, std::string* error) {
  *out = Value();
  return Parser(input).Parse(out, error);
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

const Value* Find(const Value& obj, const std::string& key) {
  for (const auto& [name, value] : obj.fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

void ReadDouble(const Value& obj, const std::string& key, double* out) {
  const Value* v = Find(obj, key);
  if (v == nullptr) {
    return;
  }
  if (v->kind == Value::Kind::kNull) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  if (v->kind != Value::Kind::kNumber) {
    ThrowKind(key, "number or null", *v);
  }
  *out = v->number;
}

void ReadString(const Value& obj, const std::string& key, std::string* out) {
  const Value* v = Find(obj, key);
  if (v == nullptr) {
    return;
  }
  if (v->kind != Value::Kind::kString) {
    ThrowKind(key, "string", *v);
  }
  *out = v->text;
}

void ReadBool(const Value& obj, const std::string& key, bool* out) {
  const Value* v = Find(obj, key);
  if (v == nullptr) {
    return;
  }
  if (v->kind != Value::Kind::kBool) {
    ThrowKind(key, "bool", *v);
  }
  *out = v->boolean;
}

void ReadDoubleArray(const Value& obj, const std::string& key,
                     std::vector<double>* out) {
  const Value* v = Find(obj, key);
  if (v == nullptr) {
    return;
  }
  if (v->kind != Value::Kind::kArray) {
    ThrowKind(key, "array", *v);
  }
  out->clear();
  out->reserve(v->items.size());
  for (const Value& item : v->items) {
    if (item.kind == Value::Kind::kNull) {
      out->push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (item.kind == Value::Kind::kNumber) {
      out->push_back(item.number);
    } else {
      ThrowKind(key, "array of numbers", item);
    }
  }
}

namespace detail {

bool IntToken(const Value& obj, const std::string& key, uint64_t max_negative,
              uint64_t max_positive, bool* negative, uint64_t* magnitude) {
  const Value* v = Find(obj, key);
  if (v == nullptr) {
    return false;
  }
  if (v->kind != Value::Kind::kNumber) {
    ThrowKind(key, "number", *v);
  }
  // Parse checked the JSON number grammar, so the token is -?[0-9]+ unless
  // it carries a fraction or an exponent.
  if (v->text.find_first_of(".eE") != std::string::npos) {
    throw CodecError(key, "expected integer, got '" + v->text + "'");
  }
  *negative = v->text[0] == '-';
  const uint64_t limit = *negative ? max_negative : max_positive;
  *magnitude = 0;
  for (size_t i = *negative ? 1 : 0; i < v->text.size(); ++i) {
    const auto digit = static_cast<uint64_t>(v->text[i] - '0');
    if (digit > limit || *magnitude > (limit - digit) / 10) {
      throw CodecError(key, "integer out of range: '" + v->text + "'");
    }
    *magnitude = *magnitude * 10 + digit;
  }
  return true;
}

}  // namespace detail
}  // namespace json
}  // namespace dibs
