// Shared JSON layer: the one reader for everything this repo writes and
// later reads back — RunRecord lines, run-journal headers, chaos specs and
// corpus entries, and trace JSONL lines (trace_tool).
//
// The parser is a strict recursive-descent JSON reader: number tokens must
// match the JSON grammar and stay finite, strings must terminate, objects
// and arrays must close, and no object may repeat a key. Anything else
// fails with an offset-tagged message, so a truncated or bit-flipped line
// is diagnosed instead of half-decoded.
//
// Field extraction is just as strict: the Read* helpers leave the caller's
// default in place when a key is absent (old readers tolerate new writers),
// but a key that IS present with the wrong type — a string where a count
// belongs, a number outside its field's type, an object where an array was
// promised — throws CodecError naming the field. Silent type confusion is
// how a corrupted journal resurrects as plausible-looking results.

#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dibs {

// Thrown by the checked field readers on type-confused or out-of-range
// fields. Decoders with a bool interface (DecodeRunRecord) catch it and
// surface the message; throwing decoders (chaos spec codec) let it travel.
class CodecError : public std::runtime_error {
 public:
  CodecError(std::string field, std::string reason);

  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

namespace json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;  // unparsed token for numbers (exact uint64), string value
  std::vector<Value> items;
  // Object members in document order (RunRecord axes keep the matrix's
  // axis order this way). Parse rejects a repeated key, so each key names
  // one member.
  std::vector<std::pair<std::string, Value>> fields;
};

// Parses `input` as one complete JSON value with nothing trailing. Returns
// false and fills `error` (when non-null) with an offset-tagged reason on
// malformed, truncated, or non-finite input, or on an object that repeats
// a key.
bool Parse(const std::string& input, Value* out, std::string* error);

// --- Encoding helpers (shared by every writer so escapes and float
// precision stay consistent across codecs) ---

// Escapes a string for embedding between JSON quotes.
std::string Escape(const std::string& s);

// Round-trip double formatting (max_digits10); JSON has no NaN/inf, so
// those map to null.
std::string Num(double v);

// --- Checked field extraction ---
//
// All Read* helpers share the contract: absent key (or kNull where noted)
// leaves *out untouched; present key of the wrong kind throws CodecError.

// Key lookup; nullptr when absent or when `obj` is not an object.
const Value* Find(const Value& obj, const std::string& key);

// Number or null; null decodes to NaN (the encoder's mapping for
// non-finite values). A raw non-finite number token never reaches here —
// Parse already rejects it.
void ReadDouble(const Value& obj, const std::string& key, double* out);

void ReadString(const Value& obj, const std::string& key, std::string* out);
void ReadBool(const Value& obj, const std::string& key, bool* out);
void ReadDoubleArray(const Value& obj, const std::string& key,
                     std::vector<double>* out);

namespace detail {

// The integer token at `key` as a sign and a magnitude, checked to lie in
// [-max_negative, max_positive]; false when the key is absent. Throws
// CodecError on a non-number, on a fraction or exponent, and on a value
// outside that range.
bool IntToken(const Value& obj, const std::string& key, uint64_t max_negative,
              uint64_t max_positive, bool* negative, uint64_t* magnitude);

}  // namespace detail

// Integer token into T's range, parsed from the raw text so full-range
// uint64 seeds survive (a double only holds 53 bits exactly). A value T
// cannot hold (a negative count, 300 into uint8_t, 2 into bool) throws
// instead of wrapping.
template <typename T>
void ReadInt(const Value& obj, const std::string& key, T* out) {
  static_assert(std::is_integral_v<T>);
  using Limits = std::numeric_limits<T>;
  bool negative = false;
  uint64_t magnitude = 0;
  if (detail::IntToken(obj, key, 0 - static_cast<uint64_t>(Limits::min()),
                       static_cast<uint64_t>(Limits::max()), &negative,
                       &magnitude)) {
    // Two's complement: exact down to Limits::min().
    *out = static_cast<T>(negative ? 0 - magnitude : magnitude);
  }
}

}  // namespace json
}  // namespace dibs

#endif  // SRC_UTIL_JSON_H_
