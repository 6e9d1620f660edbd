// Shared JSON layer for the on-disk codecs (RunRecord lines, chaos specs).
//
// The parser is a strict recursive-descent JSON reader: number tokens must
// match the JSON grammar and stay finite, strings must terminate, objects
// and arrays must close. Anything else fails with an offset-tagged message,
// so a truncated or bit-flipped line is diagnosed instead of half-decoded.
//
// Field extraction is just as strict: the Read* helpers leave the caller's
// default in place when a key is absent (old readers tolerate new writers),
// but a key that IS present with the wrong type — a string where a count
// belongs, a negative number in a uint field, an object where an array was
// promised — throws CodecError naming the field. Silent type confusion is
// how a corrupted journal resurrects as plausible-looking results.

#ifndef SRC_EXP_JSON_H_
#define SRC_EXP_JSON_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
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
  // Encoders emit keys at most once per object; insertion order is not
  // significant for decoding, so a map keeps lookups simple.
  std::map<std::string, Value> fields;
};

// Parses `input` as one complete JSON value with nothing trailing. Returns
// false and fills `error` (when non-null) with an offset-tagged reason on
// malformed, truncated, or non-finite input.
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

// Non-negative integer token parsed from the raw text so full-range uint64
// seeds survive (a double only holds 53 bits exactly).
uint64_t ReadUint64(const Value& obj, const std::string& key,
                    uint64_t fallback);

template <typename T>
void ReadUint(const Value& obj, const std::string& key, T* out) {
  *out = static_cast<T>(ReadUint64(obj, key, static_cast<uint64_t>(*out)));
}

void ReadInt(const Value& obj, const std::string& key, int* out);
void ReadString(const Value& obj, const std::string& key, std::string* out);
void ReadBool(const Value& obj, const std::string& key, bool* out);
void ReadDoubleArray(const Value& obj, const std::string& key,
                     std::vector<double>* out);

}  // namespace json
}  // namespace dibs

#endif  // SRC_EXP_JSON_H_
