// Checked environment-knob parsing.
//
// Every DIBS_* knob used to go through atoi/atof, which silently turn a
// typo ("DIBS_JOBS=fuor") into 0 and an out-of-range value into whatever
// the cast produced — the run then quietly executes with a configuration
// nobody asked for. The helpers here are strict instead: the whole value
// must parse, it must sit inside the caller's declared range, and anything
// else throws a typed EnvError naming the variable, the offending value,
// and the accepted range. A knob that is unset (or set to the empty string)
// always yields the caller's fallback.
//
// The chaos harness (src/chaos) leans on this: a fuzz run that spans
// thousands of scenario executions must die loudly on a misspelled knob
// rather than fuzz the wrong configuration for an hour.

#ifndef SRC_UTIL_ENV_H_
#define SRC_UTIL_ENV_H_

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace dibs {

// Thrown when an environment knob holds garbage or an out-of-range value.
class EnvError : public std::runtime_error {
 public:
  EnvError(std::string name, std::string value, std::string reason);

  const std::string& name() const { return name_; }    // e.g. "DIBS_JOBS"
  const std::string& value() const { return value_; }  // the rejected text

 private:
  std::string name_;
  std::string value_;
};

namespace env {

// Raw lookup: nullptr when unset or empty (empty means "unset" for every
// DIBS_* knob, matching the pre-existing convention).
const char* Raw(const char* name);

// True when the variable is set (and non-empty).
bool IsSet(const char* name);

// Integer knob in [min, max]. Accepts an optional sign and decimal digits
// only; anything else (including trailing junk) throws EnvError.
int64_t Int(const char* name, int64_t fallback, int64_t min = INT64_MIN,
            int64_t max = INT64_MAX);

// Int's rule applied to `text` from anywhere else (command-line flags), so
// both paths accept exactly the same values: true and `*out` set when it
// parses inside [min, max], false and `*error` set to the reason otherwise.
bool ParseInt(const char* text, int64_t min, int64_t max, int64_t* out, std::string* error);

// Floating-point knob in [min, max]. The whole value must parse and be
// finite (no "nan"/"inf" — JSON-style null semantics have no place in env
// knobs); violations throw EnvError.
double Double(const char* name, double fallback, double min, double max);

// Boolean knob: 0/1/true/false/on/off/yes/no (case-insensitive). Anything
// else throws EnvError — "DIBS_RESUME=treu" must not silently mean "true"
// (the historical `env[0] != '0'` rule) or "false".
bool Flag(const char* name, bool fallback);

// String knob restricted to an allow-list (e.g. DIBS_ISOLATE); returns the
// matched entry or `fallback` when unset, throws EnvError otherwise.
std::string OneOf(const char* name, const std::string& fallback,
                  std::initializer_list<const char*> allowed);

}  // namespace env
}  // namespace dibs

#endif  // SRC_UTIL_ENV_H_
