#include "src/util/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace dibs {

namespace {

std::string Describe(const char* name, const char* value, const std::string& reason) {
  return std::string(name) + "='" + value + "': " + reason;
}

}  // namespace

EnvError::EnvError(std::string name, std::string value, std::string reason)
    : std::runtime_error("bad environment knob " +
                         Describe(name.c_str(), value.c_str(), reason)),
      name_(std::move(name)),
      value_(std::move(value)) {}

namespace env {

const char* Raw(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

bool IsSet(const char* name) { return Raw(name) != nullptr; }

bool ParseInt(const char* text, int64_t min, int64_t max, int64_t* out, std::string* error) {
  // Strict shape check first: strtoll's "parse a prefix" behavior is exactly
  // the silent-degradation this helper exists to kill.
  const char* p = text;
  if (*p == '+' || *p == '-') {
    ++p;
  }
  if (*p == '\0') {
    *error = "expected an integer";
    return false;
  }
  for (const char* q = p; *q != '\0'; ++q) {
    if (!std::isdigit(static_cast<unsigned char>(*q))) {
      *error = "expected an integer";
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    *error = "integer out of representable range";
    return false;
  }
  if (parsed < min || parsed > max) {
    *error = "out of range [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = parsed;
  return true;
}

int64_t Int(const char* name, int64_t fallback, int64_t min, int64_t max) {
  const char* v = Raw(name);
  if (v == nullptr) {
    return fallback;
  }
  int64_t parsed = 0;
  std::string reason;
  if (!ParseInt(v, min, max, &parsed, &reason)) {
    throw EnvError(name, v, reason);
  }
  return parsed;
}

double Double(const char* name, double fallback, double min, double max) {
  const char* v = Raw(name);
  if (v == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || end == nullptr || *end != '\0') {
    throw EnvError(name, v, "expected a number");
  }
  if (errno == ERANGE || !std::isfinite(parsed)) {
    throw EnvError(name, v, "number must be finite");
  }
  if (parsed < min || parsed > max) {
    throw EnvError(name, v,
                   "out of range [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
  }
  return parsed;
}

bool Flag(const char* name, bool fallback) {
  const char* v = Raw(name);
  if (v == nullptr) {
    return fallback;
  }
  std::string lowered;
  for (const char* p = v; *p != '\0'; ++p) {
    lowered += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lowered == "1" || lowered == "true" || lowered == "on" || lowered == "yes") {
    return true;
  }
  if (lowered == "0" || lowered == "false" || lowered == "off" || lowered == "no") {
    return false;
  }
  throw EnvError(name, v, "expected a boolean (0/1/true/false/on/off/yes/no)");
}

std::string OneOf(const char* name, const std::string& fallback,
                  std::initializer_list<const char*> allowed) {
  const char* v = Raw(name);
  if (v == nullptr) {
    return fallback;
  }
  std::string choices;
  for (const char* a : allowed) {
    if (std::string(a) == v) {
      return v;
    }
    if (!choices.empty()) {
      choices += "|";
    }
    choices += a;
  }
  throw EnvError(name, v, "expected one of: " + choices);
}

}  // namespace env
}  // namespace dibs
