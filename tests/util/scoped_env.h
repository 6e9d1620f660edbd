// RAII override of one environment variable for the length of a test: sets
// it (or unsets it, for a null value) and restores the previous state, so a
// knob a test sets never leaks into later tests in the same binary.

#ifndef TESTS_UTIL_SCOPED_ENV_H_
#define TESTS_UTIL_SCOPED_ENV_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace dibs {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name); old != nullptr) {
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace dibs

#endif  // TESTS_UTIL_SCOPED_ENV_H_
