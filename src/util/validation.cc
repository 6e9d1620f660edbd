#include "src/util/validation.h"

#include <utility>

#include "src/util/env.h"

namespace dibs {

ValidationError::ValidationError(std::string invariant, std::string detail)
    : std::runtime_error("DIBS_VALIDATE[" + invariant + "]: " + detail),
      invariant_(std::move(invariant)),
      detail_(std::move(detail)) {}

namespace validate {
namespace internal {

std::atomic<bool>& Flag() {
  // Parsed like every boolean knob: "false" is off, a typo throws EnvError.
  static std::atomic<bool> enabled{env::Flag("DIBS_VALIDATE", false)};
  return enabled;
}

}  // namespace internal

void SetEnabled(bool on) { internal::Flag().store(on, std::memory_order_relaxed); }

void Fail(const std::string& invariant, const std::string& detail) {
  throw ValidationError(invariant, detail);
}

}  // namespace validate
}  // namespace dibs
