// DIBS_VALIDATE runtime invariant checking.
//
// When validation is enabled, the library layers always-on consistency checks
// over the hot paths: the simulator rejects time regressions by throwing, the
// queues shadow-check their byte accounting, and the Network installs an
// InvariantChecker (src/device/invariant_checker.h) that keeps a
// packet-conservation ledger. A violated invariant throws ValidationError
// with a structured diagnostic (invariant name + detail, including the
// involved packet's description when one is attached) instead of aborting, so
// the sweep engine can report it as a failed run and tests can assert on it.
//
// Enabling: set DIBS_VALIDATE=1 in the environment (a boolean knob parsed
// by env::Flag: 1/true/on/yes enable, 0/false/off/no disable, anything else
// throws EnvError), or call validate::SetEnabled(true) programmatically. The
// flag is read once and cached; Enabled() is a single relaxed atomic load,
// cheap enough to leave in release hot paths.

#ifndef SRC_UTIL_VALIDATION_H_
#define SRC_UTIL_VALIDATION_H_

#include <atomic>
#include <stdexcept>
#include <string>

namespace dibs {

// Thrown on any violated DIBS_VALIDATE invariant.
class ValidationError : public std::runtime_error {
 public:
  ValidationError(std::string invariant, std::string detail);

  // Short dotted identifier of the violated invariant, e.g. "queue.bytes" or
  // "ledger.double-deliver".
  const std::string& invariant() const { return invariant_; }

  // Human-readable diagnostic (packet description, counts, timestamps).
  const std::string& detail() const { return detail_; }

 private:
  std::string invariant_;
  std::string detail_;
};

namespace validate {

namespace internal {
std::atomic<bool>& Flag();  // initialized from DIBS_VALIDATE on first use
}  // namespace internal

// True when validation mode is active.
inline bool Enabled() { return internal::Flag().load(std::memory_order_relaxed); }

// Programmatic override (tests; harnesses that validate unconditionally).
void SetEnabled(bool on);

// Throws ValidationError{invariant, detail}.
[[noreturn]] void Fail(const std::string& invariant, const std::string& detail);

// RAII enable/restore for tests.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }

  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

}  // namespace validate
}  // namespace dibs

#endif  // SRC_UTIL_VALIDATION_H_
