// Checkpoint file format: strict JSON with an integrity digest.
//
// A checkpoint file is exactly two '\n'-terminated lines:
//
//   line 1: the state object (strict JSON, byte-stable json::Dump output)
//           {"format":"dibs-ckpt","version":2,"config_digest":...,
//            "barrier":N,"sim":{...},"components":{...}}
//   line 2: {"digest":"<16 hex digits>"}   FNV-1a (64-bit) over line 1's
//           bytes, newline excluded
//
// Decoding verifies, in order: both lines present (truncation), digest
// match (bit flips), format marker, version, and JSON well-formedness.
// Every failure throws a typed CkptError — a damaged checkpoint is
// *diagnosed and rejected*, after which the caller deterministically
// replays the run from scratch. Never a silent wrong answer.

#ifndef SRC_CKPT_CHECKPOINT_H_
#define SRC_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/util/json.h"

namespace dibs::ckpt {

inline constexpr const char* kCkptFormat = "dibs-ckpt";
inline constexpr int kCkptVersion = 2;

// Typed rejection for unusable checkpoints: truncated, bit-flipped,
// version- or config-mismatched, or semantically inconsistent with the
// components being restored.
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

// FNV-1a (64-bit) over a byte string; the repo's stock structural hash.
uint64_t Fnv1aDigest(const std::string& bytes);

// Renders `state` (the full checkpoint object, format/version fields
// included) as a complete checkpoint file.
std::string EncodeCheckpointFile(const json::Value& state);

// Parses and verifies a checkpoint file; returns the state object.
// Throws CkptError on any defect (see file comment for the order).
json::Value DecodeCheckpointFile(const std::string& text);

// Reads `path` and decodes it. Throws CkptError when the file is missing,
// unreadable, or fails any of the decode checks.
json::Value ReadCheckpointFile(const std::string& path);

}  // namespace dibs::ckpt

#endif  // SRC_CKPT_CHECKPOINT_H_
