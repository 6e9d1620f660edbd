// One-line JSON encoding of a RunRecord, shared by every surface that has
// to persist or transport a finished run: JsonlSink (result export), the
// RunJournal (crash-resilient resume), and the process-isolation pipe
// (child -> parent result hand-off). Encode and Decode round-trip exactly —
// doubles are printed with max_digits10 precision so
// Encode(Decode(Encode(r))) == Encode(r) — which is what makes journal
// replay and forked execution byte-identical to in-process execution at the
// sink level.

#ifndef SRC_EXP_RECORD_CODEC_H_
#define SRC_EXP_RECORD_CODEC_H_

#include <string>

#include "src/exp/run_record.h"

namespace dibs {

// One JSON object with a member per entry of RunRecord::ForEachField, in
// that order; `result` and each Summary nest as objects through their own
// lists (see also EXPERIMENTS.md "Result schema"). No trailing newline;
// callers append their own.
std::string EncodeRunRecord(const RunRecord& record);

// Parses a line produced by EncodeRunRecord. Returns false (and fills
// `error` when non-null) on malformed input: truncated or trailing-garbage
// JSON, non-finite number tokens ("1e999"), and type-confused fields (a
// string where a count belongs, a negative token in a uint field) are all
// rejected — see src/util/json.h. Unknown keys are ignored so older readers
// tolerate newer writers. JSON null decodes to NaN, matching the encoder's
// NaN/inf -> null mapping.
bool DecodeRunRecord(const std::string& line, RunRecord* record,
                     std::string* error = nullptr);

}  // namespace dibs

#endif  // SRC_EXP_RECORD_CODEC_H_
