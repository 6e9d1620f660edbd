// RunRecord codec contract: Encode/Decode round-trip exactly (including
// axis order, special characters, NaN/inf -> null, and full-range uint64
// values) — the property the journal and the process-isolation pipe both
// stand on.

#include "src/exp/record_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "tests/exp/full_record.h"

namespace dibs {
namespace {

TEST(RecordCodecTest, EncodeDecodeRoundTripsEveryField) {
  const RunRecord original = FullRecord();
  const std::string line = EncodeRunRecord(original);

  RunRecord decoded;
  std::string error;
  ASSERT_TRUE(DecodeRunRecord(line, &decoded, &error)) << error;

  EXPECT_EQ(decoded.index, original.index);
  EXPECT_EQ(decoded.sweep, original.sweep);
  EXPECT_EQ(decoded.points, original.points);  // axis ORDER preserved too
  EXPECT_EQ(decoded.replication, original.replication);
  EXPECT_EQ(decoded.seed, original.seed);
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.attempts, original.attempts);
  EXPECT_DOUBLE_EQ(decoded.wall_ms, original.wall_ms);
  EXPECT_DOUBLE_EQ(decoded.result.qct99_ms, original.result.qct99_ms);
  EXPECT_EQ(decoded.result.qct.count, original.result.qct.count);
  EXPECT_DOUBLE_EQ(decoded.result.qct.p99, original.result.qct.p99);
  EXPECT_EQ(decoded.result.drops_by_reason, original.result.drops_by_reason);
  EXPECT_EQ(decoded.result.guard_trips, original.result.guard_trips);
  EXPECT_EQ(decoded.result.guard_suppressed_drops,
            original.result.guard_suppressed_drops);
  EXPECT_EQ(decoded.result.collapse_detected, original.result.collapse_detected);
  EXPECT_DOUBLE_EQ(decoded.result.collapse_onset_ms,
                   original.result.collapse_onset_ms);
  EXPECT_EQ(decoded.result.hot_fractions, original.result.hot_fractions);
  EXPECT_EQ(decoded.result.one_hop_free, original.result.one_hop_free);
  EXPECT_EQ(decoded.result.events_processed, original.result.events_processed);

  // The byte-identity property everything else relies on.
  EXPECT_EQ(EncodeRunRecord(decoded), line);
}

// The exact bytes of FullRecord(), recorded before the codec was driven by
// the field lists. Golden rows, journal resume and the process-isolation
// pipe all hash or diff these bytes, so an encoder change must keep them.
TEST(RecordCodecTest, EncodingIsPinned) {
  EXPECT_EQ(
      EncodeRunRecord(FullRecord()),
      R"json({"sweep":"fig11","run":42,"axes":{"scheme":"dibs","degree":"100"},)json"
      R"json("replication":3,"seed":18446744073709551615,"status":"timeout",)json"
      R"json("attempts":2,"error":"watchdog: \"stalled\"\tat 5 ms",)json"
      R"json("wall_ms":123.456789012345,"events_per_sec":2500000,"result":{)json"
      R"json("qct99_ms":17.25,"bg_fct99_ms":3.125,"bg_fct99_all_ms":4.0625,)json"
      R"json("qct":{"count":130,"mean":9.5,"min":1.75,"max":21,"p50":8.25,)json"
      R"json("p90":14.5,"p99":17.125,"p999":20.5},)json"
      R"json("bg_fct_short":{"count":77,"mean":1.5,"min":0.375,"max":6.75,)json"
      R"json("p50":1.25,"p90":2.625,"p99":3.0625,"p999":5.5},)json"
      R"json("queries_completed":128,"queries_launched":131,)json"
      R"json("flows_completed":5200,"flows_started":5210,"drops":97,)json"
      R"json("ttl_drops":12,"drops_by_reason":{"queue-overflow":201,)json"
      R"json("no-detour-available":202,"ttl-expired":203,"no-route":204,)json"
      R"json("fault-link-down":205,"fault-switch-down":206,"fault-lossy":207,)json"
      R"json("fault-no-live-route":208,"guard-suppressed":209,)json"
      R"json("guard-ttl-clamped":210,"no-eligible-detour":211},)json"
      R"json("fault_drops":4,"fault_events_applied":6,"fault_flows_stalled":1,)json"
      R"json("fault_flows_recovered":9,"fault_recovery_ms_max":12.75,)json"
      R"json("detours":12345,"delivered_packets":197531,)json"
      R"json("detoured_fraction":0.0625,"query_detour_share":0.875,)json"
      R"json("detour_count_p99":40,"queueing_delay_us":{"count":987654,)json"
      R"json("mean":35.5,"min":0.25,"max":16000.5,"p50":22,"p90":64,"p99":250,)json"
      R"json("p999":1024},"loop_packets":8,"retransmits":17,"timeouts":5,)json"
      R"json("guard_trips":10,"guard_transitions":31,"guard_suppressed_drops":14,)json"
      R"json("guard_ttl_clamped_drops":13,"guard_time_suppressed_ms":6.5,)json"
      R"json("collapse_detected":true,"collapse_onset_ms":42.25,)json"
      R"json("hot_fractions":[0.5,0.25],"relative_hot_fractions":[0.75],)json"
      R"json("one_hop_free":[0.125,0.0009765625],"two_hop_free":[0.9375],)json"
      R"json("events_processed":1000000}})json");
}

TEST(RecordCodecTest, RoundTripsEveryStatusAndEscapedError) {
  for (RunStatus status : {RunStatus::kOk, RunStatus::kFailed, RunStatus::kTimeout,
                           RunStatus::kCrashed}) {
    RunRecord r = FullRecord();
    r.status = status;
    r.error = "line1\nsaid \"boom\"\\path\ttab";
    const std::string line = EncodeRunRecord(r);
    RunRecord decoded;
    ASSERT_TRUE(DecodeRunRecord(line, &decoded));
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.error, r.error);
    EXPECT_EQ(EncodeRunRecord(decoded), line);
  }
}

TEST(RecordCodecTest, NonFiniteDoublesRoundTripThroughNull) {
  RunRecord r = FullRecord();
  r.result.qct99_ms = std::numeric_limits<double>::quiet_NaN();
  r.result.bg_fct99_ms = std::numeric_limits<double>::infinity();
  const std::string line = EncodeRunRecord(r);
  EXPECT_NE(line.find("\"qct99_ms\":null"), std::string::npos);

  RunRecord decoded;
  ASSERT_TRUE(DecodeRunRecord(line, &decoded));
  EXPECT_TRUE(std::isnan(decoded.result.qct99_ms));
  EXPECT_TRUE(std::isnan(decoded.result.bg_fct99_ms));  // null loses inf-ness
  // Stable from the second generation on: null encodes as null again.
  EXPECT_EQ(EncodeRunRecord(decoded), line);
}

TEST(RecordCodecTest, AxisValuesWithSpecialCharactersSurvive) {
  using Points = std::vector<AxisPoint>;
  for (const Points& points : {
           Points{{"fault", "uplink-flap"}, {"label", "a \"b\" \\ c"}},
           // The escaped axis first, and axes out of sorted order.
           Points{{"label", "a \"b\" \\ c"}, {"fault", "uplink-flap"}},
           Points{{"b", "a\"b"}, {"a", "a\"b"}, {"c", "3"}},
       }) {
    RunRecord r = FullRecord();
    r.points = points;
    RunRecord decoded;
    ASSERT_TRUE(DecodeRunRecord(EncodeRunRecord(r), &decoded));
    EXPECT_EQ(decoded.points, r.points);
  }
}

TEST(RecordCodecTest, RejectsMalformedLines) {
  RunRecord scratch;
  std::string error;
  EXPECT_FALSE(DecodeRunRecord("", &scratch, &error));
  EXPECT_FALSE(DecodeRunRecord("not json", &scratch, &error));
  EXPECT_FALSE(error.empty());
  // Torn write: a truncated prefix of a real line must not decode.
  const std::string line = EncodeRunRecord(FullRecord());
  EXPECT_FALSE(DecodeRunRecord(line.substr(0, line.size() / 2), &scratch));
}

TEST(RecordCodecTest, IgnoresUnknownKeys) {
  std::string line = EncodeRunRecord(FullRecord());
  line.insert(1, "\"future_field\":[1,{\"x\":true}],");
  RunRecord decoded;
  std::string error;
  ASSERT_TRUE(DecodeRunRecord(line, &decoded, &error)) << error;
  EXPECT_EQ(decoded.sweep, "fig11");
}

TEST(RecordCodecTest, RejectsTypeConfusedFields) {
  RunRecord scratch;
  std::string error;
  // A string where a count belongs.
  EXPECT_FALSE(DecodeRunRecord(
      R"({"sweep":"s","run":0,"status":"ok","result":{"drops":"many"}})",
      &scratch, &error));
  EXPECT_NE(error.find("drops"), std::string::npos) << error;
  // A negative token in a uint field must not wrap to UINT64_MAX.
  EXPECT_FALSE(DecodeRunRecord(
      R"({"sweep":"s","run":0,"status":"ok","result":{"drops":-1}})", &scratch,
      &error));
  // An object where a double array was promised.
  EXPECT_FALSE(DecodeRunRecord(
      R"({"sweep":"s","run":0,"status":"ok","result":{"hot_fractions":{}}})",
      &scratch, &error));
  // A number where the sweep name belongs.
  EXPECT_FALSE(DecodeRunRecord(R"({"sweep":3,"run":0,"status":"ok"})", &scratch,
                               &error));
  // Axes must map strings to strings.
  EXPECT_FALSE(DecodeRunRecord(
      R"({"sweep":"s","run":0,"status":"ok","axes":{"scheme":1}})", &scratch,
      &error));
}

TEST(RecordCodecTest, RejectsNonFiniteAndMalformedNumbers) {
  RunRecord scratch;
  std::string error;
  // Grammatically valid but overflows to inf — JSON has no inf.
  EXPECT_FALSE(DecodeRunRecord(
      R"({"sweep":"s","run":0,"status":"ok","wall_ms":1e999})", &scratch,
      &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  // Tokens the old permissive scanner fed straight to strtod.
  for (const char* bad : {"1.2.3", "--5", "1e", "+1", ".5", "01"}) {
    const std::string line = std::string(R"({"sweep":"s","run":0,"wall_ms":)") +
                             bad + "}";
    EXPECT_FALSE(DecodeRunRecord(line, &scratch, &error)) << line;
  }
  // NaN/Infinity literals are not JSON at all.
  EXPECT_FALSE(DecodeRunRecord(R"({"wall_ms":NaN})", &scratch, &error));
  EXPECT_FALSE(DecodeRunRecord(R"({"wall_ms":Infinity})", &scratch, &error));
}

TEST(RecordCodecTest, EveryTruncationOfARealLineIsRejected) {
  const std::string line = EncodeRunRecord(FullRecord());
  RunRecord scratch;
  for (size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(DecodeRunRecord(line.substr(0, len), &scratch))
        << "prefix of length " << len << " decoded";
  }
}

// Deterministic fuzz: the decoder must classify arbitrary bytes and
// single-byte corruptions of real lines without crashing or hanging (ASan/
// UBSan in CI turn latent memory bugs here into failures).
TEST(RecordCodecTest, SurvivesFuzzedBytes) {
  Rng rng(0x5EEDu);
  const std::string base = EncodeRunRecord(FullRecord());
  RunRecord scratch;
  const std::string charset =
      "{}[]\",:.0123456789-+eEnultrfasNI\\ \n\t\x01\x7f";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string line;
    if (rng.Bernoulli(0.5)) {
      // Mutate a valid line: flip, insert, or delete a few bytes.
      line = base;
      const int edits = static_cast<int>(rng.UniformInt(1, 8));
      for (int e = 0; e < edits && !line.empty(); ++e) {
        const size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(line.size()) - 1));
        const char c = charset[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(charset.size()) - 1))];
        switch (rng.UniformInt(0, 2)) {
          case 0:
            line[pos] = c;
            break;
          case 1:
            line.insert(pos, 1, c);
            break;
          default:
            line.erase(pos, 1);
        }
      }
    } else {
      // Raw noise drawn from JSON-ish bytes.
      const int len = static_cast<int>(rng.UniformInt(0, 200));
      for (int i = 0; i < len; ++i) {
        line += charset[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(charset.size()) - 1))];
      }
    }
    std::string error;
    if (DecodeRunRecord(line, &scratch, &error)) {
      // Accepted lines must re-encode cleanly — decode is total on its
      // own output.
      RunRecord again;
      EXPECT_TRUE(DecodeRunRecord(EncodeRunRecord(scratch), &again, &error))
          << error;
    } else {
      EXPECT_FALSE(error.empty()) << "rejected without a reason: " << line;
    }
  }
}

TEST(RecordCodecTest, DeepNestingDoesNotSmashTheStack) {
  std::string bomb = "{\"future\":";
  for (int i = 0; i < 100000; ++i) {
    bomb += '[';
  }
  RunRecord scratch;
  std::string error;
  EXPECT_FALSE(DecodeRunRecord(bomb, &scratch, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

}  // namespace
}  // namespace dibs
