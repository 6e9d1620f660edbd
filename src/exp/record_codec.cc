#include "src/exp/record_codec.h"

#include <sstream>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace dibs {
namespace {

using json::Value;

void WriteSummary(std::ostream& os, const Summary& s) {
  os << "{\"count\":" << s.count << ",\"mean\":" << json::Num(s.mean)
     << ",\"min\":" << json::Num(s.min) << ",\"max\":" << json::Num(s.max)
     << ",\"p50\":" << json::Num(s.p50) << ",\"p90\":" << json::Num(s.p90)
     << ",\"p99\":" << json::Num(s.p99) << ",\"p999\":" << json::Num(s.p999)
     << "}";
}

void WriteDoubleArray(std::ostream& os, const std::vector<double>& v) {
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << json::Num(v[i]);
  }
  os << "]";
}

// {"queue-overflow":12,...} keyed by DropReasonName, every reason present so
// consumers never have to guess which keys exist.
void WriteDropsByReason(std::ostream& os, const std::vector<uint64_t>& by_reason) {
  os << "{";
  for (size_t i = 0; i < kNumDropReasons; ++i) {
    const uint64_t count = i < by_reason.size() ? by_reason[i] : 0;
    os << (i == 0 ? "" : ",") << "\"" << DropReasonName(static_cast<DropReason>(i))
       << "\":" << count;
  }
  os << "}";
}

void GetSummary(const Value& obj, const std::string& key, Summary* out) {
  const Value* v = json::Find(obj, key);
  if (v == nullptr) {
    return;
  }
  if (v->kind != Value::Kind::kObject) {
    throw CodecError(key, "expected summary object");
  }
  json::ReadInt(*v, "count", &out->count);
  json::ReadDouble(*v, "mean", &out->mean);
  json::ReadDouble(*v, "min", &out->min);
  json::ReadDouble(*v, "max", &out->max);
  json::ReadDouble(*v, "p50", &out->p50);
  json::ReadDouble(*v, "p90", &out->p90);
  json::ReadDouble(*v, "p99", &out->p99);
  json::ReadDouble(*v, "p999", &out->p999);
}

bool StatusFromName(const std::string& name, RunStatus* out) {
  for (const RunStatus s :
       {RunStatus::kOk, RunStatus::kFailed, RunStatus::kTimeout,
        RunStatus::kCrashed, RunStatus::kQuarantined}) {
    if (name == RunStatusName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string EncodeRunRecord(const RunRecord& r) {
  std::ostringstream os;
  os << "{\"sweep\":\"" << json::Escape(r.sweep) << "\",\"run\":" << r.index
     << ",\"axes\":{";
  for (size_t i = 0; i < r.points.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\"" << json::Escape(r.points[i].axis)
       << "\":\"" << json::Escape(r.points[i].value) << "\"";
  }
  os << "},\"replication\":" << r.replication << ",\"seed\":" << r.seed
     << ",\"status\":\"" << RunStatusName(r.status)
     << "\",\"attempts\":" << r.attempts << ",\"error\":\""
     << json::Escape(r.error) << "\",\"wall_ms\":" << json::Num(r.wall_ms)
     << ",\"events_per_sec\":" << json::Num(r.events_per_sec) << ",\"result\":{";

  const ScenarioResult& s = r.result;
  os << "\"qct99_ms\":" << json::Num(s.qct99_ms)
     << ",\"bg_fct99_ms\":" << json::Num(s.bg_fct99_ms)
     << ",\"bg_fct99_all_ms\":" << json::Num(s.bg_fct99_all_ms) << ",\"qct\":";
  WriteSummary(os, s.qct);
  os << ",\"bg_fct_short\":";
  WriteSummary(os, s.bg_fct_short);
  os << ",\"queries_completed\":" << s.queries_completed
     << ",\"queries_launched\":" << s.queries_launched
     << ",\"flows_completed\":" << s.flows_completed
     << ",\"flows_started\":" << s.flows_started << ",\"drops\":" << s.drops
     << ",\"ttl_drops\":" << s.ttl_drops << ",\"drops_by_reason\":";
  WriteDropsByReason(os, s.drops_by_reason);
  os << ",\"fault_drops\":" << s.fault_drops
     << ",\"fault_events_applied\":" << s.fault_events_applied
     << ",\"fault_flows_stalled\":" << s.fault_flows_stalled
     << ",\"fault_flows_recovered\":" << s.fault_flows_recovered
     << ",\"fault_recovery_ms_max\":" << json::Num(s.fault_recovery_ms_max)
     << ",\"detours\":" << s.detours
     << ",\"delivered_packets\":" << s.delivered_packets
     << ",\"detoured_fraction\":" << json::Num(s.detoured_fraction)
     << ",\"query_detour_share\":" << json::Num(s.query_detour_share)
     << ",\"detour_count_p99\":" << json::Num(s.detour_count_p99)
     << ",\"queueing_delay_us\":";
  WriteSummary(os, s.queueing_delay_us);
  os << ",\"loop_packets\":" << s.loop_packets
     << ",\"retransmits\":" << s.retransmits << ",\"timeouts\":" << s.timeouts
     << ",\"guard_trips\":" << s.guard_trips
     << ",\"guard_transitions\":" << s.guard_transitions
     << ",\"guard_suppressed_drops\":" << s.guard_suppressed_drops
     << ",\"guard_ttl_clamped_drops\":" << s.guard_ttl_clamped_drops
     << ",\"guard_time_suppressed_ms\":" << json::Num(s.guard_time_suppressed_ms)
     << ",\"collapse_detected\":" << (s.collapse_detected ? "true" : "false")
     << ",\"collapse_onset_ms\":" << json::Num(s.collapse_onset_ms)
     << ",\"hot_fractions\":";
  WriteDoubleArray(os, s.hot_fractions);
  os << ",\"relative_hot_fractions\":";
  WriteDoubleArray(os, s.relative_hot_fractions);
  os << ",\"one_hop_free\":";
  WriteDoubleArray(os, s.one_hop_free);
  os << ",\"two_hop_free\":";
  WriteDoubleArray(os, s.two_hop_free);
  os << ",\"events_processed\":" << s.events_processed << "}}";
  return os.str();
}

bool DecodeRunRecord(const std::string& line, RunRecord* record,
                     std::string* error) {
  Value root;
  if (!json::Parse(line, &root, error)) {
    return false;
  }
  if (root.kind != Value::Kind::kObject) {
    if (error != nullptr) {
      *error = "record is not a JSON object";
    }
    return false;
  }

  RunRecord r;
  try {
    json::ReadInt(root, "run", &r.index);
    json::ReadString(root, "sweep", &r.sweep);
    json::ReadInt(root, "replication", &r.replication);
    json::ReadInt(root, "seed", &r.seed);
    json::ReadInt(root, "attempts", &r.attempts);
    json::ReadString(root, "error", &r.error);
    json::ReadDouble(root, "wall_ms", &r.wall_ms);
    json::ReadDouble(root, "events_per_sec", &r.events_per_sec);

    std::string status_name = RunStatusName(RunStatus::kOk);
    json::ReadString(root, "status", &status_name);
    if (!StatusFromName(status_name, &r.status)) {
      throw CodecError("status", "unknown status '" + status_name + "'");
    }

    // The encoder writes axes as an object in matrix axis order, and Parse
    // keeps that order (FindRecord and CSV folding depend on it).
    if (const Value* axes = json::Find(root, "axes"); axes != nullptr) {
      if (axes->kind != Value::Kind::kObject) {
        throw CodecError("axes", "expected object");
      }
      for (const auto& [key, value] : axes->fields) {
        if (value.kind != Value::Kind::kString) {
          throw CodecError("axes." + key, "expected string label");
        }
        r.points.push_back({key, value.text});
      }
    }

    if (const Value* res = json::Find(root, "result"); res != nullptr) {
      if (res->kind != Value::Kind::kObject) {
        throw CodecError("result", "expected object");
      }
      ScenarioResult& s = r.result;
      json::ReadDouble(*res, "qct99_ms", &s.qct99_ms);
      json::ReadDouble(*res, "bg_fct99_ms", &s.bg_fct99_ms);
      json::ReadDouble(*res, "bg_fct99_all_ms", &s.bg_fct99_all_ms);
      GetSummary(*res, "qct", &s.qct);
      GetSummary(*res, "bg_fct_short", &s.bg_fct_short);
      json::ReadInt(*res, "queries_completed", &s.queries_completed);
      json::ReadInt(*res, "queries_launched", &s.queries_launched);
      json::ReadInt(*res, "flows_completed", &s.flows_completed);
      json::ReadInt(*res, "flows_started", &s.flows_started);
      json::ReadInt(*res, "drops", &s.drops);
      json::ReadInt(*res, "ttl_drops", &s.ttl_drops);
      if (const Value* by = json::Find(*res, "drops_by_reason"); by != nullptr) {
        if (by->kind != Value::Kind::kObject) {
          throw CodecError("drops_by_reason", "expected object");
        }
        s.drops_by_reason.assign(kNumDropReasons, 0);
        for (size_t i = 0; i < kNumDropReasons; ++i) {
          json::ReadInt(*by, DropReasonName(static_cast<DropReason>(i)),
                        &s.drops_by_reason[i]);
        }
      }
      json::ReadInt(*res, "fault_drops", &s.fault_drops);
      json::ReadInt(*res, "fault_events_applied", &s.fault_events_applied);
      json::ReadInt(*res, "fault_flows_stalled", &s.fault_flows_stalled);
      json::ReadInt(*res, "fault_flows_recovered", &s.fault_flows_recovered);
      json::ReadDouble(*res, "fault_recovery_ms_max", &s.fault_recovery_ms_max);
      json::ReadInt(*res, "detours", &s.detours);
      json::ReadInt(*res, "delivered_packets", &s.delivered_packets);
      json::ReadDouble(*res, "detoured_fraction", &s.detoured_fraction);
      json::ReadDouble(*res, "query_detour_share", &s.query_detour_share);
      json::ReadDouble(*res, "detour_count_p99", &s.detour_count_p99);
      GetSummary(*res, "queueing_delay_us", &s.queueing_delay_us);
      json::ReadInt(*res, "loop_packets", &s.loop_packets);
      json::ReadInt(*res, "retransmits", &s.retransmits);
      json::ReadInt(*res, "timeouts", &s.timeouts);
      json::ReadInt(*res, "guard_trips", &s.guard_trips);
      json::ReadInt(*res, "guard_transitions", &s.guard_transitions);
      json::ReadInt(*res, "guard_suppressed_drops", &s.guard_suppressed_drops);
      json::ReadInt(*res, "guard_ttl_clamped_drops", &s.guard_ttl_clamped_drops);
      json::ReadDouble(*res, "guard_time_suppressed_ms",
                       &s.guard_time_suppressed_ms);
      json::ReadBool(*res, "collapse_detected", &s.collapse_detected);
      json::ReadDouble(*res, "collapse_onset_ms", &s.collapse_onset_ms);
      json::ReadDoubleArray(*res, "hot_fractions", &s.hot_fractions);
      json::ReadDoubleArray(*res, "relative_hot_fractions",
                            &s.relative_hot_fractions);
      json::ReadDoubleArray(*res, "one_hop_free", &s.one_hop_free);
      json::ReadDoubleArray(*res, "two_hop_free", &s.two_hop_free);
      json::ReadInt(*res, "events_processed", &s.events_processed);
    }
  } catch (const CodecError& e) {
    if (error != nullptr) {
      *error = e.what();
    }
    return false;
  }

  *record = std::move(r);
  return true;
}

}  // namespace dibs
