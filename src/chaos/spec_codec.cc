#include "src/chaos/spec_codec.h"

#include <cmath>
#include <sstream>

#include "src/core/detour_policy.h"
#include "src/util/json.h"

namespace dibs::chaos {
namespace {

using json::Value;

bool FaultKindFromName(const std::string& name, fault::FaultKind* out) {
  for (const fault::FaultKind k :
       {fault::FaultKind::kLinkDown, fault::FaultKind::kLinkUp,
        fault::FaultKind::kSwitchCrash, fault::FaultKind::kSwitchRestart,
        fault::FaultKind::kDegradeLink, fault::FaultKind::kRestoreLink}) {
    if (name == fault::FaultKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

// Spec fields hold small non-negative quantities; this wrapper adds the
// range check the generic reader cannot know about.
int ReadBoundedInt(const Value& obj, const std::string& key, int fallback,
                   int min, int max) {
  int v = fallback;
  json::ReadInt(obj, key, &v);
  if (v < min || v > max) {
    throw CodecError(key, "value " + std::to_string(v) + " outside [" +
                              std::to_string(min) + ", " + std::to_string(max) +
                              "]");
  }
  return v;
}

double ReadBoundedDouble(const Value& obj, const std::string& key,
                         double fallback, double min, double max) {
  double v = fallback;
  json::ReadDouble(obj, key, &v);
  if (!(v >= min && v <= max)) {  // NaN fails too
    throw CodecError(key, "value outside [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]");
  }
  return v;
}

}  // namespace

std::string EncodeChaosSpec(const ChaosSpec& s) {
  std::ostringstream os;
  os << "{\"seed\":" << s.seed << ",\"case\":" << s.case_index
     << ",\"topology\":\"" << json::Escape(s.topology)
     << "\",\"fat_tree_k\":" << s.fat_tree_k
     << ",\"oversubscription\":" << json::Num(s.oversubscription)
     << ",\"switch_buffer_packets\":" << s.switch_buffer_packets
     << ",\"ecn_threshold_packets\":" << s.ecn_threshold_packets
     << ",\"use_shared_buffer\":" << (s.use_shared_buffer ? "true" : "false")
     << ",\"detour_policy\":\"" << json::Escape(s.detour_policy)
     << "\",\"initial_ttl\":" << s.initial_ttl
     << ",\"guard_enabled\":" << (s.guard_enabled ? "true" : "false")
     << ",\"guard_adaptive_ttl\":" << (s.guard_adaptive_ttl ? "true" : "false")
     << ",\"guard_watchdog\":" << (s.guard_watchdog ? "true" : "false")
     << ",\"enable_background\":" << (s.enable_background ? "true" : "false")
     << ",\"bg_interarrival_ms\":" << json::Num(s.bg_interarrival_ms)
     << ",\"qps\":" << json::Num(s.qps)
     << ",\"incast_degree\":" << s.incast_degree
     << ",\"response_bytes\":" << s.response_bytes
     << ",\"duration_ms\":" << json::Num(s.duration_ms)
     << ",\"drain_ms\":" << json::Num(s.drain_ms) << ",\"faults\":[";
  for (size_t i = 0; i < s.faults.size(); ++i) {
    const fault::FaultEvent& e = s.faults[i];
    os << (i == 0 ? "" : ",") << "{\"at_us\":" << json::Num(e.at.ToMicros())
       << ",\"kind\":\"" << fault::FaultKindName(e.kind)
       << "\",\"target\":" << e.target;
    if (e.kind == fault::FaultKind::kDegradeLink) {
      os << ",\"loss_probability\":" << json::Num(e.loss_probability)
         << ",\"extra_jitter_us\":" << json::Num(e.extra_jitter.ToMicros());
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

ChaosSpec DecodeChaosSpec(const std::string& text) {
  Value root;
  std::string error;
  if (!json::Parse(text, &root, &error)) {
    throw CodecError("spec", error);
  }
  return DecodeChaosSpec(root);
}

ChaosSpec DecodeChaosSpec(const json::Value& root) {
  if (root.kind != Value::Kind::kObject) {
    throw CodecError("spec", "not a JSON object");
  }

  ChaosSpec s;
  json::ReadInt(root, "seed", &s.seed);
  s.case_index = ReadBoundedInt(root, "case", 0, 0, 1 << 30);
  json::ReadString(root, "topology", &s.topology);
  if (s.topology != "fat-tree" && s.topology != "leaf-spine" &&
      s.topology != "linear") {
    throw CodecError("topology", "unknown shape '" + s.topology + "'");
  }
  s.fat_tree_k = ReadBoundedInt(root, "fat_tree_k", s.fat_tree_k, 2, 16);
  if (s.fat_tree_k % 2 != 0) {
    throw CodecError("fat_tree_k", "must be even");
  }
  s.oversubscription =
      ReadBoundedDouble(root, "oversubscription", s.oversubscription, 1, 64);
  s.switch_buffer_packets = ReadBoundedInt(root, "switch_buffer_packets",
                                           s.switch_buffer_packets, 1, 100000);
  s.ecn_threshold_packets = ReadBoundedInt(root, "ecn_threshold_packets",
                                           s.ecn_threshold_packets, 0, 100000);
  json::ReadBool(root, "use_shared_buffer", &s.use_shared_buffer);
  json::ReadString(root, "detour_policy", &s.detour_policy);
  if (!DetourPolicyFromName(s.detour_policy).has_value()) {
    throw CodecError("detour_policy", "unknown policy '" + s.detour_policy + "'");
  }
  s.initial_ttl = ReadBoundedInt(root, "initial_ttl", s.initial_ttl, 1, 255);
  json::ReadBool(root, "guard_enabled", &s.guard_enabled);
  json::ReadBool(root, "guard_adaptive_ttl", &s.guard_adaptive_ttl);
  json::ReadBool(root, "guard_watchdog", &s.guard_watchdog);
  json::ReadBool(root, "enable_background", &s.enable_background);
  s.bg_interarrival_ms = ReadBoundedDouble(root, "bg_interarrival_ms",
                                           s.bg_interarrival_ms, 0.01, 10000);
  s.qps = ReadBoundedDouble(root, "qps", s.qps, 1, 100000);
  s.incast_degree = ReadBoundedInt(root, "incast_degree", s.incast_degree, 1, 1024);
  json::ReadInt(root, "response_bytes", &s.response_bytes);
  if (s.response_bytes < 100 || s.response_bytes > 10000000) {
    throw CodecError("response_bytes", "outside [100, 10000000]");
  }
  s.duration_ms = ReadBoundedDouble(root, "duration_ms", s.duration_ms, 0.1, 60000);
  s.drain_ms = ReadBoundedDouble(root, "drain_ms", s.drain_ms, 0, 60000);

  if (const Value* faults = json::Find(root, "faults"); faults != nullptr) {
    if (faults->kind != Value::Kind::kArray) {
      throw CodecError("faults", "expected array");
    }
    for (size_t i = 0; i < faults->items.size(); ++i) {
      const Value& item = faults->items[i];
      const std::string key = "faults[" + std::to_string(i) + "]";
      if (item.kind != Value::Kind::kObject) {
        throw CodecError(key, "expected object");
      }
      fault::FaultEvent e;
      // llround, not a truncating cast: 1.234ms stored as 1234us must come
      // back as exactly 1234us even though 1.234 is not a dyadic double.
      const double at_us = ReadBoundedDouble(item, "at_us", -1, 0, 120e6);
      e.at = Time::Nanos(std::llround(at_us * 1000));
      std::string kind_name;
      json::ReadString(item, "kind", &kind_name);
      if (!FaultKindFromName(kind_name, &e.kind)) {
        throw CodecError(key + ".kind", "unknown fault kind '" + kind_name + "'");
      }
      e.target = ReadBoundedInt(item, "target", -1, 0, 1 << 20);
      if (e.kind == fault::FaultKind::kDegradeLink) {
        e.loss_probability =
            ReadBoundedDouble(item, "loss_probability", 0, 0, 1);
        const double jitter_us =
            ReadBoundedDouble(item, "extra_jitter_us", 0, 0, 1e9);
        e.extra_jitter = Time::Nanos(std::llround(jitter_us * 1000));
      }
      s.faults.push_back(e);
    }
  }
  return s;
}

}  // namespace dibs::chaos
