#include "src/exp/run_journal.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/exp/record_codec.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace dibs {
namespace {

// FNV-1a (64-bit), the repo's stock choice for stable structural hashes.
class Fnv1a {
 public:
  void MixBytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void Mix(uint64_t v) { MixBytes(&v, sizeof(v)); }
  void Mix(int64_t v) { MixBytes(&v, sizeof(v)); }
  void Mix(int v) { Mix(static_cast<int64_t>(v)); }
  void Mix(bool v) { Mix(static_cast<int64_t>(v ? 1 : 0)); }
  void Mix(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::string& s) {
    Mix(static_cast<uint64_t>(s.size()));
    MixBytes(s.data(), s.size());
  }
  void Mix(Time t) { Mix(t.nanos()); }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

// Reads the header line's fingerprint and sweep name; false unless the line
// is a JSON object marked "journal":"dibs-sweep" with a string fingerprint.
bool ReadHeader(const std::string& line, std::string* fingerprint,
                std::string* sweep) {
  json::Value header;
  std::string marker;
  if (!json::Parse(line, &header, nullptr)) {
    return false;
  }
  try {
    json::ReadString(header, "journal", &marker);
    json::ReadString(header, "fingerprint", fingerprint);
    json::ReadString(header, "sweep", sweep);
  } catch (const CodecError&) {
    return false;
  }
  return marker == "dibs-sweep" && !fingerprint->empty();
}

}  // namespace

uint64_t DigestConfig(const ExperimentConfig& c) {
  Fnv1a h;
  h.Mix(static_cast<int64_t>(c.topology));
  h.Mix(c.fat_tree_k);
  h.Mix(c.oversubscription);

  const NetworkConfig& n = c.net;
  h.Mix(static_cast<uint64_t>(n.switch_buffer_packets));
  h.Mix(static_cast<uint64_t>(n.ecn_threshold_packets));
  h.Mix(n.pfabric_queues);
  h.Mix(static_cast<uint64_t>(n.pfabric_buffer_packets));
  h.Mix(n.use_shared_buffer);
  h.Mix(static_cast<uint64_t>(n.shared_buffer_packets));
  h.Mix(n.shared_buffer_alpha);
  h.Mix(n.detour_policy);
  h.Mix(static_cast<int64_t>(n.initial_ttl));
  h.Mix(n.pfc_enabled);
  h.Mix(static_cast<uint64_t>(n.pfc_xoff_packets));
  h.Mix(static_cast<uint64_t>(n.pfc_xon_packets));
  h.Mix(n.packet_level_ecmp);
  // Overload guard: each switch shapes forwarding decisions (breaker, TTL
  // clamp) or the recorded result (watchdog columns), so all three digest.
  const GuardConfig& g = n.guard;
  h.Mix(g.enabled);
  h.Mix(g.adaptive_ttl);
  h.Mix(g.watchdog);
  // TraceConfig is deliberately NOT mixed: tracing is observability, and
  // toggling it must not invalidate journaled results (like sweep_run_index).

  h.Mix(static_cast<int64_t>(c.transport));
  const TcpConfig& t = c.tcp;
  h.Mix(static_cast<uint64_t>(t.init_cwnd_segments));
  h.Mix(t.min_rto);
  h.Mix(static_cast<uint64_t>(t.dupack_threshold));
  h.Mix(static_cast<uint64_t>(c.pfabric.window_segments));

  h.Mix(c.enable_background);
  h.Mix(c.bg_interarrival);
  h.Mix(c.enable_query);
  h.Mix(c.qps);
  h.Mix(c.incast_degree);
  h.Mix(c.response_bytes);
  h.Mix(c.duration);
  h.Mix(c.drain);
  h.Mix(c.seed);

  h.Mix(static_cast<uint64_t>(c.faults.events().size()));
  for (const fault::FaultEvent& e : c.faults.events()) {
    h.Mix(e.at);
    h.Mix(static_cast<int64_t>(e.kind));
    h.Mix(e.target);
    h.Mix(e.loss_probability);
    h.Mix(e.extra_jitter);
  }

  h.Mix(c.monitor_links);
  h.Mix(c.link_interval);
  h.Mix(c.hot_threshold);
  h.Mix(c.monitor_buffers);
  h.Mix(c.buffer_interval);
  return h.hash();
}

uint64_t SweepFingerprint(const std::string& sweep_name,
                          const std::vector<RunSpec>& runs) {
  Fnv1a h;
  h.Mix(sweep_name);
  h.Mix(static_cast<uint64_t>(runs.size()));
  for (const RunSpec& run : runs) {
    h.Mix(run.index);
    h.Mix(run.replication);
    h.Mix(run.config.seed);
    h.Mix(static_cast<uint64_t>(run.points.size()));
    for (const AxisPoint& p : run.points) {
      h.Mix(p.axis);
      h.Mix(p.value);
    }
    h.Mix(DigestConfig(run.config));
  }
  return h.hash();
}

void RunJournal::Open(const std::string& path, const std::string& sweep_name,
                      size_t run_count, uint64_t fingerprint, bool resume,
                      std::map<int, RunRecord>* resumed) {
  std::lock_guard<std::mutex> lock(mu_);
  DIBS_CHECK(!out_.is_open()) << "journal already open";

  bool have_existing = false;
  if (resume) {
    std::ifstream in(path);
    std::string line;
    if (in.is_open() && std::getline(in, line) && !line.empty()) {
      have_existing = true;
      std::string file_fp;
      std::string file_sweep = "?";
      if (!ReadHeader(line, &file_fp, &file_sweep)) {
        throw std::runtime_error("journal '" + path +
                                 "' has no valid dibs-sweep header; refusing to resume");
      }
      if (file_fp != HexFingerprint(fingerprint)) {
        throw std::runtime_error(
            "journal '" + path + "' fingerprint " + file_fp + " (sweep '" +
            file_sweep + "') does not match this sweep's fingerprint " +
            HexFingerprint(fingerprint) +
            "; refusing to resume a different run matrix");
      }
      size_t line_no = 1;
      bool reached_eof = false;
      while (!reached_eof) {
        if (!std::getline(in, line)) {
          break;
        }
        ++line_no;
        reached_eof = in.eof();  // no trailing '\n': possibly a torn write
        if (line.empty()) {
          continue;
        }
        RunRecord rec;
        std::string error;
        if (!DecodeRunRecord(line, &rec, &error)) {
          if (reached_eof) {
            break;  // torn final write from a hard kill — expected, drop it
          }
          DIBS_LOG(kWarning) << "journal '" << path << "' line " << line_no
                             << " unreadable (" << error << "); skipping";
          continue;
        }
        if (resumed != nullptr) {
          (*resumed)[rec.index] = std::move(rec);  // last record per index wins
        }
      }
    }
  }

  std::string io_error;
  DIBS_CHECK(out_.Open(path, /*truncate=*/!have_existing, &io_error))
      << "cannot open journal '" << path << "': " << io_error;
  if (!have_existing) {
    const std::string header = "{\"journal\":\"dibs-sweep\",\"version\":1,\"sweep\":\"" +
                         json::Escape(sweep_name) + "\",\"runs\":" + std::to_string(run_count) +
                         ",\"fingerprint\":\"" + HexFingerprint(fingerprint) + "\"}\n";
    DIBS_CHECK(out_.Append(header, &io_error))
        << "cannot write journal header to '" << path << "': " << io_error;
  }
}

void RunJournal::Append(const RunRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) {
    return;
  }
  std::string io_error;
  if (!out_.Append(EncodeRunRecord(record) + "\n", &io_error)) {
    // A journaling failure must not kill the sweep producing the results —
    // but it must be loud: resume would silently redo (or lose) this run.
    DIBS_LOG(kWarning) << "journal append failed: " << io_error;
  }
}

void RunJournal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.Close();
}

}  // namespace dibs
