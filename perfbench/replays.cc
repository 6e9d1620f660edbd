#include "perfbench/replays.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "src/device/host_node.h"
#include "src/exp/record_codec.h"
#include "src/exp/run_journal.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dibs::Packet;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// xorshift64: the replays' own input stream, independent of the simulator Rng.
uint64_t Next(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

Packet MakePacket(dibs::Network& net, dibs::HostId src, dibs::HostId dst, uint8_t ttl) {
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = src;
  p.dst = dst;
  p.size_bytes = 1500;
  p.ttl = ttl;
  p.ect = true;
  p.priority = 1;
  p.flow = static_cast<dibs::FlowId>(src) + 1;
  return p;
}

// A Network on `topology` whose hosts accept every flow the replays use
// (flow = sender host + 1) and count switch hops from the TTL.
class HopRig {
 public:
  HopRig(const dibs::Topology& topology, const dibs::NetworkConfig& config)
      : net_(&sim_, topology, config), ttl_(config.initial_ttl) {
    const int hosts = net_.num_hosts();
    for (int h = 0; h < hosts; ++h) {
      for (int src = 0; src < hosts; ++src) {
        net_.host(h).RegisterFlowReceiver(static_cast<dibs::FlowId>(src) + 1, [this](Packet&& p) {
          stats_.hops += static_cast<uint64_t>(ttl_ - p.ttl);
          ++stats_.delivered;
        });
      }
    }
  }

  HopRig(const HopRig&) = delete;
  HopRig& operator=(const HopRig&) = delete;

  void Send(dibs::HostId src, dibs::HostId dst) {
    net_.host(src).Send(MakePacket(net_, src, dst, ttl_));
    ++stats_.packets;
  }

  int hosts() const { return net_.num_hosts(); }
  uint64_t sent() const { return stats_.packets; }
  dibs::Simulator& sim() { return sim_; }

  HopStats Finish(double wall_ns) {
    stats_.detours = net_.total_detours();
    stats_.drops = net_.total_drops();
    stats_.ns_per_hop = stats_.hops == 0 ? 0 : wall_ns / static_cast<double>(stats_.hops);
    return stats_;
  }

 private:
  dibs::Simulator sim_;
  dibs::Network net_;
  uint8_t ttl_;
  HopStats stats_;
};

}  // namespace

double SimCoreNs(size_t depth, uint64_t events, int64_t gap_ns, uint64_t seed) {
  dibs::Simulator sim(seed);
  const int64_t span = std::max<int64_t>(2, 2 * static_cast<int64_t>(depth) * gap_ns);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  std::function<void()> fire = [&] {
    sim.Schedule(dibs::Time::Nanos(1 + static_cast<int64_t>(Next(&x) % span)), fire);
  };
  for (size_t i = 0; i < depth; ++i) {
    sim.Schedule(dibs::Time::Nanos(1 + static_cast<int64_t>(Next(&x) % span)), fire);
  }
  const dibs::Time chunk = dibs::Time::Nanos(std::max<int64_t>(1, gap_ns) * 4096);
  const Clock::time_point start = Clock::now();
  while (sim.events_processed() < events) {
    sim.RunUntil(sim.Now() + chunk);
  }
  return NanosSince(start) / static_cast<double>(sim.events_processed());
}

double DropTailNs(size_t capacity, size_t mark_threshold, uint64_t ops) {
  dibs::DropTailQueue q(capacity, mark_threshold);
  Packet p;
  p.size_bytes = 1500;
  p.ect = true;
  for (size_t i = 0; i + 1 < capacity; ++i) {
    q.Enqueue(Packet(p));
  }
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    p.seq = static_cast<uint32_t>(i);
    if (!q.Enqueue(Packet(p))) {
      throw std::runtime_error("drop-tail replay: enqueue refused below capacity");
    }
    q.Dequeue();
  }
  return NanosSince(start) / static_cast<double>(std::max<uint64_t>(1, ops));
}

double PfabricNs(size_t capacity, uint64_t ops, uint64_t seed) {
  dibs::PfabricQueue q(capacity);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  auto packet = [&x] {
    Packet p;
    p.size_bytes = 1500;
    p.priority = static_cast<int64_t>(Next(&x) % 100000) + 1;
    p.flow = static_cast<dibs::FlowId>(p.priority % 40);
    return p;
  };
  for (size_t i = 0; i + 1 < capacity; ++i) {
    q.Enqueue(packet());
  }
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    q.Enqueue(packet());
    q.Dequeue();
  }
  return NanosSince(start) / static_cast<double>(std::max<uint64_t>(1, ops));
}

HopStats FastHop(const dibs::Topology& topology, const dibs::NetworkConfig& config,
                 uint64_t packets) {
  HopRig rig(topology, config);
  const int hosts = rig.hosts();
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < packets; ++i) {
    const auto src = static_cast<dibs::HostId>(i % static_cast<uint64_t>(hosts));
    rig.Send(src, static_cast<dibs::HostId>((src + hosts / 2) % hosts));
    if (i % 32 == 31) {
      rig.sim().Run();
    }
  }
  rig.sim().Run();
  return rig.Finish(NanosSince(start));
}

HopStats DetourHop(const dibs::Topology& topology, const dibs::NetworkConfig& config,
                   int senders, int burst_packets, uint64_t packets) {
  HopRig rig(topology, config);
  const int hosts = rig.hosts();
  senders = std::clamp(senders, 1, hosts - 1);
  burst_packets = std::max(1, burst_packets);
  const Clock::time_point start = Clock::now();
  for (int dst = 0; rig.sent() < packets; dst = (dst + 1) % hosts) {
    for (int s = 1; s <= senders; ++s) {
      const auto src = static_cast<dibs::HostId>((dst + s) % hosts);
      for (int k = 0; k < burst_packets; ++k) {
        rig.Send(src, static_cast<dibs::HostId>(dst));
      }
    }
    rig.sim().Run();
  }
  return rig.Finish(NanosSince(start));
}

double JournalAppendMs(const std::string& path, const std::vector<dibs::RunRecord>& records,
                       int rounds) {
  std::vector<double> ms;
  {
    dibs::RunJournal journal;
    journal.Open(path, "perfbench", records.size(), /*fingerprint=*/0, /*resume=*/false,
                 /*resumed=*/nullptr);
    for (int r = 0; r < rounds; ++r) {
      for (const dibs::RunRecord& rec : records) {
        const Clock::time_point start = Clock::now();
        journal.Append(rec);
        ms.push_back(NanosSince(start) / 1e6);
      }
    }
  }
  std::remove(path.c_str());
  std::nth_element(ms.begin(), ms.begin() + static_cast<ptrdiff_t>(ms.size() / 2), ms.end());
  return ms[ms.size() / 2];
}

double CodecUs(const std::vector<dibs::RunRecord>& records, int rounds) {
  uint64_t trips = 0;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (const dibs::RunRecord& rec : records) {
      dibs::RunRecord back;
      std::string error;
      if (!dibs::DecodeRunRecord(dibs::EncodeRunRecord(rec), &back, &error)) {
        throw std::runtime_error("record codec round trip failed: " + error);
      }
      ++trips;
    }
  }
  return NanosSince(start) / 1e3 / static_cast<double>(std::max<uint64_t>(1, trips));
}

}  // namespace perfbench
