// A steady-state packet hop allocates nothing.
//
// This binary replaces the global operator new with a counting one (which is
// why it is its own executable). Each case builds a paper fat-tree with
// Scenario's always-on sink subscribed and a receiver on every flow, warms
// it up so every slab, ring and heap reaches its working size, then requires
// zero allocations over as many packets again.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/stats/run_stats.h"
#include "src/topo/builders.h"
#include "src/util/rng.h"
#include "src/util/validation.h"

namespace {

uint64_t g_allocations = 0;

void* Allocate(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dibs {
namespace {

constexpr int kHosts = 128;
constexpr int kWarmupPackets = 4000;
constexpr int kCountedPackets = 4000;

// A paper fat-tree as Scenario wires it for a run without faults, minus
// transports. The packets are raw; each (source, destination) pair is its
// own flow, so ECMP spreads them, and every destination has a receiver for
// every flow.
class HopFixture {
 public:
  explicit HopFixture(const char* policy)
      : net_(&sim_, BuildPaperFatTree(), Config(policy)) {
    net_.Subscribe(&stats_, stats_.kinds());
    for (HostId dst = 0; dst < kHosts; ++dst) {
      for (HostId src = 0; src < kHosts; ++src) {
        net_.host(dst).RegisterFlowReceiver(FlowOf(src, dst), [this](Packet&&) { ++received_; });
      }
    }
  }

  void Send(HostId src, HostId dst) {
    Packet p;
    p.uid = net_.NextPacketUid();
    p.src = src;
    p.dst = dst;
    p.size_bytes = kMtuBytes;
    p.ttl = net_.config().initial_ttl;
    p.flow = FlowOf(src, dst);
    net_.host(src).Send(std::move(p));
  }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  uint64_t received() const { return received_; }

 private:
  static FlowId FlowOf(HostId src, HostId dst) {
    return static_cast<FlowId>(dst) * kHosts + static_cast<FlowId>(src);
  }

  static NetworkConfig Config(const char* policy) {
    NetworkConfig cfg;
    cfg.detour_policy = policy;
    return cfg;
  }

  Simulator sim_{7};
  Network net_;
  RunStats stats_;
  uint64_t received_ = 0;
};

// One packet at a time from host i % 64 to the opposite pod.
void SendSingles(HopFixture& f, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    f.Send(static_cast<HostId>(i % 64), static_cast<HostId>(kHosts - 1 - i % 64));
    f.sim().Run();
  }
}

// One incast burst of kBurstPackets into host 0: 25 rounds, each of 20
// senders in other pods sending 8 packets, all queued at once, then the
// fabric drains. Host 0's downlink takes one packet per serialization time
// while its ToR takes in up to four, so thousands of packets bounce between
// the ToR and the aggregation switches until they fit. The fabric is empty
// after each burst, so a burst started from the same RNG state replays the
// one before it hop for hop.
constexpr HostId kIncastDst = 0;
constexpr int kRounds = 25;
constexpr int kSenders = 20;
constexpr int kPacketsPerSender = 8;
constexpr int kBurstPackets = kRounds * kSenders * kPacketsPerSender;
static_assert(kBurstPackets == kWarmupPackets && kBurstPackets == kCountedPackets);

void SendIncastBurst(HopFixture& f) {
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kSenders; ++k) {
      for (int n = 0; n < kPacketsPerSender; ++n) {
        f.Send(static_cast<HostId>(16 + 5 * k), kIncastDst);
      }
    }
  }
  f.sim().Run();
}

TEST(HopAllocTest, SinglePacketsAcrossTheFabricAllocateNothing) {
  validate::ScopedEnable off(false);  // the invariant checker keeps maps
  HopFixture f("none");
  SendSingles(f, 0, kWarmupPackets);
  const uint64_t before = g_allocations;
  SendSingles(f, kWarmupPackets, kCountedPackets);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(f.received(), static_cast<uint64_t>(kWarmupPackets + kCountedPackets));
}

// The random detours reach different ports and depths from burst to burst,
// so the counted burst replays the warm-up's RNG draws: it then grows no
// ring, slab or heap past what the warm-up did, and any allocation left is
// one the hop itself makes.
TEST(HopAllocTest, DetourHeavyIncastAllocatesNothing) {
  validate::ScopedEnable off(false);
  HopFixture f("random");
  const Rng start = f.sim().rng();
  SendIncastBurst(f);
  const uint64_t detours_before = f.net().total_detours();
  f.sim().rng() = start;
  const uint64_t before = g_allocations;
  SendIncastBurst(f);
  EXPECT_EQ(g_allocations - before, 0u);
  // Far more detours than packets: the detour path is what gets counted.
  EXPECT_GT(f.net().total_detours() - detours_before, 10u * kCountedPackets);
}

}  // namespace
}  // namespace dibs
