#include "perfbench/speed_probe.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr int kPending = 1024;           // heap entries held throughout
constexpr int kEvents = 6000;            // events fired per probe
constexpr size_t kTableSlots = 1 << 15;  // 256 KB of uint64_t

struct Payload {
  uint64_t words[6];
};

struct Event {
  uint64_t time;
  uint32_t slot;
  std::unique_ptr<Payload> payload;
};

bool Later(const Event& a, const Event& b) { return a.time > b.time; }

}  // namespace

double SpeedProbeSeconds() {
  thread_local std::vector<uint64_t> table(kTableSlots);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Event> heap;
  heap.reserve(kPending + 1);
  for (int i = 0; i < kPending; ++i) {
    heap.push_back({next() % 100000, static_cast<uint32_t>(next()), std::make_unique<Payload>()});
    std::push_heap(heap.begin(), heap.end(), Later);
  }

  const auto start = std::chrono::steady_clock::now();
  uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), Later);
    Event e = std::move(heap.back());
    heap.pop_back();
    uint64_t& cell = table[(e.slot * 2654435761ull + e.time) & (kTableSlots - 1)];
    cell += e.time;
    sum += cell + e.payload->words[0];
    auto payload = std::make_unique<Payload>();
    payload->words[0] = sum;
    heap.push_back({e.time + 1 + next() % 20000, static_cast<uint32_t>(next()), std::move(payload)});
    std::push_heap(heap.begin(), heap.end(), Later);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Keeps the loop's result observable so the compiler cannot drop it.
  table[0] += sum;
  return seconds;
}

}  // namespace perfbench
