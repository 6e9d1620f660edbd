// Signal safety of the flight recorder's crash path.
//
// The crash handler runs in a process that may have died inside malloc, so
// nothing it reaches may touch the heap. This binary replaces the global
// operator new (which is why it is its own executable): once the heap is
// forbidden, any allocation ends the process with exit status 3. A forked
// child arms the crash dump, forbids the heap and raises SIGSEGV; the parent
// requires death by that signal and a dump equal to the ring's encoding.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "src/trace/flight_recorder.h"
#include "src/trace/trace_codec.h"

namespace {

std::atomic<bool> g_heap_forbidden{false};
constexpr int kAllocatedExitStatus = 3;

void* Allocate(std::size_t n) {
  if (g_heap_forbidden.load()) {
    _exit(kAllocatedExitStatus);
  }
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

// Cycles through every event type, so drops carry a reason too.
TraceEvent EventAt(uint64_t i) {
  TraceEvent e;
  e.at = Time::Micros(static_cast<int64_t>(i) * 3);
  e.type = static_cast<TraceEventType>(i % kNumTraceEventTypes);
  if (e.type == TraceEventType::kDrop) {
    e.drop_reason = static_cast<uint8_t>(i % kNumDropReasons);
  }
  e.node = static_cast<int32_t>(i % 20);
  e.port = static_cast<int32_t>(i % 4);
  e.uid = 1000 + i;
  e.flow = i / 7;
  e.seq = static_cast<uint32_t>(i * 1460);
  e.ttl = static_cast<uint8_t>(255 - i);
  e.queue_depth = static_cast<int32_t>(i % 9);
  return e;
}

TEST(CrashDump, HandlerDumpsTheRingWithoutTouchingTheHeap) {
  FlightRecorder ring(32);
  for (uint64_t i = 1; i <= 100; ++i) {
    ring.OnEvent(EventAt(i));
  }
  const std::string path =
      ::testing::TempDir() + "dibs_crash_dump." + std::to_string(getpid()) + ".jsonl";
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    ArmCrashDump(&ring, path);
    g_heap_forbidden.store(true);
    raise(SIGSEGV);
    _exit(4);  // unreachable unless the handler swallowed the signal
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  const bool allocated = WIFEXITED(status) && WEXITSTATUS(status) == kAllocatedExitStatus;
  ASSERT_FALSE(allocated) << "the crash path allocated";
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with status " << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::vector<std::string> dumped;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    dumped.push_back(line);
  }
  std::remove(path.c_str());
  std::vector<std::string> want;
  for (const TraceEvent& e : ring.Snapshot()) {
    want.push_back(EncodeTraceEvent(e));
  }
  ASSERT_EQ(want.size(), 32u);
  EXPECT_EQ(dumped, want);
}

}  // namespace
}  // namespace dibs
