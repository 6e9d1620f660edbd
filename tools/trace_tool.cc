// trace_tool: command-line analyzer for DIBS trace JSONL (streaming sink
// output or flight-recorder dumps).
//
//   trace_tool summarize <trace.jsonl>            event/packet totals
//   trace_tool journey <uid> <trace.jsonl>        one packet, hop by hop
//   trace_tool loops <trace.jsonl>                packets that revisited a node
//   trace_tool to-perfetto <trace.jsonl> <out>    Chrome/Perfetto JSON export
//
// All input is the fixed-key JSONL written by src/trace/trace_codec; lines
// that fail to decode are counted and skipped (a flight-recorder ring can
// begin mid-journey, which is fine — the journey builder tolerates it).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/trace/journey.h"
#include "src/trace/perfetto.h"
#include "src/trace/trace_codec.h"
#include "src/trace/trace_event.h"
#include "src/util/env.h"

namespace dibs {
namespace {

struct LoadedTrace {
  std::vector<TraceEvent> events;
  uint64_t bad_lines = 0;
};

bool Load(const std::string& path, LoadedTrace* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::cerr << "trace_tool: cannot open '" << path << "'\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    TraceEvent e;
    if (DecodeTraceEvent(line, &e)) {
      out->events.push_back(e);
    } else {
      ++out->bad_lines;
    }
  }
  return true;
}

JourneyBuilder BuildJourneys(const std::vector<TraceEvent>& events) {
  JourneyBuilder journeys;
  for (const TraceEvent& e : events) {
    journeys.OnEvent(e);
  }
  return journeys;
}

void PrintJourney(const PacketJourney& j) {
  std::cout << "packet uid " << j.uid << ": flow " << j.flow << ", host " << j.src
            << " -> host " << j.dst << (j.is_ack ? " (ack)" : "") << "\n  "
            << (j.delivered ? "delivered"
                            : (j.dropped ? std::string("dropped (") +
                                               TraceDropReasonName(j.drop_reason) + ")"
                                         : "in flight / truncated"))
            << ", " << j.detour_count << " detours"
            << (j.HasLoop() ? ", LOOPED" : "") << "\n";
  if (j.sent && (j.delivered || j.dropped)) {
    std::cout << "  in network " << j.TotalTime() << " (queueing " << j.QueueingTime()
              << ", wire " << j.WireTime() << ", detour overhead "
              << j.DetourOverhead() << ")\n";
  }
  std::cout << "  hops (node:port enqueue->dequeue depth-after flags):\n";
  for (const JourneyHop& hop : j.hops) {
    std::cout << "    " << hop.node << ":" << hop.port << "  " << hop.enqueue_at << " -> ";
    if (hop.dequeued) {
      std::cout << hop.dequeue_at;
    } else {
      std::cout << "?";
    }
    std::cout << "  depth " << hop.depth_at_enqueue << (hop.detoured ? "  [detour]" : "")
              << (hop.wire_exited ? "" : (hop.dequeued ? "  [no landing]" : ""))
              << "\n";
  }
}

int Summarize(const LoadedTrace& t) {
  std::map<TraceEventType, uint64_t> by_type;
  std::map<uint8_t, uint64_t> drops_by_reason;
  Time first = Time::Max();
  Time last = Time::Zero();
  for (const TraceEvent& e : t.events) {
    ++by_type[e.type];
    if (e.type == TraceEventType::kDrop) {
      ++drops_by_reason[e.drop_reason];
    }
    first = std::min(first, e.at);
    last = std::max(last, e.at);
  }
  const JourneyBuilder journeys = BuildJourneys(t.events);

  std::cout << "events: " << t.events.size();
  if (t.bad_lines > 0) {
    std::cout << " (+" << t.bad_lines << " undecodable lines skipped)";
  }
  if (!t.events.empty()) {
    std::cout << "  span " << first << " .. " << last;
  }
  std::cout << "\nby type:\n";
  for (const auto& [type, count] : by_type) {
    std::cout << "  " << TraceEventTypeName(type) << ": " << count << "\n";
  }
  if (!drops_by_reason.empty()) {
    std::cout << "drops by reason:\n";
    for (const auto& [reason, count] : drops_by_reason) {
      std::cout << "  " << TraceDropReasonName(reason) << ": " << count << "\n";
    }
  }
  std::cout << "packets: " << journeys.journeys().size()
            << " (delivered " << journeys.delivered_packets() << ", dropped "
            << journeys.dropped_packets() << ", loops " << journeys.loop_packets()
            << ")\n";
  return t.events.empty() ? 1 : 0;
}

int Journey(const LoadedTrace& t, uint64_t uid) {
  const JourneyBuilder journeys = BuildJourneys(t.events);
  const PacketJourney* j = journeys.Find(uid);
  if (j == nullptr) {
    std::cerr << "trace_tool: no events for uid " << uid << "\n";
    return 1;
  }
  PrintJourney(*j);
  return 0;
}

int Loops(const LoadedTrace& t) {
  const JourneyBuilder journeys = BuildJourneys(t.events);
  uint64_t loops = 0;
  for (const auto& [uid, j] : journeys.journeys()) {
    if (!j.HasLoop()) {
      continue;
    }
    ++loops;
    std::cout << "uid " << uid << ": flow " << j.flow << ", " << j.detour_count
              << " detours, nodes";
    for (const JourneyHop& hop : j.hops) {
      std::cout << " " << hop.node;
    }
    std::cout << "\n";
  }
  std::cout << loops << " looped packet(s) of " << journeys.journeys().size() << "\n";
  return 0;
}

int ToPerfetto(const LoadedTrace& t, const std::string& out_path) {
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::cerr << "trace_tool: cannot write '" << out_path << "'\n";
    return 1;
  }
  WritePerfettoTrace(out, t.events, /*node_names=*/{});
  std::cout << "wrote " << t.events.size() << " events to " << out_path
            << " (load in ui.perfetto.dev)\n";
  return 0;
}

int Usage() {
  std::cerr << "usage:\n"
               "  trace_tool summarize <trace.jsonl>\n"
               "  trace_tool journey <uid> <trace.jsonl>\n"
               "  trace_tool loops <trace.jsonl>\n"
               "  trace_tool to-perfetto <trace.jsonl> <out.json>\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string cmd = argv[1];
  LoadedTrace t;
  if (cmd == "summarize" && argc == 3) {
    return Load(argv[2], &t) ? Summarize(t) : 1;
  }
  if (cmd == "journey" && argc == 4) {
    int64_t uid = 0;
    std::string error;
    if (!env::ParseInt(argv[2], 0, INT64_MAX, &uid, &error)) {
      std::cerr << "trace_tool: uid '" << argv[2] << "': " << error << "\n";
      return 2;
    }
    return Load(argv[3], &t) ? Journey(t, static_cast<uint64_t>(uid)) : 1;
  }
  if (cmd == "loops" && argc == 3) {
    return Load(argv[2], &t) ? Loops(t) : 1;
  }
  if (cmd == "to-perfetto" && argc == 4) {
    return Load(argv[2], &t) ? ToPerfetto(t, argv[3]) : 1;
  }
  return Usage();
}

}  // namespace
}  // namespace dibs

int main(int argc, char** argv) { return dibs::Main(argc, argv); }
