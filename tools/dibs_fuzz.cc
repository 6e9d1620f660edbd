// dibs_fuzz: deterministic chaos harness CLI.
//
//   dibs_fuzz run [--seed S] [--cases N] [--corpus DIR] [--no-shrink]
//       generate N scenario specs from master seed S, run the oracle suite
//       on each, shrink failures, and (with --corpus) persist repro entries
//   dibs_fuzz gen --seed S --cases N
//       print the spec stream only (one JSON line per case) — no execution;
//       `dibs_fuzz gen --seed S --cases N | sha256sum` is the determinism
//       fingerprint CI checks
//   dibs_fuzz replay <entry.json | corpus-dir>
//       re-run the recorded failing oracle of one corpus entry, or of every
//       *.json entry in a directory; exits nonzero if any replay fails
//   dibs_fuzz shrink <entry.json>
//       re-shrink an existing entry in place (useful after the shrinker
//       learns new transforms)
//   dibs_fuzz oneshot --spec '<json>' [--oracle NAME]
//       run the oracle suite (or one oracle) against a literal spec
//
// --seed defaults to 1 and --cases to 100. Every run is capped at
// OracleOptions::event_budget simulator events (deterministic — a runaway
// case dies at an exact event count, not a wall-clock race). Everything is
// seed-driven: the same seed and case count produce the same specs,
// verdicts, and shrink trajectories on every machine.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/fuzz_driver.h"
#include "src/chaos/generator.h"
#include "src/chaos/oracles.h"
#include "src/chaos/shrinker.h"
#include "src/chaos/spec_codec.h"
#include "src/util/json.h"
#include "src/util/env.h"

namespace dibs::chaos {
namespace {

void Usage() {
  std::cerr
      << "usage: dibs_fuzz <command> [options]\n"
      << "  run     [--seed S] [--cases N] [--corpus DIR] [--no-shrink]\n"
      << "          [--max-failures K]   fuzz: generate, check, shrink\n"
      << "  gen     [--seed S] [--cases N]   print the spec stream, no execution\n"
      << "  replay  <entry.json | dir>       re-run recorded failing oracle(s)\n"
      << "  shrink  <entry.json>             re-shrink an entry in place\n"
      << "  oneshot --spec '<json>' [--oracle NAME]\n";
}

// Accepted ranges of the numeric flags.
constexpr int64_t kMaxSeed = INT64_MAX;
constexpr int64_t kMaxCases = 1000000;

// Flag parsing: --key value pairs after the subcommand; positional args
// collect in order. Unknown flags and junk or out-of-range numbers are
// errors (a typo silently ignored would fuzz the wrong stream).
struct Args {
  std::vector<std::string> positional;
  bool ok = true;

  uint64_t seed = 1;
  int cases = 100;
  std::string corpus_dir;
  std::string spec_json;
  std::string oracle_name;
  bool shrink = true;
  int max_failures = 5;
};

Args Parse(int argc, char** argv) {
  Args args;
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "dibs_fuzz: " << flag << " needs a value\n";
      args.ok = false;
      return nullptr;
    }
    return argv[++i];
  };
  // Numeric flags go through env::Int's digit-and-range rule, so "--cases
  // 1O0" fails the way a junk environment knob does.
  auto int_value = [&](int& i, const char* flag, int64_t min, int64_t max,
                       int64_t* out) {
    const char* v = need_value(i, flag);
    if (v == nullptr) {
      return false;
    }
    std::string reason;
    if (!env::ParseInt(v, min, max, out, &reason)) {
      std::cerr << "dibs_fuzz: " << flag << " '" << v << "': " << reason << "\n";
      args.ok = false;
      return false;
    }
    return true;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    if (arg == "--seed") {
      if (int_value(i, "--seed", 0, kMaxSeed, &n)) args.seed = static_cast<uint64_t>(n);
    } else if (arg == "--cases") {
      if (int_value(i, "--cases", 1, kMaxCases, &n)) args.cases = static_cast<int>(n);
    } else if (arg == "--corpus") {
      if (const char* v = need_value(i, "--corpus")) args.corpus_dir = v;
    } else if (arg == "--spec") {
      if (const char* v = need_value(i, "--spec")) args.spec_json = v;
    } else if (arg == "--oracle") {
      if (const char* v = need_value(i, "--oracle")) args.oracle_name = v;
    } else if (arg == "--max-failures") {
      if (int_value(i, "--max-failures", 1, kMaxCases, &n)) {
        args.max_failures = static_cast<int>(n);
      }
    } else if (arg == "--no-shrink") {
      args.shrink = false;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::cerr << "dibs_fuzz: unknown flag '" << arg << "'\n";
      args.ok = false;
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int CmdRun(const Args& args) {
  FuzzOptions options;
  options.seed = args.seed;
  options.cases = args.cases;
  options.shrink = args.shrink;
  options.corpus_dir = args.corpus_dir;
  options.max_failures = args.max_failures;
  const FuzzReport report = RunFuzz(options, std::cerr);
  std::cout << "dibs_fuzz: " << report.cases_run << " cases, "
            << report.findings.size() << " failure(s)\n";
  return report.ok() ? 0 : 1;
}

int CmdGen(const Args& args) {
  for (int i = 0; i < args.cases; ++i) {
    std::cout << EncodeChaosSpec(GenerateSpec(args.seed, i)) << "\n";
  }
  return 0;
}

int ReplayOne(const std::string& path, const OracleOptions& options) {
  const CorpusEntry entry = ReadCorpusEntry(path);
  const OracleVerdict verdict = ReplayEntry(entry, options);
  if (verdict.passed) {
    std::cout << "PASS " << path << " (oracle '" << entry.oracle << "')\n";
    return 0;
  }
  std::cout << "FAIL " << path << " (oracle '" << verdict.oracle
            << "'): " << verdict.detail << "\n";
  return 1;
}

int CmdReplay(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "dibs_fuzz replay: need an entry file or corpus directory\n";
    return 2;
  }
  const OracleOptions options{};
  int failures = 0;
  for (const std::string& target : args.positional) {
    const std::vector<std::string> entries = ListCorpus(target);
    if (entries.empty()) {
      failures += ReplayOne(target, options);  // single file
    } else {
      for (const std::string& path : entries) {
        failures += ReplayOne(path, options);
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

int CmdShrink(const Args& args) {
  if (args.positional.size() != 1) {
    std::cerr << "dibs_fuzz shrink: need exactly one entry file\n";
    return 2;
  }
  const std::string& path = args.positional.front();
  CorpusEntry entry = ReadCorpusEntry(path);
  const OracleOptions options{};
  const OracleVerdict now = CheckOracle(entry.spec, entry.oracle, options);
  if (now.passed) {
    std::cerr << "dibs_fuzz shrink: " << path << " no longer fails '"
              << entry.oracle << "' — nothing to shrink\n";
    return 1;
  }
  const double before = entry.spec.Size();
  const ShrinkResult result = Shrink(entry.spec, entry.oracle, options);
  entry.spec = result.minimal;
  entry.detail = now.detail;
  std::ofstream out(path, std::ios::trunc);
  out << EncodeCorpusEntry(entry);
  std::cout << "dibs_fuzz: shrunk " << path << " from size " << before
            << " to " << entry.spec.Size() << " in " << result.evaluations
            << " evaluations\n";
  return 0;
}

int CmdOneshot(const Args& args) {
  if (args.spec_json.empty()) {
    std::cerr << "dibs_fuzz oneshot: need --spec '<json>'\n";
    return 2;
  }
  const ChaosSpec spec = DecodeChaosSpec(args.spec_json);
  const OracleOptions options{};
  const OracleVerdict verdict =
      args.oracle_name.empty()
          ? CheckSpec(spec, options, /*force_heavy=*/true)
          : CheckOracle(spec, args.oracle_name, options);
  if (verdict.passed) {
    std::cout << "PASS\n";
    return 0;
  }
  std::cout << "FAIL '" << verdict.oracle << "': " << verdict.detail << "\n";
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args = Parse(argc - 2, argv + 2);
  if (!args.ok) {
    return 2;
  }
  try {
    if (command == "run") return CmdRun(args);
    if (command == "gen") return CmdGen(args);
    if (command == "replay") return CmdReplay(args);
    if (command == "shrink") return CmdShrink(args);
    if (command == "oneshot") return CmdOneshot(args);
  } catch (const std::exception& e) {
    std::cerr << "dibs_fuzz: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "dibs_fuzz: unknown command '" << command << "'\n";
  Usage();
  return 2;
}

}  // namespace
}  // namespace dibs::chaos

int main(int argc, char** argv) { return dibs::chaos::Main(argc, argv); }
