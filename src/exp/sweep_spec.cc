#include "src/exp/sweep_spec.h"

#include "src/util/logging.h"

namespace dibs {

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kFailed:
      return "failed";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kCrashed:
      return "crashed";
  }
  return "?";
}

void SweepSummary::Count(const RunRecord& record) {
  switch (record.status) {
    case RunStatus::kOk:
      ++ok;
      break;
    case RunStatus::kFailed:
      ++failed;
      break;
    case RunStatus::kTimeout:
      ++timeout;
      break;
    case RunStatus::kCrashed:
      ++crashed;
      break;
  }
  if (record.attempts > 1) {
    ++retried;
  }
}

RunRecord RecordFor(const RunSpec& run, const std::string& sweep_name) {
  RunRecord rec;
  rec.index = run.index;
  rec.sweep = sweep_name;
  rec.points = run.points;
  rec.replication = run.replication;
  rec.seed = run.config.seed;
  return rec;
}

std::string RunRecord::PointValue(const std::string& axis,
                                  const std::string& fallback) const {
  for (const AxisPoint& p : points) {
    if (p.axis == axis) {
      return p.value;
    }
  }
  return fallback;
}

size_t SweepSpec::RunCount() const {
  size_t n = static_cast<size_t>(replications > 0 ? replications : 1);
  for (const SweepAxis& axis : axes) {
    if (!axis.values.empty()) {
      n *= axis.values.size();
    }
  }
  return n;
}

std::vector<RunSpec> SweepSpec::Expand() const {
  for (const SweepAxis& axis : axes) {
    DIBS_CHECK(!axis.values.empty()) << "axis '" << axis.name << "' has no values";
  }
  const int reps = replications > 0 ? replications : 1;

  std::vector<RunSpec> runs;
  runs.reserve(RunCount());

  // Odometer over the axes; the last axis (and replication below it) spins
  // fastest so expansion order matches nested for-loops in the benches.
  std::vector<size_t> odo(axes.size(), 0);
  while (true) {
    for (int rep = 0; rep < reps; ++rep) {
      RunSpec run;
      run.index = static_cast<int>(runs.size());
      run.replication = rep;
      run.config = base;
      for (size_t a = 0; a < axes.size(); ++a) {
        const SweepAxis::Value& v = axes[a].values[odo[a]];
        if (v.apply) {
          v.apply(run.config);
        }
        run.points.push_back({axes[a].name, v.label});
      }
      // Seed is derived last so a scheme-preset axis that replaces the whole
      // config cannot desynchronize replications from their seeds.
      run.config.seed = seed + static_cast<uint64_t>(rep);
      runs.push_back(std::move(run));
    }
    size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++odo[a] < axes[a].values.size()) {
        break;
      }
      odo[a] = 0;
      if (a == 0) {
        return runs;
      }
    }
    if (axes.empty()) {
      return runs;
    }
  }
}

}  // namespace dibs
