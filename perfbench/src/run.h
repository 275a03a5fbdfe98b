// One benchmark run: configuration, outcome, and the two run modes.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 10;
  std::string server_bin;  ///< ctdb_server binary
  std::string work_dir;    ///< scratch directory owned by this run
  std::string trace_out;   ///< traced run: span dump (JSON lines), optional
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wrong answers, broken invariants and infrastructure errors; any entry
  /// makes the run incorrect.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && problems.empty(); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Problem(std::string what);
};

/// The server's metrics registry (kStats JSON) before the main window and
/// after the side probes: the counters of the measured traffic.
struct ServerCounters {
  std::string before;
  std::string after;

  /// Growth of counter `name` between the two dumps; 0 when absent.
  double Delta(std::string_view name) const;
};

/// Timed run against a ctdb_server child: the end-to-end metrics. With
/// `counters`, also dumps the server's counters around the measured traffic.
RunOutcome RunEndToEnd(const RunConfig& config,
                       ServerCounters* counters = nullptr);

/// In-process replay with layer spans: the per-layer metrics.
RunOutcome RunTraced(const RunConfig& config);

}  // namespace perfbench
