// perfbench_driver: runs one workload of the ctdb benchmark and prints the
// result as the last stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}
//
//   perfbench_driver --workload=read_hot --seed=1 --seconds=10 --trace=0
//                    --server-bin=PATH --work-dir=DIR [--trace-out=PATH]
//
// --trace=0 is the timed run against a ctdb_server child (end-to-end
// metrics); --trace=1 is the in-process traced replay plus a shortened
// timed run for the server's counters (per-layer metrics).
// Exits 1 when any answer was wrong or any operation failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "run.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=NAME --seed=N "
               "--seconds=S --trace=0|1\n"
               "                        --server-bin=PATH --work-dir=DIR "
               "[--trace-out=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string value;
  std::string workload;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &value)) {
      workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      config.seconds = std::atof(value.c_str());
    } else if (Flag(argv[i], "--trace", &value)) {
      trace = value == "1";
    } else if (Flag(argv[i], "--server-bin", &value)) {
      config.server_bin = value;
    } else if (Flag(argv[i], "--work-dir", &value)) {
      config.work_dir = value;
    } else if (Flag(argv[i], "--trace-out", &value)) {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  config.spec = perfbench::FindWorkload(workload);
  if (config.spec == nullptr || config.seconds <= 0 || config.work_dir.empty() ||
      config.server_bin.empty()) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  perfbench::RunOutcome outcome = trace ? perfbench::RunTraced(config)
                                        : perfbench::RunEndToEnd(config);
  if (outcome.attempted == 0) outcome.Problem("no operation was attempted");

  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.Problem(m.name + " is not a finite number");
      continue;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted) +
          ", \"failed\": " + std::to_string(outcome.failed) +
          ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return outcome.correct() ? 0 : 1;
}
