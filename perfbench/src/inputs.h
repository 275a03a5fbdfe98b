// Workload definitions and seeded input generation.
//
// The datasets — contract texts and query pools — are drawn once from a
// fixed dataset seed, like a standard benchmark dataset: the per-query cost
// of random Dwyer-pattern specifications is heavy-tailed, and redrawing the
// dataset per run would make run-to-run spread a property of the draw, not
// of the program. The run's --seed drives everything else: the request
// streams (which query, which op, which contract a lifecycle op targets),
// the event renamings that make cold queries distinct, and the stream event
// batches. The same seed always yields the same inputs. Generation happens
// before any timed window opens.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/types.h"
#include "util/result.h"

namespace perfbench {

enum class Workload { kReadHot, kReadColdSharded, kWriteChurn };

/// Server topology and load shape of one workload.
struct WorkloadSpec {
  Workload workload;
  const char* name;
  size_t shards;          ///< 0 = plain durable server (no --shards flag)
  size_t server_workers;  ///< ctdb_server --workers
  size_t db_threads;      ///< ctdb_server --db-threads
  size_t connections;     ///< closed-loop client connections
  size_t setups;          ///< server set-ups per run (setup_s is the median)
  size_t restarts;        ///< timed restarts per run (recover_s is the fastest)
};

/// Contracts per RegisterBatch request during set-up.
size_t SetupBatchSize(const WorkloadSpec& spec);

/// Nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

enum class Op : uint8_t {
  kQuery,
  kBatch,
  kAsOf,
  kRegister,
  kReplace,
  kUnregister,
  kStreamAppend,
};
inline constexpr size_t kOpKinds = 7;
const char* OpName(Op op);

/// One planned client request. Lifecycle targets and as-of clocks depend on
/// earlier responses, so they are resolved at send time from `pick`.
struct PlannedOp {
  Op op = Op::kQuery;
  std::vector<uint32_t> queries;  ///< query ids (1, or 4 for kBatch)
  uint32_t text = 0;              ///< contract text id (register/replace)
  double pick = 0;                ///< uniform in [0,1): target/clock choice
  ctdb::monitor::EventBatch events;  ///< kStreamAppend
};

struct Inputs {
  /// Contract texts by text id. Ids [0, preload_count) are the set-up
  /// registrations in order (id 0 is the priming contract citing every
  /// event); the rest are the texts lifecycle ops register and replace.
  std::vector<std::string> texts;
  size_t preload_count = 0;
  std::vector<uint32_t> churn;  ///< text ids lifecycle ops draw from

  std::vector<std::string> queries;  ///< query texts by query id
  std::vector<uint32_t> warm;        ///< warmed before timing (hot pools)
  std::vector<uint32_t> probes;      ///< post-restart probe set

  std::vector<std::vector<PlannedOp>> main;  ///< one stream per connection
  /// Fixed-size probe phase after the main window for the op kinds the
  /// workload's main mix does not contain (one connection).
  std::vector<PlannedOp> side;
};

/// Names of the vocabulary events, "p1".."p20".
inline constexpr size_t kVocabulary = 20;

ctdb::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                double seconds);

/// Renames every event token "p<k>" of `text` to "p<perm[k-1]+1>".
std::string RenameEvents(std::string_view text,
                         const std::vector<uint32_t>& perm);

}  // namespace perfbench
