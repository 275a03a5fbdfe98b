// Answer oracle: an in-process ContractDatabase over the same contract
// texts the server receives, evaluated outside every timed window.
//
// Whether a contract permits a query depends only on the two
// specifications, so the oracle registers every contract text once (text id
// == oracle contract id) and answers "which texts permit query q". The
// client side knows which text each server contract id carries (set-up
// registrations in order, then its own Register/Replace acks), so the
// expected answer of any read is a join of that bookkeeping with the
// oracle's permit vector.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/database.h"
#include "inputs.h"
#include "monitor/types.h"
#include "util/result.h"

namespace perfbench {

/// What one client knows about the server's contracts at some clock:
/// set-up contracts are ids [0, preload) with text id == contract id, and
/// `own` maps the ids this client registered to their current text (dead
/// ids stay in `own_ever`).
struct KnownState {
  uint32_t preload = 0;
  std::vector<std::pair<uint32_t, uint32_t>> own_live;  ///< (id, text id)
  std::vector<uint32_t> own_ever;                        ///< sorted
};

/// \brief Compares an answer with the expected one over the ids `state`
/// has authority over (set-up ids and the client's own ids). Ids outside
/// that domain are returned through `foreign` for a later check. Empty
/// string on agreement, else a description of the first difference.
std::string CheckAnswer(const std::vector<char>& permits,
                        const KnownState& state,
                        const std::vector<uint32_t>& actual,
                        std::vector<uint32_t>* foreign);

class Oracle {
 public:
  /// Registers inputs.texts in order (slot == text id).
  static ctdb::Result<std::unique_ptr<Oracle>> Build(const Inputs& inputs,
                                                     size_t threads);

  /// Evaluates every query not yet memoized, on `threads` threads.
  ctdb::Status Prepare(const std::vector<const std::string*>& queries,
                       size_t threads);

  /// Permit vector (indexed by text id) of a prepared query.
  const std::vector<char>& Permits(const std::string& query) const;

 private:
  Oracle() = default;

  std::unique_ptr<ctdb::broker::ContractDatabase> db_;
  size_t texts_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<char>> memo_;
};

/// Verdict deltas per append.
using StreamDeltas = std::vector<std::vector<ctdb::monitor::VerdictDelta>>;

/// \brief The deltas each stream of `streams` (one batch list per stream,
/// every stream opened right after set-up) must report.
///
/// Stream verdicts are decided on the registered automaton, and equivalent
/// automata can decide a finite prefix differently; RegisterBatch with
/// several threads translates into per-worker formula factories and yields
/// structurally different automata than serial registration. So this oracle
/// is not an independent database: it is an in-process broker of the
/// server's kind (same shard count and thread count) that receives the
/// same set-up batches, opened in `dir`.
ctdb::Result<std::vector<StreamDeltas>> ReplayStreams(
    const WorkloadSpec& spec, const Inputs& inputs, const std::string& dir,
    const std::vector<std::vector<ctdb::monitor::EventBatch>>& streams);

}  // namespace perfbench
