#include "shard/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "automata/ops.h"
#include "base/vocabulary.h"
#include "broker/contract.h"
#include "ltl/formula.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "wal/segment.h"

namespace ctdb::shard {

namespace {

/// Prefixes a shard-local error with the shard directory, so "checksum
/// mismatch" becomes "shard-002: checksum mismatch".
Status AnnotateShard(size_t shard, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), ShardDirName(shard) + ": " + status.message());
}

/// True when `dir` looks like an unsharded DurableDatabase directory —
/// i.e. it already holds WAL segments at the top level. Opening such a
/// directory as sharded would shadow the existing data, so Open refuses.
bool LooksLikeUnshardedData(const std::string& dir) {
  auto entries = util::ListDir(dir);
  if (!entries.ok()) return false;
  for (const std::string& name : *entries) {
    uint64_t index = 0;
    if (wal::ParseSegmentFileName(name, &index)) return true;
  }
  return false;
}

/// `bits` with every set bit `e` moved to `to[e]`.
Bitset RenameBits(const Bitset& bits, const std::vector<EventId>& to) {
  Bitset out;
  for (size_t e : bits.Indices()) {
    if (to[e] >= out.size()) out.Resize(to[e] + 1);
    out.Set(to[e]);
  }
  return out;
}

/// \brief Converts event ids between the router's vocabulary (shard 0's
/// snapshot, which the broadcast keeps the union) and one shard's.
///
/// Shards number events in the order they interned them, which diverges
/// once RegisterBatch commits sub-batches in parallel or a shard recovers
/// from its own log. Ids are matched by event name.
class EventRenaming {
 public:
  /// Maps every event in `cited` (router ids). A name the shard has not
  /// interned maps to an id past the shard's vocabulary, distinct per name
  /// — an event no contract on that shard cites, which is exactly what the
  /// name means there.
  EventRenaming(const Vocabulary& router, const Vocabulary& shard,
                const Bitset& cited)
      : router_(router), shard_(shard), to_shard_(cited.size()) {
    for (size_t e : cited.Indices()) {
      auto id = shard.Find(router.Name(static_cast<EventId>(e)));
      to_shard_[e] = id.ok() ? *id : static_cast<EventId>(shard.size() + e);
      identity_ = identity_ && to_shard_[e] == e;
    }
  }

  /// True when the shard gives every cited event the router's id: the
  /// compiled queries can be evaluated there unchanged.
  bool identity() const { return identity_; }

  /// `query` in the shard's ids.
  broker::CompiledQuery ToShard(const broker::CompiledQuery& query) const {
    broker::CompiledQuery out;
    out.automaton = std::make_shared<const automata::Buchi>(
        automata::RenameEvents(*query.automaton, to_shard_));
    if (query.condition.has_value()) {
      out.condition = query.condition->RenameEvents(to_shard_);
    }
    out.events = RenameBits(query.events, to_shard_);
    out.stats = query.stats;
    return out;
  }

  /// Renames `word`, a witness in the shard's ids, into the router's. The
  /// witness may cite any event of the matched contract, so this maps the
  /// shard's whole vocabulary (built on first use). Events past it are the
  /// unknown names ToShard invented; a shard event the router's snapshot
  /// does not know yet (a registration racing its broadcast) gets an id
  /// past the router's vocabulary.
  void ToRouter(LassoWord* word) {
    if (to_router_.empty()) {
      const size_t widest = shard_.size() + to_shard_.size();
      to_router_.resize(widest);
      for (size_t s = 0; s < widest; ++s) {
        if (s >= shard_.size()) {
          to_router_[s] = static_cast<EventId>(s - shard_.size());
          continue;
        }
        auto id = router_.Find(shard_.Name(static_cast<EventId>(s)));
        to_router_[s] =
            id.ok() ? *id : static_cast<EventId>(router_.size() + s);
      }
    }
    for (Snapshot& snapshot : word->prefix) {
      snapshot = RenameBits(snapshot, to_router_);
    }
    for (Snapshot& snapshot : word->cycle) {
      snapshot = RenameBits(snapshot, to_router_);
    }
  }

 private:
  const Vocabulary& router_;
  const Vocabulary& shard_;
  std::vector<EventId> to_shard_;   ///< indexed by router id
  std::vector<EventId> to_router_;  ///< indexed by shard id, lazily built
  bool identity_ = true;
};

/// True when `shard` numbers every event it knows as `router` does, so its
/// witnesses need no renaming.
bool SameIds(const Vocabulary& router, const Vocabulary& shard) {
  return &router == &shard ||
         (shard.size() <= router.size() &&
          std::equal(shard.names().begin(), shard.names().end(),
                     router.names().begin()));
}

}  // namespace

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    std::string dir, const wal::DurabilityOptions& durability,
    const broker::DatabaseOptions& options) {
  Timer open_timer;
  CTDB_RETURN_NOT_OK(util::CreateDirIfMissing(dir));

  // Establish the topology: adopt the manifest when one exists (and verify
  // the caller agrees), otherwise stamp a fresh one.
  Manifest manifest;
  auto existing = ReadManifest(dir);
  if (existing.ok()) {
    manifest = std::move(*existing);
    if (options.shards != 0 && options.shards != manifest.shards) {
      return Status::InvalidArgument(StringFormat(
          "sharded database at %s has %u shards, but %zu were requested; "
          "resharding is not supported — open with the recorded topology "
          "(or shards=0 to adopt it)",
          dir.c_str(), manifest.shards, options.shards));
    }
  } else if (existing.status().code() == StatusCode::kNotFound) {
    if (LooksLikeUnshardedData(dir)) {
      return Status::InvalidArgument(
          dir + ": holds an unsharded database (WAL segments present but no " +
          kManifestFileName + "); refusing to shard over it");
    }
    if (options.shards > 1024) {
      return Status::InvalidArgument("shards must be <= 1024");
    }
    manifest.shards =
        static_cast<uint32_t>(options.shards == 0 ? 1 : options.shards);
    for (size_t k = 0; k < manifest.shards; ++k) {
      manifest.dirs.push_back(ShardDirName(k));
    }
    CTDB_RETURN_NOT_OK(WriteManifest(dir, manifest));
  } else {
    return existing.status();
  }

  const size_t n = manifest.shards;
  broker::DatabaseOptions shard_options = options;
  shard_options.shards = 1;  // each shard is a plain DurableDatabase
  // The router compiles every query once, through the only translation
  // cache (see Query); shard-level caches would sit unused.
  shard_options.translation_cache_capacity = 0;

  // Router pool: one participant per shard up to the hardware, remembering
  // that the calling thread claims iterations too.
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::max<size_t>(1, std::min(n, hw) - 1);
  auto pool = n > 1 ? std::make_unique<util::ThreadPool>(workers) : nullptr;

  // Recover every shard in parallel; wall time is the slowest shard.
  std::vector<std::unique_ptr<broker::DurableDatabase>> shards(n);
  std::vector<Status> open_status(n, Status::OK());
  auto open_one = [&](size_t k) {
    auto opened = broker::DurableDatabase::Open(
        dir + "/" + manifest.dirs[k], durability, shard_options);
    if (!opened.ok()) {
      open_status[k] = AnnotateShard(k, opened.status());
      return open_status[k];
    }
    shards[k] = std::move(*opened);
    return Status::OK();
  };
  if (pool) {
    // Ignore ParallelFor's first-error shortcut: report the lowest shard's
    // error deterministically, whatever the interleaving.
    (void)pool->ParallelFor(0, n, open_one);
  } else {
    for (size_t k = 0; k < n; ++k) {
      if (!shards[k]) (void)open_one(k);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    if (!shards[k] && open_status[k].ok()) (void)open_one(k);
    CTDB_RETURN_NOT_OK(open_status[k]);
  }

  ShardedRecoveryStats stats;
  stats.shards = n;
  for (size_t k = 0; k < n; ++k) {
    const broker::RecoveryStats& rs = shards[k]->recovery_stats();
    stats.replay_ms_sum += rs.replay_ms + rs.checkpoint_load_ms;
    stats.records_replayed += rs.records_replayed;
    stats.bytes_scanned += rs.bytes_scanned;
    stats.tail_truncated = stats.tail_truncated || rs.tail_truncated;
    stats.per_shard.push_back(rs);
  }

  // Re-broadcast the union vocabulary: InternEvent is not WAL-logged, so a
  // recovered shard only knows the events its own contracts cite.
  if (n > 1) {
    std::vector<std::string> union_names;
    for (size_t k = 0; k < n; ++k) {
      const auto snapshot = shards[k]->Snapshot();
      for (const std::string& name : snapshot->vocabulary().names()) {
        union_names.push_back(name);
      }
    }
    for (size_t k = 0; k < n; ++k) {
      for (const std::string& name : union_names) {
        CTDB_RETURN_NOT_OK(
            AnnotateShard(k, shards[k]->InternEvent(name).status()));
      }
    }
  }
  stats.wall_ms = open_timer.ElapsedMillis();

  return std::unique_ptr<ShardedDatabase>(
      new ShardedDatabase(std::move(dir), options, std::move(shards),
                          std::move(pool), std::move(stats)));
}

ShardedDatabase::ShardedDatabase(
    std::string dir, const broker::DatabaseOptions& options,
    std::vector<std::unique_ptr<broker::DurableDatabase>> shards,
    std::unique_ptr<util::ThreadPool> pool, ShardedRecoveryStats recovery_stats)
    : dir_(std::move(dir)),
      shards_(std::move(shards)),
      pool_(std::move(pool)),
      recovery_stats_(std::move(recovery_stats)),
      translation_cache_(std::make_unique<translate::TranslationCache>(
          options.translation_cache_capacity)) {
  slots_.resize(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    slots_[k] = shards_[k]->slot_count();
    // Shard clocks are sparse samples of one global clock; the max is the
    // latest tick any shard acknowledged.
    clock_ = std::max(clock_, shards_[k]->last_sequence());
  }
#if CTDB_OBS
  // Counters are cached at construction, so a runtime-disabled registry
  // stays empty (the documented CTDB_OBS=0 contract); enabling obs after
  // construction leaves the per-shard counters unrecorded by design.
  if (obs::Enabled()) {
    register_counters_.resize(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      register_counters_[k] = obs::MetricsRegistry::Default()->GetCounter(
          StringFormat("shard.%03zu.registrations", k));
    }
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Add(static_cast<int64_t>(shards_.size()));
  }
#endif
}

ShardedDatabase::~ShardedDatabase() {
  (void)Close();
#if CTDB_OBS
  if (!register_counters_.empty()) {
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Sub(static_cast<int64_t>(shards_.size()));
  }
#endif
}

size_t ShardedDatabase::RouteShardLocked() const {
  size_t best = 0;
  for (size_t k = 1; k < shards_.size(); ++k) {
    if (NextGlobalIdOf(k) < NextGlobalIdOf(best)) best = k;
  }
  return best;
}

Status ShardedDatabase::BroadcastEventsLocked(size_t from, uint32_t local_id) {
  if (shards_.size() == 1) return Status::OK();
  const auto snapshot = shards_[from]->Snapshot();
  const broker::Contract& contract = snapshot->contract(local_id);
  const Vocabulary& vocab = snapshot->vocabulary();
  for (size_t event : contract.events.Indices()) {
    const std::string& name = vocab.Name(static_cast<EventId>(event));
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (k == from) continue;
      CTDB_RETURN_NOT_OK(
          AnnotateShard(k, shards_[k]->InternEvent(name).status()));
    }
  }
  return Status::OK();
}

Result<uint32_t> ShardedDatabase::Register(std::string name,
                                           std::string_view ltl_text,
                                           broker::RegistrationStats* stats) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t k = RouteShardLocked();
  const uint64_t at = clock_ + 1;
  auto local = shards_[k]->RegisterWithClock(std::move(name), ltl_text, stats,
                                             at);
  // Resync even on failure: a WAL-append error still applied the mutation
  // (and its clock) in the shard's memory, and the router must not hand the
  // same tick out twice.
  clock_ = std::max(clock_, shards_[k]->last_sequence());
  CTDB_RETURN_NOT_OK(local.status());
  const uint32_t local_id = *local;
  // The shard assigns local ids densely from its own slot count; the route
  // table tracked that count, so the striped global id is exactly the next
  // one.
  if (local_id != slots_[k]) {
    return Status::Internal(StringFormat(
        "shard %zu assigned local id %u, router expected %llu", k, local_id,
        static_cast<unsigned long long>(slots_[k])));
  }
  slots_[k] += 1;
#if CTDB_OBS
  if (obs::Enabled() && !register_counters_.empty()) {
    register_counters_[k]->Add();
  }
#endif
  CTDB_RETURN_NOT_OK(BroadcastEventsLocked(k, local_id));
  return GlobalId(k, local_id, shards_.size());
}

Result<std::vector<uint32_t>> ShardedDatabase::RegisterBatch(
    const std::vector<broker::ContractDatabase::BatchEntry>& entries) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  if (entries.empty()) return std::vector<uint32_t>{};

  // Pre-validate every entry with a scratch parser so a malformed entry
  // fails the whole batch before anything touches any shard — the same
  // all-or-nothing surface as the unsharded RegisterBatch.
  {
    ltl::FormulaFactory scratch_factory;
    Vocabulary scratch_vocab;
    for (const auto& entry : entries) {
      CTDB_RETURN_NOT_OK(
          ltl::Parse(entry.ltl_text, &scratch_factory, &scratch_vocab)
              .status());
    }
  }

  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t n = shards_.size();

  // Assign global ids and clocks up front (round-robin over the
  // lowest-next-id shards), grouping entries into per-shard sub-batches.
  // Entry i gets global clock clock_ + 1 + i, so the batch occupies the
  // same clock range as the equivalent sequence of single registrations.
  std::vector<uint32_t> global_ids(entries.size());
  std::vector<std::vector<broker::ContractDatabase::BatchEntry>> sub(n);
  std::vector<std::vector<size_t>> sub_origin(n);  // entry index per slot
  std::vector<std::vector<uint64_t>> sub_clocks(n);
  std::vector<uint64_t> planned = slots_;
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t best = 0;
    for (size_t k = 1; k < n; ++k) {
      if (planned[k] * n + k < planned[best] * n + best) best = k;
    }
    global_ids[i] =
        GlobalId(best, static_cast<uint32_t>(planned[best]), n);
    planned[best] += 1;
    sub[best].push_back(entries[i]);
    sub_origin[best].push_back(i);
    sub_clocks[best].push_back(clock_ + 1 + i);
  }

  // Commit the sub-batches, each atomic within its shard.
  std::vector<Status> shard_status(n, Status::OK());
  auto commit_one = [&](size_t k) {
    if (sub[k].empty()) return Status::OK();
    auto ids = shards_[k]->RegisterBatchWithClocks(sub[k], &sub_clocks[k]);
    if (!ids.ok()) {
      shard_status[k] = AnnotateShard(k, ids.status());
      return shard_status[k];
    }
    for (size_t slot = 0; slot < ids->size(); ++slot) {
      if ((*ids)[slot] !=
          LocalId(global_ids[sub_origin[k][slot]], n)) {
        shard_status[k] = Status::Internal(
            AnnotateShard(k, Status::Internal("local id out of step"))
                .message());
        return shard_status[k];
      }
    }
    return Status::OK();
  };
  Status first;
  if (pool_) {
    (void)pool_->ParallelFor(0, n, commit_one);
    // ParallelFor may skip shards after the first error; run the skipped
    // ones so the commit is as complete as it can be, then report the
    // lowest-numbered failure deterministically.
    for (size_t k = 0; k < n; ++k) {
      if (!sub[k].empty() && shard_status[k].ok() &&
          shards_[k]->slot_count() < planned[k]) {
        (void)commit_one(k);
      }
      if (first.ok() && !shard_status[k].ok()) first = shard_status[k];
    }
  } else {
    first = commit_one(0);
  }
  // Resync slots and the clock from the shards: on a partial failure some
  // sub-batches committed (and consumed their planned clocks), and the
  // router view must cover them.
  for (size_t k = 0; k < n; ++k) {
    slots_[k] = shards_[k]->slot_count();
    clock_ = std::max(clock_, shards_[k]->last_sequence());
  }
  CTDB_RETURN_NOT_OK(first);

  for (size_t k = 0; k < n; ++k) {
#if CTDB_OBS
    if (obs::Enabled() && !register_counters_.empty() && !sub[k].empty()) {
      register_counters_[k]->Add(sub[k].size());
    }
#endif
    for (size_t slot = 0; slot < sub[k].size(); ++slot) {
      CTDB_RETURN_NOT_OK(BroadcastEventsLocked(
          k, LocalId(global_ids[sub_origin[k][slot]], n)));
    }
  }
  return global_ids;
}

Result<uint64_t> ShardedDatabase::Unregister(uint32_t id) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t n = shards_.size();
  const size_t k = ShardOfId(id, n);
  // Surface the global id in the not-found case: the shard only knows the
  // local id, and an out-of-range local would read as a different contract.
  if (LocalId(id, n) >= slots_[k]) {
    return Status::NotFound("contract " + std::to_string(id) +
                            " is not live");
  }
  const uint64_t at = clock_ + 1;
  auto result = shards_[k]->UnregisterWithClock(LocalId(id, n), at);
  // Resync even on failure: a WAL-append error still ticked the shard.
  clock_ = std::max(clock_, shards_[k]->last_sequence());
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("contract " + std::to_string(id) +
                              " is not live");
    }
    return AnnotateShard(k, result.status());
  }
  CTDB_OBS_COUNT("shard.unregisters", 1);
  return at;
}

Result<uint64_t> ShardedDatabase::Replace(uint32_t id,
                                          std::string_view ltl_text,
                                          broker::RegistrationStats* stats) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t n = shards_.size();
  const size_t k = ShardOfId(id, n);
  if (LocalId(id, n) >= slots_[k]) {
    return Status::NotFound("contract " + std::to_string(id) +
                            " is not live");
  }
  const uint64_t at = clock_ + 1;
  auto result = shards_[k]->ReplaceWithClock(LocalId(id, n), ltl_text, stats,
                                             at);
  // Resync even on failure: a WAL-append error still ticked the shard.
  clock_ = std::max(clock_, shards_[k]->last_sequence());
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("contract " + std::to_string(id) +
                              " is not live");
    }
    return result.status();  // parse/translate errors keep their wording
  }
  // The replacement text may cite brand-new events; keep the vocabularies
  // in sync exactly as Register does.
  CTDB_RETURN_NOT_OK(BroadcastEventsLocked(k, LocalId(id, n)));
  CTDB_OBS_COUNT("shard.replaces", 1);
  return at;
}

std::vector<std::shared_ptr<const broker::DatabaseSnapshot>>
ShardedDatabase::PinSnapshots() const {
  std::vector<std::shared_ptr<const broker::DatabaseSnapshot>> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) snapshots.push_back(shard->Snapshot());
  return snapshots;
}

broker::CompileOptions ShardedDatabase::CompileOptionsFor(
    const Snapshots& snapshots, const broker::QueryOptions& options) {
  // Extract the condition when any shard will consult its prefilter (an
  // as_of clock can be history on one shard and latest on another).
  broker::CompileOptions compile = snapshots[0]->CompileOptionsFor(options);
  for (const auto& snapshot : snapshots) {
    compile.condition =
        compile.condition || snapshot->CompileOptionsFor(options).condition;
  }
  return compile;
}

Result<broker::QueryResult> ShardedDatabase::Query(
    std::string_view ltl_text, const broker::QueryOptions& options) const {
  CTDB_RETURN_NOT_OK(CheckOpen());
  Timer wall;
  const Snapshots snapshots = PinSnapshots();
  ltl::FormulaFactory factory;
  CTDB_ASSIGN_OR_RETURN(
      const ltl::Formula* formula,
      ltl::Parse(ltl_text, &factory, snapshots[0]->vocabulary()));
  std::vector<broker::CompiledQuery> compiled(1);
  CTDB_ASSIGN_OR_RETURN(
      compiled[0],
      broker::CompileQuery(formula, &factory, translation_cache_.get(),
                           CompileOptionsFor(snapshots, options)));
  CTDB_ASSIGN_OR_RETURN(std::vector<broker::QueryResult> results,
                        Scatter(compiled, snapshots, options, wall));
  return std::move(results[0]);
}

Result<std::vector<broker::QueryResult>> ShardedDatabase::QueryBatch(
    const std::vector<std::string>& queries,
    const broker::QueryOptions& options) const {
  CTDB_RETURN_NOT_OK(CheckOpen());
  Timer wall;
  const Snapshots snapshots = PinSnapshots();
  CTDB_ASSIGN_OR_RETURN(
      const std::vector<broker::CompiledQuery> compiled,
      broker::CompileQueries(queries, snapshots[0]->vocabulary(),
                             translation_cache_.get(),
                             CompileOptionsFor(snapshots, options),
                             pool_.get(),
                             pool_ ? pool_->thread_count() + 1 : 1));
  return Scatter(compiled, snapshots, options, wall);
}

Result<std::vector<broker::QueryResult>> ShardedDatabase::Scatter(
    const std::vector<broker::CompiledQuery>& compiled,
    const Snapshots& snapshots, const broker::QueryOptions& options,
    const Timer& wall) const {
  const size_t n = shards_.size();
  const Vocabulary& vocab = snapshots[0]->vocabulary();
  Bitset cited;
  for (const broker::CompiledQuery& query : compiled) cited |= query.events;

  // Scatter: every shard evaluates the whole batch against its pinned
  // snapshot, in its own event ids.
  std::vector<Result<std::vector<broker::QueryResult>>> per_shard(
      n, Status::Internal("shard not reached"));
  auto run_one = [&](size_t k) {
    const broker::DatabaseSnapshot& snapshot = *snapshots[k];
    const broker::ContractDatabase& db = shards_[k]->database();
    EventRenaming renaming(vocab, snapshot.vocabulary(), cited);
    if (renaming.identity()) {
      per_shard[k] = db.Evaluate(snapshot, compiled, options);
    } else {
      std::vector<broker::CompiledQuery> local;
      local.reserve(compiled.size());
      for (const auto& query : compiled) {
        local.push_back(renaming.ToShard(query));
      }
      per_shard[k] = db.Evaluate(snapshot, local, options);
    }
    if (per_shard[k].ok() && options.collect_witnesses &&
        !SameIds(vocab, snapshot.vocabulary())) {
      for (broker::QueryResult& result : *per_shard[k]) {
        for (LassoWord& witness : result.witnesses) {
          renaming.ToRouter(&witness);
        }
      }
    }
    return Status::OK();  // errors merge below, in shard order
  };
  if (pool_ && n > 1) {
    CTDB_RETURN_NOT_OK(pool_->ParallelFor(0, n, run_one));
  } else {
    for (size_t k = 0; k < n; ++k) (void)run_one(k);
  }
  for (size_t k = 0; k < n; ++k) {
    CTDB_RETURN_NOT_OK(per_shard[k].status());
  }
  const double wall_ms = wall.ElapsedMillis();

  // Gather: merge each query's shard results by ascending global id.
  std::vector<broker::QueryResult> merged(compiled.size());
  for (size_t q = 0; q < compiled.size(); ++q) {
    broker::QueryResult& out = merged[q];
    // k-way merge by global id; shard streams are already sorted by local
    // id, and global = local * n + k preserves that order within a shard.
    std::vector<size_t> cursor(n, 0);
    size_t total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += (*per_shard[k])[q].matches.size();
    }
    out.matches.reserve(total);
    if (options.collect_witnesses) out.witnesses.reserve(total);
    while (out.matches.size() < total) {
      size_t best = n;
      uint64_t best_id = 0;
      for (size_t k = 0; k < n; ++k) {
        const auto& r = (*per_shard[k])[q];
        if (cursor[k] >= r.matches.size()) continue;
        const uint64_t gid = GlobalId(k, r.matches[cursor[k]], n);
        if (best == n || gid < best_id) {
          best = k;
          best_id = gid;
        }
      }
      auto& r = (*per_shard[best])[q];
      out.matches.push_back(static_cast<uint32_t>(best_id));
      if (options.collect_witnesses) {
        out.witnesses.push_back(std::move(r.witnesses[cursor[best]]));
      }
      cursor[best] += 1;
    }
    // Stats: translation (and condition extraction) ran once, here, so they
    // are the router's compile stats; sizes and counts sum; the prefilter
    // lookups ran in parallel and cost their slowest shard; permission is
    // summed CPU time; total is the router's wall clock for the call.
    broker::QueryStats& m = out.stats;
    m = compiled[q].stats;
    for (size_t k = 0; k < n; ++k) {
      const broker::QueryStats& s = (*per_shard[k])[q].stats;
      m.database_size += s.database_size;
      m.candidates += s.candidates;
      m.matches += s.matches;
      m.prefilter_ms = std::max(m.prefilter_ms, s.prefilter_ms);
      m.permission_ms += s.permission_ms;
      m.permission.MergeFrom(s.permission);
    }
    m.total_ms = wall_ms;
    broker::RecordQueryStats(m);
  }
  CTDB_OBS_COUNT("shard.queries", compiled.size());
  return merged;
}

Result<monitor::StreamOpenInfo> ShardedDatabase::StreamOpen(
    std::string name, const monitor::StreamOptions& options) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  // One global pin for every shard. Per-shard clocks are sparse but
  // mutually comparable (router-assigned), so a shard whose clock is behind
  // the pin clamps to its latest state — correct, it had no mutations in
  // between (same argument as QueryAsOf, DESIGN.md §14).
  uint64_t pin = options.as_of;
  if (pin == 0) {
    std::lock_guard<std::mutex> lock(route_mutex_);
    pin = clock_;
  }
  monitor::StreamOptions shard_options = options;
  shard_options.as_of = pin;
  monitor::StreamOpenInfo info;
  info.clock = pin;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto opened = shards_[k]->StreamOpen(name, shard_options);
    if (!opened.ok()) {
      // All-or-nothing: a stream is open on every shard or on none.
      for (size_t j = 0; j < k; ++j) (void)shards_[j]->StreamClose(name);
      return AnnotateShard(k, opened.status());
    }
    info.tracked += opened->tracked;
  }
  return info;
}

Result<monitor::StreamAppendResult> ShardedDatabase::StreamAppend(
    std::string_view name, const monitor::EventBatch& events) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  const size_t n = shards_.size();

  // Scatter: every shard steps its own contracts through the whole batch.
  std::vector<Result<monitor::StreamAppendResult>> per_shard(
      n, Status::Internal("shard not reached"));
  auto run_one = [&](size_t k) {
    per_shard[k] = shards_[k]->StreamAppend(name, events);
    return Status::OK();  // errors merge below, in shard order
  };
  if (pool_ && n > 1) {
    CTDB_RETURN_NOT_OK(pool_->ParallelFor(0, n, run_one));
  } else {
    for (size_t k = 0; k < n; ++k) (void)run_one(k);
  }
  for (size_t k = 0; k < n; ++k) {
    CTDB_RETURN_NOT_OK(AnnotateShard(k, per_shard[k].status()));
  }

  // Gather: k-way merge of the verdict deltas by ascending global id;
  // every shard saw the same events, counters sum.
  monitor::StreamAppendResult merged;
  merged.events = (*per_shard[0]).events;
  size_t total = 0;
  for (size_t k = 0; k < n; ++k) {
    merged.stepped += (*per_shard[k]).stepped;
    merged.pruned += (*per_shard[k]).pruned;
    total += (*per_shard[k]).deltas.size();
  }
  merged.deltas.reserve(total);
  std::vector<size_t> cursor(n, 0);
  while (merged.deltas.size() < total) {
    size_t best = n;
    uint64_t best_id = 0;
    for (size_t k = 0; k < n; ++k) {
      const auto& deltas = (*per_shard[k]).deltas;
      if (cursor[k] >= deltas.size()) continue;
      const uint64_t gid = GlobalId(k, deltas[cursor[k]].contract_id, n);
      if (best == n || gid < best_id) {
        best = k;
        best_id = gid;
      }
    }
    merged.deltas.push_back({static_cast<uint32_t>(best_id),
                             (*per_shard[best]).deltas[cursor[best]].verdict});
    cursor[best] += 1;
  }
  return merged;
}

Result<monitor::StreamCloseInfo> ShardedDatabase::StreamClose(
    std::string_view name) {
  // No CheckOpen: closing a stream is read-only summary work and stays
  // legal while the database shuts down.
  const size_t n = shards_.size();
  std::vector<Result<monitor::StreamCloseInfo>> per_shard(
      n, Status::Internal("shard not reached"));
  for (size_t k = 0; k < n; ++k) {
    per_shard[k] = shards_[k]->StreamClose(name);
  }
  for (size_t k = 0; k < n; ++k) {
    CTDB_RETURN_NOT_OK(AnnotateShard(k, per_shard[k].status()));
  }
  monitor::StreamCloseInfo info;
  info.events = (*per_shard[0]).events;
  size_t total = 0;
  for (size_t k = 0; k < n; ++k) {
    info.satisfied += (*per_shard[k]).satisfied;
    info.violated += (*per_shard[k]).violated;
    info.undetermined += (*per_shard[k]).undetermined;
    total += (*per_shard[k]).verdicts.size();
  }
  info.verdicts.reserve(total);
  std::vector<size_t> cursor(n, 0);
  while (info.verdicts.size() < total) {
    size_t best = n;
    uint64_t best_id = 0;
    for (size_t k = 0; k < n; ++k) {
      const auto& verdicts = (*per_shard[k]).verdicts;
      if (cursor[k] >= verdicts.size()) continue;
      const uint64_t gid = GlobalId(k, verdicts[cursor[k]].contract_id, n);
      if (best == n || gid < best_id) {
        best = k;
        best_id = gid;
      }
    }
    info.verdicts.push_back(
        {static_cast<uint32_t>(best_id),
         (*per_shard[best]).verdicts[cursor[best]].verdict});
    cursor[best] += 1;
  }
  return info;
}

Status ShardedDatabase::Checkpoint() {
  CTDB_RETURN_NOT_OK(CheckOpen());
  const size_t n = shards_.size();
  std::vector<Status> status(n, Status::OK());
  auto one = [&](size_t k) {
    status[k] = AnnotateShard(k, shards_[k]->Checkpoint());
    return Status::OK();  // attempt every shard; merge below
  };
  if (pool_ && n > 1) {
    (void)pool_->ParallelFor(0, n, one);
  } else {
    for (size_t k = 0; k < n; ++k) (void)one(k);
  }
  for (size_t k = 0; k < n; ++k) CTDB_RETURN_NOT_OK(status[k]);
  CTDB_OBS_COUNT("shard.checkpoints", 1);
  return Status::OK();
}

Status ShardedDatabase::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return Status::OK();
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status s = AnnotateShard(k, shards_[k]->Close());
    if (first.ok()) first = s;
  }
  return first;
}

size_t ShardedDatabase::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

uint64_t ShardedDatabase::last_sequence() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return clock_;
}

obs::MetricsSnapshot ShardedDatabase::Metrics() const {
  return obs::MetricsRegistry::Default()->Snapshot();
}

}  // namespace ctdb::shard
