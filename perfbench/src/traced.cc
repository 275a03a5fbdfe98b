// The traced run: the workload's request sequence replayed one request at a
// time through an in-process net::Server, against the same Broker
// implementation ctdb_server opens, with spans around calls into public
// layer functions. Only this file records spans; the library is untouched.
//
// Per request the span tree is
//
//   request                      client round trip (Conn::Execute)
//   ├─ broker.<op>               the real Broker call, on the server's worker
//   └─ replay.query|batch        queries only: the query pipeline replayed
//      └─ shard                  per shard (the unsharded server is a
//         ├─ ltl.parse           single shard) against the shard's pinned
//         ├─ translate.query     snapshot: Parse, LtlToBuchiCached,
//         ├─ index.prefilter     ExtractPruningCondition + Evaluate,
//         ├─ projection.select   ForQueryEvents, Permits per candidate
//         └─ core.permission
//
// plus a root-level net.codec span re-timing the four frame codec calls of
// the request. Self time is a span's duration minus its children's
// coverage. The replay's layer self times explain the real call: the
// reported broker remainder is the real call's time minus them, negative
// when the real call parallelizes what the replay does in order. The replay
// must return the real call's matches; the real answer is what the server
// sends back. Real call and replay share each contract's projection
// quotient cache, so they take turns going first, and only the run that
// went first is timed.
//
// Mutations call the real broker inside their span and the same mutation
// on an in-memory ContractDatabase mirror outside it; the difference is the
// WAL commit wait, and the mirror time minus the RegistrationStats phases
// is the broker's own publish and bookkeeping.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "broker/durable.h"
#include "conn.h"
#include "core/permission.h"
#include "index/condition.h"
#include "index/pruning.h"
#include "ltl/parser.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "run.h"
#include "shard/sharded.h"
#include "spans.h"
#include "stats.h"
#include "translate/cache.h"

namespace perfbench {

namespace {

namespace broker = ctdb::broker;
using ctdb::Result;
using ctdb::Status;
using ctdb::net::Request;
using ctdb::net::Response;

/// Ops per connection replayed from the main stream, and at most this many
/// side probes of each kind: the trace explains a sample of the workload,
/// it does not re-time it.
size_t TraceMainOps(Workload w) {
  return w == Workload::kReadColdSharded ? 60 : 200;
}
constexpr size_t kTraceSidePerKind = 40;
/// Queries used for the tracing-overhead and scatter comparisons.
constexpr size_t kComparisonQueries = 64;

/// What one replayed query did.
struct QueryReplay {
  uint64_t request = 0;
  std::vector<uint32_t> matches;
  size_t candidates = 0;
  size_t translations = 0;
  size_t cache_hits = 0;
  size_t checks = 0;
  uint64_t pairs = 0;
};

/// One mutation's cost split: durable_us = phases + bookkeeping + wait.
struct MutationCost {
  uint64_t request = 0;
  double durable_us = 0;  ///< the Broker call (span)
  broker::RegistrationStats stats;  ///< its translate/insert/precompute
  /// The in-memory mirror's time for the same mutation minus its own
  /// RegistrationStats phases: snapshot publish and bookkeeping.
  double bookkeeping_us = 0;
  bool registration = false;

  double phases_us() const {
    return 1e3 * (stats.translate_ms + stats.prefilter_insert_ms +
                  stats.projection_precompute_ms);
  }
  /// What the durable call spent beyond the in-memory work: the WAL.
  double commit_wait_us() const {
    return durable_us - phases_us() - bookkeeping_us;
  }
};

/// Replays the query pipeline per shard with spans, through its own
/// translation caches (one per shard, the server's capacity), so cache
/// behaviour mirrors a shard's.
class QueryReplayer {
 public:
  QueryReplayer(std::vector<const broker::DurableDatabase*> shards,
                bool sharded)
      : shards_(std::move(shards)), sharded_(sharded) {
    Reset();
  }

  void Reset() {
    caches_.clear();
    for (size_t k = 0; k < shards_.size(); ++k) {
      caches_.push_back(std::make_unique<ctdb::translate::TranslationCache>(
          broker::DatabaseOptions().translation_cache_capacity));
    }
  }

  Status Replay(std::string_view text, SpanRecorder* rec, int32_t parent,
                uint64_t request, QueryReplay* out) {
    const broker::QueryOptions defaults;
    const size_t n = shards_.size();
    for (size_t k = 0; k < n; ++k) {
      const auto snap = shards_[k]->Snapshot();
      ScopedSpan shard(rec, "shard", parent, request);
      ctdb::ltl::FormulaFactory factory;
      const ctdb::ltl::Formula* formula = nullptr;
      {
        ScopedSpan span(rec, "ltl.parse", shard.id(), request);
        CTDB_ASSIGN_OR_RETURN(
            formula, ctdb::ltl::Parse(text, &factory, snap->vocabulary()));
      }
      std::shared_ptr<const ctdb::automata::Buchi> ba;
      bool hit = false;
      {
        ScopedSpan span(rec, "translate.query", shard.id(), request);
        CTDB_ASSIGN_OR_RETURN(
            ba, ctdb::translate::LtlToBuchiCached(formula, &factory,
                                                  caches_[k].get(),
                                                  snap->options().translate,
                                                  nullptr, &hit));
      }
      ++out->translations;
      out->cache_hits += hit ? 1 : 0;
      std::vector<size_t> candidates;
      {
        ScopedSpan span(rec, "index.prefilter", shard.id(), request);
        const ctdb::index::Condition condition =
            ctdb::index::ExtractPruningCondition(*ba, defaults.pruning);
        candidates = condition.Evaluate(snap->prefilter()).ToVector();
      }
      const ctdb::Bitset query_events = ba->CitedEvents();
      for (size_t idx : candidates) {
        if (!snap->is_live(static_cast<uint32_t>(idx))) continue;
        const broker::Contract& contract =
            snap->contract(static_cast<uint32_t>(idx));
        ++out->candidates;
        const ctdb::automata::Buchi* projected = nullptr;
        {
          ScopedSpan span(rec, "projection.select", shard.id(), request);
          projected = &contract.projections.ForQueryEvents(query_events);
        }
        ctdb::core::PermissionStats stats;
        bool permits = false;
        {
          ScopedSpan span(rec, "core.permission", shard.id(), request);
          permits = ctdb::core::Permits(*projected, contract.events, *ba,
                                        defaults.permission, nullptr, &stats);
        }
        ++out->checks;
        out->pairs += stats.pairs_visited;
        if (permits) {
          out->matches.push_back(
              sharded_ ? ctdb::shard::ShardedDatabase::GlobalId(
                             k, contract.id, n)
                       : contract.id);
        }
      }
    }
    std::sort(out->matches.begin(), out->matches.end());
    return Status::OK();
  }

 private:
  std::vector<const broker::DurableDatabase*> shards_;
  bool sharded_;
  std::vector<std::unique_ptr<ctdb::translate::TranslationCache>> caches_;
};

/// The Broker the in-process server serves: spans around every call into
/// the real broker, query replay, mutation mirroring.
class TracingBroker : public broker::Broker {
 public:
  TracingBroker(broker::Broker* real, QueryReplayer* replayer,
                SpanRecorder* rec)
      : real_(real), replayer_(replayer), rec_(rec) {}

  /// The request the next call belongs to (set by the client thread).
  void SetRequest(uint64_t request, int32_t root) {
    request_.store(request);
    root_.store(root);
  }

  Result<uint32_t> Register(std::string name, std::string_view ltl,
                            broker::RegistrationStats* stats) override {
    MutationCost cost;
    cost.request = request_.load();
    cost.registration = true;
    auto id = [&] {
      BrokerSpan span(this, "broker.register", &cost.durable_us);
      return real_->Register(name, ltl, &cost.stats);
    }();
    if (!id.ok()) return id;
    broker::RegistrationStats mirror_stats;
    double mirror_us = 0;
    auto mirrored = [&] {
      BrokerSpan span(this, "mirror", &mirror_us);
      return mirror_.Register(name, ltl, &mirror_stats);
    }();
    if (!mirrored.ok() || *mirrored != *id) {
      problems.push_back("mirror registration diverged");
    }
    Finish(std::move(cost), mirror_us, mirror_stats);
    if (stats != nullptr) *stats = costs.back().stats;
    return id;
  }

  Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<broker::ContractDatabase::BatchEntry>& entries)
      override {
    auto ids = real_->RegisterBatch(entries);
    if (ids.ok()) (void)mirror_.RegisterBatch(entries);
    return ids;
  }

  Result<uint64_t> Unregister(uint32_t id) override {
    MutationCost cost;
    cost.request = request_.load();
    auto clock = [&] {
      BrokerSpan span(this, "broker.unregister", &cost.durable_us);
      return real_->Unregister(id);
    }();
    if (!clock.ok()) return clock;
    double mirror_us = 0;
    const bool mirrored = [&] {
      BrokerSpan span(this, "mirror", &mirror_us);
      return mirror_.Unregister(id).ok();
    }();
    if (!mirrored) problems.push_back("mirror unregister diverged");
    Finish(std::move(cost), mirror_us, {});
    return clock;
  }

  Result<uint64_t> Replace(uint32_t id, std::string_view ltl,
                           broker::RegistrationStats* stats) override {
    MutationCost cost;
    cost.request = request_.load();
    cost.registration = true;
    auto clock = [&] {
      BrokerSpan span(this, "broker.replace", &cost.durable_us);
      return real_->Replace(id, ltl, &cost.stats);
    }();
    if (!clock.ok()) return clock;
    broker::RegistrationStats mirror_stats;
    double mirror_us = 0;
    const bool mirrored = [&] {
      BrokerSpan span(this, "mirror", &mirror_us);
      return mirror_.Replace(id, ltl, &mirror_stats).ok();
    }();
    if (!mirrored) problems.push_back("mirror replace diverged");
    Finish(std::move(cost), mirror_us, mirror_stats);
    if (stats != nullptr) *stats = costs.back().stats;
    return clock;
  }

  Result<broker::QueryResult> Query(
      std::string_view text, const broker::QueryOptions& options) const override {
    if (options.as_of != 0) {
      BrokerSpan span(this, "broker.asof_query");
      return real_->Query(text, options);
    }
    QueryReplay replay;
    Status replayed;
    Result<broker::QueryResult> real = Status::Internal("not run");
    TakeTurns(
        [&] {
          BrokerSpan span(this, "broker.query");
          real = real_->Query(text, options);
        },
        [&] {
          BrokerSpan span(this, "replay.query");
          replayed =
              replayer_->Replay(text, rec_, span.id, span.request, &replay);
        });
    replay.request = request_.load();
    Check(replayed, real.ok() ? std::vector<broker::QueryResult>{*real}
                              : std::vector<broker::QueryResult>{},
          real.status(), {replay});
    return real;
  }

  Result<std::vector<broker::QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const broker::QueryOptions& options) const override {
    std::vector<QueryReplay> replays(queries.size());
    Status replayed;
    Result<std::vector<broker::QueryResult>> real = Status::Internal("not run");
    TakeTurns(
        [&] {
          BrokerSpan span(this, "broker.batch");
          real = real_->QueryBatch(queries, options);
        },
        [&] {
          BrokerSpan span(this, "replay.batch");
          for (size_t i = 0; i < queries.size() && replayed.ok(); ++i) {
            replayed = replayer_->Replay(queries[i], rec_, span.id,
                                         span.request, &replays[i]);
          }
        });
    for (QueryReplay& r : replays) r.request = request_.load();
    Check(replayed, real.ok() ? *real : std::vector<broker::QueryResult>{},
          real.status(), replays);
    return real;
  }

  Result<ctdb::monitor::StreamOpenInfo> StreamOpen(
      std::string name, const ctdb::monitor::StreamOptions& options) override {
    return real_->StreamOpen(std::move(name), options);
  }

  Result<ctdb::monitor::StreamAppendResult> StreamAppend(
      std::string_view name, const ctdb::monitor::EventBatch& events) override {
    BrokerSpan span(this, "monitor.append");
    auto result = real_->StreamAppend(name, events);
    if (result.ok()) {
      stepped += result->stepped;
      pruned += result->pruned;
    }
    return result;
  }

  Result<ctdb::monitor::StreamCloseInfo> StreamClose(
      std::string_view name) override {
    return real_->StreamClose(name);
  }

  Status Checkpoint() override { return real_->Checkpoint(); }
  Status Close() override { return real_->Close(); }
  size_t size() const override { return real_->size(); }
  uint64_t last_sequence() const override { return real_->last_sequence(); }
  ctdb::obs::MetricsSnapshot Metrics() const override {
    return real_->Metrics();
  }

  // Observations, read by the client thread once the server has stopped.
  mutable std::vector<QueryReplay> replays;
  mutable std::vector<std::string> problems;
  std::vector<MutationCost> costs;
  uint64_t stepped = 0;
  uint64_t pruned = 0;

 private:
  /// A span parented to the current request's root; optionally reports
  /// its duration.
  struct BrokerSpan {
    BrokerSpan(const TracingBroker* b, const char* name,
               double* micros = nullptr)
        : broker(b),
          request(b->request_.load()),
          id(b->rec_->Begin(name, b->root_.load(), request)),
          micros_out(micros),
          start(Clock::now()) {}
    ~BrokerSpan() {
      broker->rec_->End(id);
      if (micros_out != nullptr) *micros_out = Micros(Clock::now() - start);
    }
    const TracingBroker* broker;
    uint64_t request;
    int32_t id;
    double* micros_out;
    Clock::time_point start;
  };

  /// Runs the real query call and its replay, alternating which goes first.
  template <typename Real, typename Replay>
  void TakeTurns(Real real, Replay replay) const {
    if (query_calls_++ % 2 == 0) {
      real();
      replay();
    } else {
      replay();
      real();
    }
  }

  void Finish(MutationCost cost, double mirror_us,
              const broker::RegistrationStats& mirror_stats) {
    MutationCost phases;
    phases.stats = mirror_stats;
    cost.bookkeeping_us = mirror_us - phases.phases_us();
    costs.push_back(std::move(cost));
  }

  void Check(const Status& replayed,
             const std::vector<broker::QueryResult>& real,
             const Status& real_status,
             const std::vector<QueryReplay>& ours) const {
    if (!replayed.ok() || !real_status.ok()) {
      problems.push_back("query failed: " +
                         (replayed.ok() ? real_status : replayed).ToString());
      return;
    }
    for (size_t i = 0; i < ours.size(); ++i) {
      if (real[i].matches != ours[i].matches) {
        problems.push_back("replayed matches differ from Broker::Query");
      }
      replays.push_back(ours[i]);
    }
  }

  broker::Broker* real_;
  QueryReplayer* replayer_;
  SpanRecorder* rec_;
  broker::ContractDatabase mirror_;
  std::atomic<uint64_t> request_{0};
  std::atomic<int32_t> root_{-1};
  mutable uint64_t query_calls_ = 0;  // the server runs one worker
};

/// Request ids of the measured phases.
class RequestSet {
 public:
  void Add(uint64_t request) {
    if (request >= in_.size()) in_.resize(request + 1, 0);
    in_[request] = 1;
  }
  bool Has(uint64_t request) const {
    return request < in_.size() && in_[request] != 0;
  }

 private:
  std::vector<char> in_;
};

/// Wraps each Conn request in a root span and re-times its frame codec.
class TraceHook : public CallHook {
 public:
  TraceHook(SpanRecorder* rec, TracingBroker* broker)
      : rec_(rec), broker_(broker) {}

  void Before(const Request&) override {
    ++request_;
    root_ = rec_->Begin("request", -1, request_);
    broker_->SetRequest(request_, root_);
    if (measuring) measured.Add(request_);
  }

  void After(const Request& request, const Result<Response>& response) override {
    rec_->End(root_);
    if (!response.ok()) return;
    ScopedSpan codec(rec_, "net.codec", -1, request_);
    const std::string in = ctdb::net::EncodeRequestFrame(request);
    size_t offset = 0;
    Request decoded;
    (void)ctdb::net::DecodeRequestFrame(in, &offset, &decoded);
    const std::string out = ctdb::net::EncodeResponseFrame(*response);
    offset = 0;
    Response back;
    (void)ctdb::net::DecodeResponseFrame(out, &offset, &back);
  }

  bool measuring = false;
  RequestSet measured;

 private:
  SpanRecorder* rec_;
  TracingBroker* broker_;
  uint64_t request_ = 0;
  int32_t root_ = -1;
};

struct Opened {
  std::unique_ptr<broker::Broker> broker;
  std::vector<const broker::DurableDatabase*> shards;
};

Result<Opened> OpenBroker(const WorkloadSpec& spec, const std::string& dir) {
  ctdb::wal::DurabilityOptions durability;
  durability.fsync_policy = ctdb::wal::FsyncPolicy::kGroup;
  broker::DatabaseOptions options;
  options.threads = spec.db_threads;
  Opened out;
  if (spec.shards > 0) {
    options.shards = spec.shards;
    CTDB_ASSIGN_OR_RETURN(
        auto db, ctdb::shard::ShardedDatabase::Open(dir, durability, options));
    for (size_t k = 0; k < db->shard_count(); ++k) {
      out.shards.push_back(&db->shard(k));
    }
    out.broker = std::move(db);
  } else {
    CTDB_ASSIGN_OR_RETURN(
        auto db, broker::DurableDatabase::Open(dir, durability, options));
    out.shards.push_back(db.get());
    out.broker = std::move(db);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs the workload's request sequence through `hook`: the set-up
/// contracts one Register each (so each reports its phase split), the
/// warm-up, then — measured — the main streams interleaved across
/// connections and a sample of the side probes.
void ReplayRequests(const WorkloadSpec& spec, const Inputs& in, uint16_t port,
                    TraceHook* hook, RunOutcome* outcome) {
  auto preload = std::make_shared<KnownState>();
  preload->preload = static_cast<uint32_t>(in.preload_count);
  Conn setup(in, "s", std::make_shared<KnownState>(), hook);
  Conn side(in, "side", preload, hook);
  std::vector<std::unique_ptr<Conn>> conns;
  auto finish = [&] {
    for (Conn* c : {&setup, &side}) {
      outcome->attempted += c->attempted;
      outcome->failed += c->failed;
      for (const auto& p : c->problems) outcome->Problem(p);
    }
    for (const auto& c : conns) {
      outcome->attempted += c->attempted;
      outcome->failed += c->failed;
      for (const auto& p : c->problems) outcome->Problem(p);
    }
  };

  Status st = setup.Connect(port);
  for (size_t i = 0; st.ok() && i < in.preload_count; ++i) {
    PlannedOp op;
    op.op = Op::kRegister;
    op.text = static_cast<uint32_t>(i);
    setup.Execute(op, false);
  }
  for (size_t i = 0; st.ok() && i < in.warm.size(); ++i) {
    PlannedOp op;
    op.queries = {in.warm[i]};
    setup.Execute(op, false);
  }
  for (size_t c = 0; st.ok() && c < spec.connections; ++c) {
    conns.push_back(std::make_unique<Conn>(in, "c" + std::to_string(c),
                                           preload, hook));
    st = conns.back()->Connect(port);
    if (st.ok() && spec.workload == Workload::kWriteChurn) {
      st = conns.back()->OpenStream("churn-" + std::to_string(c));
    }
  }
  if (st.ok()) st = side.Connect(port);
  if (!st.ok()) {
    outcome->Problem("connect: " + st.ToString());
    finish();
    return;
  }

  hook->measuring = true;
  for (size_t i = 0; i < TraceMainOps(spec.workload); ++i) {
    for (size_t c = 0; c < conns.size(); ++c) {
      if (i < in.main[c].size()) conns[c]->Execute(in.main[c][i], false);
    }
  }
  for (auto& c : conns) (void)c->CloseStream();
  st = side.OpenStream("side");
  std::array<size_t, kOpKinds> per_kind{};
  for (const PlannedOp& op : in.side) {
    if (!st.ok()) break;
    if (per_kind[static_cast<size_t>(op.op)]++ >= kTraceSidePerKind) continue;
    side.Execute(op, false);
  }
  (void)side.CloseStream();
  hook->measuring = false;
  finish();
}

/// Per-layer totals over the spans of the measured requests.
struct SpanTotals {
  /// Self time by layer under each replay span kind (replay.query,
  /// replay.batch) that went before its real call; "replay.other" is the
  /// replay's own remainder (replay and shard self time).
  std::map<std::string, std::map<std::string, double>> layer_ns;
  /// Durations by span name. Of the real query calls and the replays, only
  /// the one of each request that went first.
  std::map<std::string, std::vector<double>> span_us;
  std::vector<double> skew;  ///< per replay.query: slowest / mean shard
  double request_self_ns = 0;
  size_t requests = 0;
  /// Every owner span's subtree self times sum to its duration.
  bool adds_up = true;
};

bool IsQueryRun(std::string_view name) {
  return name == "broker.query" || name == "broker.batch" ||
         name == "replay.query" || name == "replay.batch";
}

SpanTotals Decompose(const std::vector<Span>& spans,
                     const RequestSet& measured) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  // owner[i]: the nearest enclosing broker.* / replay.* / monitor.* span.
  std::vector<int32_t> owner(spans.size(), -1);
  // Per request, when its first real query call or replay started.
  std::map<uint64_t, uint64_t> first_run;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    if (name.rfind("broker.", 0) == 0 || name.rfind("replay.", 0) == 0 ||
        name.rfind("monitor.", 0) == 0) {
      owner[i] = static_cast<int32_t>(i);
    } else if (spans[i].parent >= 0) {
      owner[i] = owner[static_cast<size_t>(spans[i].parent)];
    }
    if (IsQueryRun(name)) {
      auto [it, fresh] = first_run.emplace(spans[i].request, spans[i].start_ns);
      if (!fresh) it->second = std::min(it->second, spans[i].start_ns);
    }
  }
  auto went_first = [&](const Span& s) {
    return !IsQueryRun(s.name) || first_run.at(s.request) == s.start_ns;
  };
  SpanTotals totals;
  std::vector<double> subtree_ns(spans.size(), 0);
  std::map<int32_t, std::vector<double>> shard_us;  // by replay.query span
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!measured.Has(s.request)) continue;
    const std::string name = s.name;
    if (name == "request") {
      totals.request_self_ns += static_cast<double>(self[i]);
      ++totals.requests;
    }
    if (owner[i] < 0) {
      totals.span_us[name].push_back(s.micros());
      continue;
    }
    const Span& own = spans[static_cast<size_t>(owner[i])];
    subtree_ns[static_cast<size_t>(owner[i])] += static_cast<double>(self[i]);
    if (!went_first(own)) continue;
    totals.span_us[name].push_back(s.micros());
    const std::string_view kind = own.name;
    if (kind == "replay.query" || kind == "replay.batch") {
      const bool remainder = name == kind || name == "shard";
      totals.layer_ns[std::string(kind)][remainder ? "replay.other" : name] +=
          static_cast<double>(self[i]);
      if (name == "shard" && kind == "replay.query") {
        shard_us[owner[i]].push_back(s.micros());
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (owner[i] == static_cast<int32_t>(i) && measured.Has(spans[i].request) &&
        std::abs(subtree_ns[i] - 1e3 * spans[i].micros()) > 1000) {
      totals.adds_up = false;
    }
  }
  for (const auto& [query, times] : shard_us) {
    totals.skew.push_back(
        Ratio(*std::max_element(times.begin(), times.end()), Mean(times)));
  }
  return totals;
}

/// (traced - untraced) / untraced time to replay `sample`, in ABBA order,
/// each pass from cold replay caches, so drift and warm-up cancel.
double TracingOverhead(QueryReplayer* replayer,
                       const std::vector<std::string>& sample) {
  double untraced_ns = 0, traced_ns = 0;
  for (bool traced : {false, true, true, false}) {
    SpanRecorder scratch(traced);
    replayer->Reset();
    const uint64_t t0 = NowNs();
    for (const std::string& q : sample) {
      QueryReplay r;
      ScopedSpan root(&scratch, "replay.query", -1, 0);
      (void)replayer->Replay(q, &scratch, root.id(), 0, &r);
    }
    (traced ? traced_ns : untraced_ns) += static_cast<double>(NowNs() - t0);
  }
  return Ratio(traced_ns - untraced_ns, untraced_ns);
}

/// Per query of `sample`: a warm router call minus its slowest warm shard
/// call, in ABBA order.
std::vector<double> ScatterOverheadUs(const Opened& opened,
                                      const std::vector<std::string>& sample) {
  std::vector<double> out;
  for (const std::string& q : sample) {
    (void)opened.broker->Query(q);  // warm every cache first
    double router = 0, slowest = 0;
    for (bool shards : {false, true, true, false}) {
      if (!shards) {
        const auto t0 = Clock::now();
        (void)opened.broker->Query(q);
        router += Micros(Clock::now() - t0) / 2;
        continue;
      }
      double slowest_here = 0;
      for (const auto* shard : opened.shards) {
        const auto t0 = Clock::now();
        (void)shard->Query(q);
        slowest_here = std::max(slowest_here, Micros(Clock::now() - t0));
      }
      slowest += slowest_here / 2;
    }
    out.push_back(router - slowest);
  }
  return out;
}

struct RecoveryTimes {
  double load_s = 0;    ///< checkpoint load (slowest shard)
  double replay_s = 0;  ///< log replay (slowest shard)
  double records = 0;   ///< records replayed, all shards
};

/// Recovers `dir` the way a restart of the workload's server would.
Result<RecoveryTimes> Recover(const WorkloadSpec& spec,
                              const std::string& dir) {
  RecoveryTimes out;
  if (spec.shards > 0) {
    broker::DatabaseOptions options;
    options.shards = spec.shards;
    CTDB_ASSIGN_OR_RETURN(auto db,
                          ctdb::shard::ShardedDatabase::Open(dir, {}, options));
    for (const auto& s : db->recovery_stats().per_shard) {
      out.load_s = std::max(out.load_s, s.checkpoint_load_ms / 1e3);
      out.replay_s = std::max(out.replay_s, s.replay_ms / 1e3);
      out.records += static_cast<double>(s.records_replayed);
    }
    CTDB_RETURN_NOT_OK(db->Close());
  } else {
    broker::RecoveryStats stats;
    CTDB_RETURN_NOT_OK(broker::RecoverDatabase(dir, {}, &stats).status());
    out.load_s = stats.checkpoint_load_ms / 1e3;
    out.replay_s = stats.replay_ms / 1e3;
    out.records = static_cast<double>(stats.records_replayed);
  }
  return out;
}

/// The real server's counters around the workload's measured traffic: a
/// shortened timed run (one set-up, one restart) against a ctdb_server
/// child, its answers checked like any timed run's.
ServerCounters LoadedServerCounters(const RunConfig& config,
                                    RunOutcome* outcome) {
  WorkloadSpec spec = *config.spec;
  spec.setups = 1;
  spec.restarts = 1;
  RunConfig loaded = config;
  loaded.spec = &spec;
  loaded.work_dir = config.work_dir + "/loaded";
  std::error_code ec;
  std::filesystem::create_directories(loaded.work_dir, ec);
  ServerCounters counters;
  const RunOutcome run = RunEndToEnd(loaded, &counters);
  outcome->attempted += run.attempted;
  outcome->failed += run.failed;
  for (const std::string& p : run.problems) outcome->Problem(p);
  return counters;
}

}  // namespace

RunOutcome RunTraced(const RunConfig& config) {
  RunOutcome outcome;
  const WorkloadSpec& spec = *config.spec;
  const ServerCounters server_counters = LoadedServerCounters(config, &outcome);
  auto inputs = MakeInputs(spec, config.seed, config.seconds);
  if (!inputs.ok()) {
    outcome.Problem("inputs: " + inputs.status().ToString());
    return outcome;
  }
  const Inputs& in = *inputs;
  const std::string dir = config.work_dir + "/trace-db";
  auto opened = OpenBroker(spec, dir);
  if (!opened.ok()) {
    outcome.Problem("open: " + opened.status().ToString());
    return outcome;
  }
  SpanRecorder rec;
  QueryReplayer replayer(opened->shards, spec.shards > 0);
  TracingBroker tracing(opened->broker.get(), &replayer, &rec);
  ctdb::net::ServerOptions server_options;
  server_options.workers = 1;
  auto server = ctdb::net::Server::Start(&tracing, server_options);
  if (!server.ok()) {
    outcome.Problem("server: " + server.status().ToString());
    return outcome;
  }
  TraceHook hook(&rec, &tracing);
  ReplayRequests(spec, in, (*server)->port(), &hook, &outcome);
  (void)(*server)->Shutdown();
  for (const auto& p : tracing.problems) outcome.Problem(p);

  const std::vector<Span> spans = rec.Take();
  SpanTotals totals = Decompose(spans, hook.measured);
  if (!totals.adds_up) outcome.Problem("layer self times do not add up");
  auto& span_us = totals.span_us;

  // Query-replay counters (single and batched queries alike).
  size_t candidates = 0, matches = 0, translations = 0, hits = 0, checks = 0;
  uint64_t pairs = 0;
  size_t replayed_queries = 0;
  for (const QueryReplay& r : tracing.replays) {
    if (!hook.measured.Has(r.request)) continue;
    ++replayed_queries;
    candidates += r.candidates;
    matches += r.matches.size();
    translations += r.translations;
    hits += r.cache_hits;
    checks += r.checks;
    pairs += r.pairs;
  }

  std::vector<std::string> sample;  // single queries of the main stream
  for (const PlannedOp& op : in.main[0]) {
    if (sample.size() >= kComparisonQueries) break;
    if (op.op == Op::kQuery) sample.push_back(in.queries[op.queries[0]]);
  }
  const double tracing_overhead = TracingOverhead(&replayer, sample);
  const std::vector<double> scatter_us = ScatterOverheadUs(*opened, sample);

  if (const Status closed = opened->broker->Close(); !closed.ok()) {
    outcome.Problem("close: " + closed.ToString());
  }
  opened->broker.reset();
  auto recovery = Recover(spec, dir);
  if (!recovery.ok()) {
    outcome.Problem("recover: " + recovery.status().ToString());
    recovery = RecoveryTimes{};
  }
  // Mutation split over the measured mutations; the set-up registrations
  // (one Register per set-up contract) only give the set-up phase metrics.
  std::vector<double> mutation_us, mutation_phases, mutation_other,
      commit_wait, reg_translate, reg_insert, reg_precompute, setup_translate,
      setup_insert, setup_precompute;
  for (const MutationCost& m : tracing.costs) {
    if (!hook.measured.Has(m.request)) {
      setup_translate.push_back(1e3 * m.stats.translate_ms);
      setup_insert.push_back(1e3 * m.stats.prefilter_insert_ms);
      setup_precompute.push_back(1e3 * m.stats.projection_precompute_ms);
      continue;
    }
    mutation_us.push_back(m.durable_us);
    mutation_phases.push_back(m.phases_us());
    commit_wait.push_back(m.commit_wait_us());
    mutation_other.push_back(m.bookkeeping_us);
    if (m.registration) {
      reg_translate.push_back(1e3 * m.stats.translate_ms);
      reg_insert.push_back(1e3 * m.stats.prefilter_insert_ms);
      reg_precompute.push_back(1e3 * m.stats.projection_precompute_ms);
    }
  }

  // Query decomposition: the replay's layer self times per query (or per
  // batch), and the real call's time minus them.
  constexpr const char* kQueryLayers[] = {"ltl.parse", "translate.query",
                                          "index.prefilter",
                                          "projection.select",
                                          "core.permission"};
  auto per_replay = [&](const char* kind, const char* layer) {
    return Ratio(totals.layer_ns[kind][layer] / 1e3,
                 static_cast<double>(span_us[kind].size()));
  };
  auto layers_us = [&](const char* kind) {
    double sum = 0;
    for (const char* layer : kQueryLayers) sum += per_replay(kind, layer);
    return sum;
  };
  const double query_us = Mean(span_us["broker.query"]);
  const double batch_us = Mean(span_us["broker.batch"]);
  const double query_other_us = query_us - layers_us("replay.query");
  const double batch_other_us = batch_us - layers_us("replay.batch");

  auto delta = [&](const char* name) { return server_counters.Delta(name); };
  const double shed = delta("net.shed");
  const double quotient_hits = delta("projection.quotient_cache_hits");

  outcome.Add("net.codec_us", Mean(span_us["net.codec"]), "us");
  outcome.Add("net.overhead_us",
              Ratio(totals.request_self_ns / 1e3,
                    static_cast<double>(totals.requests)),
              "us");
  outcome.Add("net.shed_ratio", Ratio(shed, shed + delta("net.requests")),
              "ratio");
  outcome.Add("ltl.parse_us", per_replay("replay.query", "ltl.parse"), "us");
  outcome.Add("translate.query_us",
              per_replay("replay.query", "translate.query"), "us");
  outcome.Add("translate.per_query",
              Ratio(static_cast<double>(translations),
                    static_cast<double>(replayed_queries)),
              "count");
  outcome.Add("translate.cache_hit_ratio",
              Ratio(static_cast<double>(hits),
                    static_cast<double>(translations)),
              "ratio");
  outcome.Add("index.prefilter_us",
              per_replay("replay.query", "index.prefilter"), "us");
  outcome.Add("index.candidates_per_query",
              Ratio(static_cast<double>(candidates),
                    static_cast<double>(replayed_queries)),
              "count");
  outcome.Add("index.precision",
              Ratio(static_cast<double>(matches),
                    static_cast<double>(candidates)),
              "ratio");
  outcome.Add("projection.select_us",
              per_replay("replay.query", "projection.select"), "us");
  outcome.Add("projection.quotient_hit_ratio",
              Ratio(quotient_hits,
                    quotient_hits + delta("projection.quotient_cache_misses")),
              "ratio");
  outcome.Add("core.permission_us",
              per_replay("replay.query", "core.permission"), "us");
  outcome.Add("core.pairs_per_check",
              Ratio(static_cast<double>(pairs), static_cast<double>(checks)),
              "count");
  outcome.Add("broker.query_us", query_us, "us");
  outcome.Add("broker.batch_us", batch_us, "us");
  outcome.Add("broker.other_us", query_other_us, "us");
  outcome.Add("broker.batch_other_us", batch_other_us, "us");
  outcome.Add("replay.other_us", per_replay("replay.query", "replay.other"),
              "us");
  outcome.Add("broker.asof_query_us", Mean(span_us["broker.asof_query"]),
              "us");
  outcome.Add("broker.mutation_other_us", Mean(mutation_other), "us");
  outcome.Add("translate.register_us", Mean(reg_translate), "us");
  outcome.Add("index.insert_us", Mean(reg_insert), "us");
  outcome.Add("projection.precompute_us", Mean(reg_precompute), "us");
  outcome.Add("translate.setup_register_us", Mean(setup_translate), "us");
  outcome.Add("index.setup_insert_us", Mean(setup_insert), "us");
  outcome.Add("projection.setup_precompute_us", Mean(setup_precompute), "us");
  outcome.Add("wal.commit_wait_us", Mean(commit_wait), "us");
  outcome.Add("wal.records_per_fsync",
              Ratio(delta("wal.appends"), delta("wal.fsyncs")), "count");
  outcome.Add("wal.bytes_per_mutation",
              Ratio(delta("wal.append_bytes"), delta("wal.appends")), "bytes");
  outcome.Add("wal.recover_load_s", recovery->load_s, "s");
  outcome.Add("wal.recover_replay_s", recovery->replay_s, "s");
  outcome.Add("wal.recover_us_per_record",
              Ratio(recovery->replay_s * 1e6, recovery->records), "us");
  outcome.Add("shard.scatter_overhead_us", Mean(scatter_us), "us");
  outcome.Add("shard.skew", Mean(totals.skew), "ratio");
  outcome.Add("monitor.append_us", Mean(span_us["monitor.append"]), "us");
  outcome.Add("monitor.stepped_ratio",
              Ratio(static_cast<double>(tracing.stepped),
                    static_cast<double>(tracing.stepped + tracing.pruned)),
              "ratio");
  outcome.Add("trace.overhead_ratio", tracing_overhead, "ratio");

  // Human-readable decomposition of the query and mutation paths.
  auto print_query_path = [&](const std::string& kind, double real_us,
                              double other_us) {
    const std::string replay_kind = "replay." + kind;
    std::fprintf(stderr, "broker.%s %.1f us over %zu =", kind.c_str(),
                 real_us, span_us["broker." + kind].size());
    for (const char* layer : kQueryLayers) {
      std::fprintf(stderr, " %s %.1f +", layer,
                   per_replay(replay_kind.c_str(), layer));
    }
    std::fprintf(stderr, " remainder %.1f (replays: %zu, replay.other %.1f)\n",
                 other_us, span_us[replay_kind].size(),
                 per_replay(replay_kind.c_str(), "replay.other"));
  };
  print_query_path("query", query_us, query_other_us);
  print_query_path("batch", batch_us, batch_other_us);
  std::fprintf(stderr,
               "mutation %.1f us over %zu = phases %.1f + bookkeeping %.1f + "
               "commit wait %.1f (spans: %zu)\n",
               Mean(mutation_us), mutation_us.size(), Mean(mutation_phases),
               Mean(mutation_other), Mean(commit_wait), spans.size());
  for (const Metric& m : outcome.metrics) {
    std::fprintf(stderr, "%-30s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!config.trace_out.empty() && !WriteJsonLines(config.trace_out, spans)) {
    outcome.Problem("cannot write " + config.trace_out);
  }
  return outcome;
}

}  // namespace perfbench
