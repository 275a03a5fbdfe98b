#include "broker/snapshot.h"

#include <algorithm>
#include <utility>

#include "core/compatibility.h"
#include "core/witness.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ctdb::broker {

size_t DatabaseSnapshot::ResolveThreads(size_t requested,
                                        const util::ThreadPool* pool) const {
  if (pool == nullptr) return 1;  // no executor: inline on the caller
  const size_t threads = requested == 0 ? options_.threads : requested;
  return threads == 0 ? 1 : threads;
}

Result<CompiledQuery> CompileQuery(const ltl::Formula* query,
                                   ltl::FormulaFactory* factory,
                                   translate::TranslationCache* cache,
                                   const CompileOptions& options) {
  CompiledQuery compiled;
  Timer total;
  // LTL → BA (charged to the query in both modes, §7.3), through the
  // translation cache when there is one: a repeated query structure costs
  // one canonical-key build and a hash probe instead of the tableau
  // pipeline. The miss path opens its own "translate" span.
  QueryStats& stats = compiled.stats;
  CTDB_ASSIGN_OR_RETURN(
      compiled.automaton,
      translate::LtlToBuchiCached(query, factory, cache, options.translate,
                                  nullptr, &stats.translate_cache_hit));
  stats.translate_ms = total.ElapsedMillis();
  stats.query_states = compiled.automaton->StateCount();
  stats.query_transitions = compiled.automaton->TransitionCount();
  compiled.events = compiled.automaton->CitedEvents();
  if (options.condition) {
    Timer extract;
    compiled.condition =
        index::ExtractPruningCondition(*compiled.automaton, options.pruning);
    stats.prefilter_ms = extract.ElapsedMillis();
  }
  stats.total_ms = total.ElapsedMillis();
  return compiled;
}

Result<std::vector<CompiledQuery>> CompileQueries(
    const std::vector<std::string>& texts, const Vocabulary& vocab,
    translate::TranslationCache* cache, const CompileOptions& options,
    util::ThreadPool* pool, size_t threads) {
  // Parse serially, so an unknown-event typo fails the whole batch before
  // anything is translated.
  std::vector<ltl::FormulaFactory> factories(texts.size());
  std::vector<const ltl::Formula*> formulas(texts.size());
  {
    CTDB_OBS_SPAN(parse_span, "query_batch.parse");
    for (size_t i = 0; i < texts.size(); ++i) {
      auto parsed = ltl::Parse(texts[i], &factories[i], vocab);
      if (!parsed.ok()) {
        return Status(parsed.status().code(),
                      "query " + std::to_string(i) + ": " +
                          parsed.status().message());
      }
      formulas[i] = *parsed;
    }
  }
  CTDB_OBS_SPAN(compile_span, "query_batch.compile");
  std::vector<Result<CompiledQuery>> compiled(
      texts.size(), Status::Internal("query not compiled"));
  auto compile_range = [&](size_t start, size_t stride) {
    for (size_t i = start; i < texts.size(); i += stride) {
      compiled[i] = CompileQuery(formulas[i], &factories[i], cache, options);
    }
    return Status::OK();
  };
  const size_t workers = std::min(threads, texts.size());
  if (pool == nullptr || workers <= 1) {
    (void)compile_range(0, 1);
  } else {
    CTDB_RETURN_NOT_OK(pool->ParallelFor(
        0, workers, [&](size_t t) { return compile_range(t, workers); }));
  }
  std::vector<CompiledQuery> out;
  out.reserve(texts.size());
  for (Result<CompiledQuery>& c : compiled) {
    CTDB_RETURN_NOT_OK(c.status());
    out.push_back(std::move(*c));
  }
  return out;
}

CompileOptions DatabaseSnapshot::CompileOptionsFor(
    const QueryOptions& options) const {
  CompileOptions compile;
  compile.translate = options_.translate;
  compile.condition = options.use_prefilter && options_.build_prefilter &&
                      AnswersLatest(options.as_of);
  compile.pruning = options.pruning;
  return compile;
}

Result<QueryResult> DatabaseSnapshot::Query(std::string_view ltl_text,
                                            const QueryOptions& options,
                                            util::ThreadPool* pool) const {
  // Parse with a local factory, read-only against the snapshot vocabulary:
  // unknown events are a NotFound error and nothing shared is touched.
  ltl::FormulaFactory factory;
  CTDB_ASSIGN_OR_RETURN(const ltl::Formula* query,
                        ltl::Parse(ltl_text, &factory, *vocab_));
  return RunQuery(query, &factory, options, pool);
}

Result<QueryResult> DatabaseSnapshot::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // The translation rebuilds `query` into this local factory (NNF
  // normalization copies the formula first), so callers may pass formulas
  // owned by any factory — including the database's shared one — without
  // the read path interning into it.
  ltl::FormulaFactory factory;
  return RunQuery(query, &factory, options, pool);
}

Result<QueryResult> DatabaseSnapshot::RunQuery(const ltl::Formula* query,
                                               ltl::FormulaFactory* factory,
                                               const QueryOptions& options,
                                               util::ThreadPool* pool) const {
  CTDB_OBS_SPAN(query_span, "query");
  CTDB_ASSIGN_OR_RETURN(
      CompiledQuery compiled,
      CompileQuery(query, factory, translation_cache_.get(),
                   CompileOptionsFor(options)));
  CTDB_ASSIGN_OR_RETURN(std::vector<QueryResult> results,
                        Evaluate({&compiled, 1}, options, pool));
  QueryResult& result = results[0];
  CTDB_OBS_SPAN_ATTR(query_span, "candidates", result.stats.candidates);
  CTDB_OBS_SPAN_ATTR(query_span, "matches", result.stats.matches);
  RecordQueryStats(result.stats);
  return std::move(result);
}

Result<std::vector<QueryResult>> DatabaseSnapshot::QueryBatch(
    const std::vector<std::string>& queries, const QueryOptions& options,
    util::ThreadPool* pool) const {
  CTDB_OBS_SPAN(batch_span, "query_batch");
  CTDB_OBS_SPAN_ATTR(batch_span, "queries", queries.size());
  CTDB_ASSIGN_OR_RETURN(
      const std::vector<CompiledQuery> compiled,
      CompileQueries(queries, *vocab_, translation_cache_.get(),
                     CompileOptionsFor(options), pool,
                     ResolveThreads(options.threads, pool)));
  CTDB_ASSIGN_OR_RETURN(std::vector<QueryResult> results,
                        Evaluate(compiled, options, pool));
  for (const QueryResult& result : results) RecordQueryStats(result.stats);
  return results;
}

void DatabaseSnapshot::CheckCandidate(const Contract& contract,
                                      const automata::Buchi& query_ba,
                                      const Bitset& query_events,
                                      const QueryOptions& options,
                                      std::vector<uint32_t>* matches,
                                      std::vector<LassoWord>* witnesses,
                                      core::PermissionStats* stats) const {
  const bool use_projection =
      options.use_projections && options_.build_projections;
  const automata::Buchi& contract_ba =
      use_projection ? contract.projections.ForQueryEvents(query_events)
                     : contract.automaton();
  // Seed states were computed on the registered automaton; the quotient has
  // different state ids, so only pass them through when applicable.
  const Bitset* seeds = use_projection ? nullptr : &contract.seed_states;
  if (core::Permits(contract_ba, contract.events, query_ba,
                    options.permission, seeds, stats)) {
    matches->push_back(contract.id);
    if (options.collect_witnesses) {
      // Witnesses come from the *registered* automaton: the simplified
      // projection's labels are projected, so its runs are not directly
      // presentable contract behavior.
      auto witness = core::FindWitness(contract.automaton(), contract.events,
                                       query_ba);
      witnesses->push_back(witness.has_value() ? std::move(*witness)
                                               : LassoWord{});
    }
  }
}

Result<std::vector<QueryResult>> DatabaseSnapshot::Evaluate(
    std::span<const CompiledQuery> queries, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // Time travel: an as_of clock strictly before this snapshot's answers
  // from the versions visible then; a clock at or past the snapshot is just
  // "latest".
  const bool historical = !AnswersLatest(options.as_of);
  std::vector<const Contract*> visible;
  if (historical) {
    if (options.as_of < history_->floor()) {
      return Status::InvalidArgument(
          "as_of " + std::to_string(options.as_of) +
          " is below the retention floor " +
          std::to_string(history_->floor()) +
          ": history there has been discarded");
    }
    CTDB_OBS_COUNT("broker.queries.as_of", queries.size());
    visible = VisibleAt(options.as_of);
  }
  const bool use_prefilter = options.use_prefilter && options_.build_prefilter;

  // Phase 1: each query's candidates, ascending by contract id. Historical
  // queries take every visible version: the prefilter indexes only live
  // contracts, so using it could drop historical matches. Latest queries
  // evaluate their pruning condition (§4); dead contracts are scrubbed
  // from the index by Unregister/Replace, but the live mask is ANDed in
  // anyway — exactness must not hinge on index hygiene.
  std::vector<QueryResult> results(queries.size());
  std::vector<std::vector<const Contract*>> candidates(queries.size());
  auto select = [&](size_t q) {
    QueryStats& stats = results[q].stats;
    stats = queries[q].stats;
    Timer timer;
    if (historical) {
      candidates[q] = visible;
      stats.database_size = visible.size();
    } else {
      Bitset ids;
      if (use_prefilter && queries[q].condition.has_value()) {
        ids = queries[q].condition->Evaluate(prefilter_);
        ids.Resize(contracts_.size());
        ids &= live_;
      } else {
        ids = live_;
      }
      for (size_t idx : ids.Indices()) {
        candidates[q].push_back(contracts_[idx].get());
      }
      stats.database_size = live_count_;
    }
    stats.prefilter_ms += timer.ElapsedMillis();
    stats.candidates = candidates[q].size();
  };

  // Historical evaluation stays serial; so does everything without an
  // executor or with one thread.
  const size_t threads = historical ? 1 : ResolveThreads(options.threads, pool);
  const char* const select_span_name =
      historical ? "query.as_of" : "query.prefilter";
  if (threads <= 1) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryResult& result = results[q];
      Timer wall;
      {
        CTDB_OBS_SPAN(select_span, select_span_name);
        select(q);
        CTDB_OBS_SPAN_ATTR(select_span, "candidates", candidates[q].size());
      }
      CTDB_OBS_SPAN(permission_span, "query.permission");
      Timer phase;
      for (const Contract* contract : candidates[q]) {
        CheckCandidate(*contract, *queries[q].automaton, queries[q].events,
                       options, &result.matches, &result.witnesses,
                       &result.stats.permission);
      }
      result.stats.permission_ms = phase.ElapsedMillis();
      result.stats.matches = result.matches.size();
      result.stats.total_ms = queries[q].stats.total_ms + wall.ElapsedMillis();
    }
    return results;
  }

  // Parallel phase 1 across queries: every structure read (prefilter, live
  // mask, slot table) is frozen in this snapshot.
  {
    CTDB_OBS_SPAN(select_span, select_span_name);
    const size_t workers = std::min(threads, queries.size());
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, workers, [&](size_t t) {
      for (size_t q = t; q < queries.size(); q += workers) select(q);
      return Status::OK();
    }));
  }

  // Phase 2 (parallel across contract shards): permission checks for the
  // whole batch. Shard s owns the contracts with id ≡ s (mod shards) for
  // *every* query, so each contract's lazy quotient cache is touched by
  // exactly one shard while being shared across all queries.
  size_t total_candidates = 0;
  for (const auto& c : candidates) total_candidates += c.size();
  const size_t shards =
      std::max<size_t>(1, std::min(threads, total_candidates));
  struct ShardOut {
    std::vector<uint32_t> matches;
    std::vector<LassoWord> witnesses;
    core::PermissionStats stats;
    double elapsed_ms = 0;
  };
  std::vector<ShardOut> out(queries.size() * shards);
  {
    CTDB_OBS_SPAN(permission_span, "query.permission");
    CTDB_OBS_SPAN_ATTR(permission_span, "shards", shards);
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, shards, [&](size_t s) {
      for (size_t q = 0; q < queries.size(); ++q) {
        ShardOut& shard = out[q * shards + s];
        Timer timer;
        for (const Contract* contract : candidates[q]) {
          if (contract->id % shards != s) continue;
          CheckCandidate(*contract, *queries[q].automaton, queries[q].events,
                         options, &shard.matches, &shard.witnesses,
                         &shard.stats);
        }
        shard.elapsed_ms = timer.ElapsedMillis();
      }
      return Status::OK();
    }));
  }

  // Phase 3 (serial): merge each query's shards, sorted by contract id.
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryResult& result = results[q];
    std::vector<std::pair<uint32_t, LassoWord>> merged;
    for (size_t s = 0; s < shards; ++s) {
      ShardOut& shard = out[q * shards + s];
      for (size_t i = 0; i < shard.matches.size(); ++i) {
        merged.emplace_back(shard.matches[i],
                            options.collect_witnesses
                                ? std::move(shard.witnesses[i])
                                : LassoWord{});
      }
      result.stats.permission.MergeFrom(shard.stats);
      result.stats.permission_ms += shard.elapsed_ms;
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [id, witness] : merged) {
      result.matches.push_back(id);
      if (options.collect_witnesses) {
        result.witnesses.push_back(std::move(witness));
      }
    }
    result.stats.total_ms = result.stats.translate_ms +
                            result.stats.prefilter_ms +
                            result.stats.permission_ms;
    result.stats.matches = result.matches.size();
  }
  return results;
}

std::vector<const Contract*> DatabaseSnapshot::VisibleAt(uint64_t seq) const {
  // At any clock a contract id has at most one visible version: live
  // versions are open-ended ([valid_from, ∞)) and historical periods of the
  // same id are disjoint (each Replace closes the old period exactly where
  // the new one opens).
  std::vector<const Contract*> visible;
  for (const auto& c : contracts_) {
    if (c != nullptr && c->valid_from <= seq) visible.push_back(c.get());
  }
  for (const ContractVersion& v : history_->versions()) {
    if (v.VisibleAt(seq)) visible.push_back(v.contract.get());
  }
  std::sort(visible.begin(), visible.end(),
            [](const Contract* a, const Contract* b) { return a->id < b->id; });
  return visible;
}

size_t DatabaseSnapshot::ContractMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->automaton().MemoryUsage();
  }
  // Superseded versions never alias live slots (Replace installs a fresh
  // Contract; Unregister empties the slot), so summing both is exact.
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->automaton().MemoryUsage();
  }
  return bytes;
}

size_t DatabaseSnapshot::ProjectionMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->projections.stats().partition_memory_bytes;
  }
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->projections.stats().partition_memory_bytes;
  }
  return bytes;
}

}  // namespace ctdb::broker
