#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <unordered_set>

#include "base/vocabulary.h"
#include "ltl/formula.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

/// Seed of the fixed datasets (contract texts and query pools).
constexpr uint64_t kDatasetSeed = 2011;

constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kReadHot, "read_hot", 0, 2, 2, 2, 3, 7},
    {Workload::kReadColdSharded, "read_cold_sharded", 4, 2, 1, 2, 3, 7},
    {Workload::kWriteChurn, "write_churn", 0, 2, 1, 2, 5, 7},
};

/// Set-up contracts of the read workloads, and their size in properties.
constexpr size_t kReadContracts = 100;
constexpr size_t kReadContractProperties = 3;
/// Set-up contracts of write_churn (single-property).
constexpr size_t kChurnPreload = 2000;
constexpr size_t kChurnTexts = 64;
constexpr size_t kQueryProperties = 2;
constexpr size_t kBatchSize = 4;
constexpr size_t kProbeCount = 16;
/// Side probes per op kind (Unregister: half as many).
constexpr size_t kSideOps = 400;

std::vector<std::string> Generate(size_t properties, size_t count,
                                  uint64_t seed) {
  ctdb::Vocabulary vocab;
  ctdb::ltl::FormulaFactory factory;
  ctdb::workload::GeneratorOptions options;
  options.vocabulary_size = kVocabulary;
  options.properties = properties;
  ctdb::workload::SpecGenerator generator(options, seed, &vocab, &factory);
  std::vector<std::string> texts;
  while (texts.size() < count) {
    auto spec = generator.Next();
    if (spec.ok()) texts.push_back(spec->text);
  }
  return texts;
}

std::string PrimingText() {
  std::string text = "F (";
  for (size_t i = 1; i <= kVocabulary; ++i) {
    if (i > 1) text += " | ";
    text += "p" + std::to_string(i);
  }
  return text + ")";
}

/// A stream append of `instants` instants with 0-3 random events each.
ctdb::monitor::EventBatch RandomBatch(ctdb::Rng* rng, size_t instants) {
  ctdb::monitor::EventBatch batch(instants);
  for (auto& instant : batch) {
    const size_t events = rng->Uniform(4);
    for (size_t i = 0; i < events; ++i) {
      instant.push_back("p" + std::to_string(1 + rng->Uniform(kVocabulary)));
    }
  }
  return batch;
}

/// Deals the elements of a pool in rounds, each round a fresh seeded
/// permutation: every element comes up equally often, so the cost mix of a
/// run does not hinge on which pool entries a seed happens to favour.
class Dealer {
 public:
  Dealer(std::vector<uint32_t> pool, ctdb::Rng* rng)
      : pool_(std::move(pool)), rng_(rng), next_(pool_.size()) {}

  uint32_t Next() {
    if (next_ == pool_.size()) {
      rng_->Shuffle(&pool_);
      next_ = 0;
    }
    return pool_[next_++];
  }

 private:
  std::vector<uint32_t> pool_;
  ctdb::Rng* rng_;
  size_t next_;
};

/// Draws distinct cold query texts: a base query with its events renamed
/// by a random permutation, never repeating any text already issued.
class ColdQueries {
 public:
  ColdQueries(Inputs* inputs, std::vector<uint32_t> base, uint64_t seed)
      : inputs_(inputs), rng_(seed), base_(std::move(base), &rng_) {
    for (const std::string& q : inputs_->queries) seen_.insert(q);
  }

  uint32_t Next() {
    std::vector<uint32_t> perm(kVocabulary);
    for (;;) {
      std::iota(perm.begin(), perm.end(), 0);
      rng_.Shuffle(&perm);
      const std::string& base = inputs_->queries[base_.Next()];
      std::string text = RenameEvents(base, perm);
      if (seen_.insert(text).second) {
        inputs_->queries.push_back(std::move(text));
        return static_cast<uint32_t>(inputs_->queries.size() - 1);
      }
    }
  }

 private:
  Inputs* inputs_;
  ctdb::Rng rng_;
  Dealer base_;
  std::unordered_set<std::string> seen_;
};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

size_t SetupBatchSize(const WorkloadSpec& spec) {
  // Small enough that multi-property set-ups still spread over the server's
  // registration threads, large enough to amortize commits.
  return spec.workload == Workload::kWriteChurn ? 500 : 10;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kBatch: return "batch";
    case Op::kAsOf: return "asof_query";
    case Op::kRegister: return "register";
    case Op::kReplace: return "replace";
    case Op::kUnregister: return "unregister";
    case Op::kStreamAppend: return "stream_append";
  }
  return "?";
}

std::string RenameEvents(std::string_view text,
                         const std::vector<uint32_t>& perm) {
  std::string out;
  out.reserve(text.size() + 8);
  for (size_t i = 0; i < text.size();) {
    const bool token_start =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                    text[i - 1] == '_');
    if (token_start && text[i] == 'p' && i + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
      size_t j = i + 1;
      size_t k = 0;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j]))) {
        k = k * 10 + static_cast<size_t>(text[j] - '0');
        ++j;
      }
      const bool token_end =
          j == text.size() ||
          !(std::isalnum(static_cast<unsigned char>(text[j])) ||
            text[j] == '_');
      if (token_end && k >= 1 && k <= perm.size()) {
        out += "p" + std::to_string(perm[k - 1] + 1);
        i = j;
        continue;
      }
    }
    out += text[i++];
  }
  return out;
}

ctdb::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                double seconds) {
  Inputs in;
  const bool churn_workload = spec.workload == Workload::kWriteChurn;
  const bool cold = spec.workload == Workload::kReadColdSharded;

  // Contract texts: priming contract, set-up contracts, churn texts.
  in.texts.push_back(PrimingText());
  for (std::string& t :
       churn_workload
           ? Generate(1, kChurnPreload, kDatasetSeed + 3)
           : Generate(kReadContractProperties, kReadContracts, kDatasetSeed)) {
    in.texts.push_back(std::move(t));
  }
  in.preload_count = in.texts.size();
  for (std::string& t : Generate(1, kChurnTexts, kDatasetSeed + 2)) {
    in.churn.push_back(static_cast<uint32_t>(in.texts.size()));
    in.texts.push_back(std::move(t));
  }

  // Query pools: read_hot and write_churn reuse a warm pool that fits the
  // 256-entry translation cache; read_cold_sharded renames a base pool.
  in.queries = Generate(kQueryProperties, churn_workload ? 64 : 128,
                        kDatasetSeed + 1);
  std::vector<uint32_t> pool(in.queries.size());
  std::iota(pool.begin(), pool.end(), 0);
  in.probes.assign(pool.begin(), pool.begin() + kProbeCount);
  if (!cold) in.warm = pool;

  ctdb::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  ColdQueries fresh(&in, pool, seed ^ 0xC01D);
  Dealer churn(in.churn, &rng);
  std::vector<uint32_t> sizes = {1, 2, 3, 4};

  // Main streams, sized well past what a window of `seconds` can consume;
  // running dry fails the run rather than capping it.
  const size_t per_conn = static_cast<size_t>(seconds * (cold ? 800 : 4000));
  in.main.resize(spec.connections);
  for (auto& stream : in.main) {
    Dealer queries(pool, &rng);
    Dealer instants(sizes, &rng);
    auto pool_pick = [&]() { return queries.Next(); };
    stream.reserve(per_conn);
    for (size_t i = 0; i < per_conn; ++i) {
      PlannedOp op;
      const double dice = rng.UniformDouble();
      switch (spec.workload) {
        case Workload::kReadHot:
          if (dice < 0.8) {
            op.queries = {pool_pick()};
          } else {
            op.op = Op::kBatch;
            for (size_t b = 0; b < kBatchSize; ++b) {
              op.queries.push_back(pool_pick());
            }
          }
          break;
        case Workload::kReadColdSharded:
          op.queries = {fresh.Next()};
          break;
        case Workload::kWriteChurn:
          // ctdb_loadgen's mix with --lifecycle-mix --stream-mix
          // --query-batch-pct=0: 10% Register, a 20% lifecycle band split
          // evenly between Replace and Unregister, 20% StreamAppend, and
          // single queries for the rest, a quarter of them as-of.
          if (dice < 0.10) {
            op.op = Op::kRegister;
          } else if (dice < 0.20) {
            op.op = Op::kReplace;
          } else if (dice < 0.30) {
            op.op = Op::kUnregister;
          } else if (dice < 0.50) {
            op.op = Op::kStreamAppend;
            op.events = RandomBatch(&rng, instants.Next());
          } else if (dice < 0.625) {
            op.op = Op::kAsOf;
            op.queries = {pool_pick()};
          } else {
            op.queries = {pool_pick()};
          }
          break;
      }
      op.text = churn.Next();
      op.pick = rng.UniformDouble();
      stream.push_back(std::move(op));
    }
  }

  // Side probes: fixed counts of the op kinds the main mix lacks. The first
  // registrations come first so lifecycle ops have targets.
  Dealer side_queries(pool, &rng);
  Dealer instants(sizes, &rng);
  auto query_id = [&]() { return cold ? fresh.Next() : side_queries.Next(); };
  auto add_side = [&](Op kind, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      PlannedOp op;
      op.op = kind;
      // Every op carries a text: a Replace or Unregister that finds no
      // target registers it instead.
      op.text = churn.Next();
      switch (kind) {
        case Op::kAsOf:
          // Time travel is a scan over every visible version: pool queries
          // keep its cost about the scan, not about cold translation.
          op.queries = {side_queries.Next()};
          break;
        case Op::kBatch:
          for (size_t b = 0; b < kBatchSize; ++b) {
            op.queries.push_back(query_id());
          }
          break;
        case Op::kStreamAppend:
          op.events = RandomBatch(&rng, instants.Next());
          break;
        default:
          break;
      }
      op.pick = rng.UniformDouble();
      in.side.push_back(std::move(op));
    }
  };
  if (churn_workload) {
    // The only side probe here, and a cheap one: three times as many, so
    // the phase spans seconds of the host's speed drift, not one.
    add_side(Op::kBatch, 3 * kSideOps);
  } else {
    add_side(Op::kRegister, kSideOps);
    const size_t head = 50;
    add_side(Op::kReplace, kSideOps);
    add_side(Op::kUnregister, kSideOps / 2);
    add_side(Op::kAsOf, kSideOps);
    add_side(Op::kStreamAppend, kSideOps);
    if (cold) add_side(Op::kBatch, kSideOps);
    for (size_t i = in.side.size() - 1; i > head; --i) {
      std::swap(in.side[i],
                in.side[head + rng.Uniform(i - head + 1)]);
    }
  }
  return in;
}

}  // namespace perfbench
