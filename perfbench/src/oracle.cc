#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "broker/durable.h"
#include "shard/sharded.h"

namespace perfbench {

std::string CheckAnswer(const std::vector<char>& permits,
                        const KnownState& state,
                        const std::vector<uint32_t>& actual,
                        std::vector<uint32_t>* foreign) {
  std::vector<uint32_t> expected;
  for (uint32_t id = 0; id < state.preload; ++id) {
    if (permits[id]) expected.push_back(id);
  }
  for (const auto& [id, text] : state.own_live) {
    if (permits[text]) expected.push_back(id);
  }
  std::sort(expected.begin(), expected.end());

  std::vector<uint32_t> known;
  for (uint32_t id : actual) {
    if (id < state.preload ||
        std::binary_search(state.own_ever.begin(), state.own_ever.end(), id)) {
      known.push_back(id);
    } else if (foreign != nullptr) {
      foreign->push_back(id);
    }
  }
  std::sort(known.begin(), known.end());
  if (known == expected) return {};

  std::vector<uint32_t> missing;
  std::vector<uint32_t> extra;
  std::set_difference(expected.begin(), expected.end(), known.begin(),
                      known.end(), std::back_inserter(missing));
  std::set_difference(known.begin(), known.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::string what = "expected " + std::to_string(expected.size()) +
                     " matches, got " + std::to_string(known.size());
  if (!missing.empty()) what += "; missing id " + std::to_string(missing[0]);
  if (!extra.empty()) what += "; unexpected id " + std::to_string(extra[0]);
  return what;
}

ctdb::Result<std::unique_ptr<Oracle>> Oracle::Build(const Inputs& inputs,
                                                    size_t threads) {
  std::unique_ptr<Oracle> oracle(new Oracle());
  ctdb::broker::DatabaseOptions options;
  options.threads = threads;
  oracle->db_ = std::make_unique<ctdb::broker::ContractDatabase>(options);
  std::vector<ctdb::broker::ContractDatabase::BatchEntry> batch;
  for (size_t i = 0; i < inputs.texts.size(); ++i) {
    batch.push_back({"t" + std::to_string(i), inputs.texts[i]});
  }
  CTDB_ASSIGN_OR_RETURN(auto ids, oracle->db_->RegisterBatch(batch, threads));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) return ctdb::Status::Internal("oracle ids are not dense");
  }
  oracle->texts_ = inputs.texts.size();
  return oracle;
}

ctdb::Status Oracle::Prepare(const std::vector<const std::string*>& queries,
                             size_t threads) {
  std::vector<const std::string*> todo;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string* q : queries) {
      if (memo_.emplace(*q, std::vector<char>()).second) todo.push_back(q);
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  ctdb::broker::QueryOptions options;
  options.threads = 1;
  auto work = [&]() {
    for (size_t i = next++; i < todo.size() && !failed; i = next++) {
      auto result = db_->Query(*todo[i], options);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!result.ok()) {
        failed = true;
        error = *todo[i] + ": " + result.status().ToString();
        return;
      }
      std::vector<char>& permits = memo_[*todo[i]];
      permits.assign(texts_, 0);
      for (uint32_t id : result->matches) permits[id] = 1;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();
  if (failed) return ctdb::Status::Internal("oracle query failed: " + error);
  return ctdb::Status::OK();
}

const std::vector<char>& Oracle::Permits(const std::string& query) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memo_.at(query);
}

ctdb::Result<std::vector<StreamDeltas>> ReplayStreams(
    const WorkloadSpec& spec, const Inputs& inputs, const std::string& dir,
    const std::vector<std::vector<ctdb::monitor::EventBatch>>& streams) {
  ctdb::wal::DurabilityOptions durability;
  durability.fsync_policy = ctdb::wal::FsyncPolicy::kNever;
  ctdb::broker::DatabaseOptions options;
  options.threads = spec.db_threads;
  std::unique_ptr<ctdb::broker::Broker> broker;
  if (spec.shards > 0) {
    options.shards = spec.shards;
    CTDB_ASSIGN_OR_RETURN(broker, ctdb::shard::ShardedDatabase::Open(
                                      dir, durability, options));
  } else {
    CTDB_ASSIGN_OR_RETURN(
        broker, ctdb::broker::DurableDatabase::Open(dir, durability, options));
  }
  const size_t chunk = SetupBatchSize(spec);
  for (size_t begin = 0; begin < inputs.preload_count; begin += chunk) {
    std::vector<ctdb::broker::ContractDatabase::BatchEntry> batch;
    for (size_t i = begin; i < std::min(inputs.preload_count, begin + chunk);
         ++i) {
      batch.push_back({"s" + std::to_string(i), inputs.texts[i]});
    }
    CTDB_RETURN_NOT_OK(broker->RegisterBatch(batch).status());
  }
  std::vector<StreamDeltas> out;
  for (size_t s = 0; s < streams.size(); ++s) {
    const std::string name = "oracle-" + std::to_string(s);
    CTDB_RETURN_NOT_OK(broker->StreamOpen(name).status());
    StreamDeltas deltas;
    for (const auto& batch : streams[s]) {
      CTDB_ASSIGN_OR_RETURN(auto appended, broker->StreamAppend(name, batch));
      deltas.push_back(std::move(appended.deltas));
    }
    CTDB_RETURN_NOT_OK(broker->StreamClose(name).status());
    out.push_back(std::move(deltas));
  }
  CTDB_RETURN_NOT_OK(broker->Close());
  return out;
}

}  // namespace perfbench
