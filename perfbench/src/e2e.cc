// The timed end-to-end run: one ctdb_server child, driven by this process
// over the wire protocol with net::Client, every answer checked against the
// oracle after the timed window closes.
//
// Phases of a run:
//   1. Set-up, `setups` times on fresh directories: start the server and
//      register the set-up contracts; setup_s is the median. The last
//      server stays up.
//   2. Warm-up (not timed): every pool query once.
//   3. Main window of --seconds: the workload's mix on `connections`
//      connections, each in a closed loop.
//   4. Side probes: fixed counts of the op kinds the main mix lacks, on
//      one connection, so every workload reports every metric.
//   5. Graceful drain (SIGTERM), disk usage, then `restarts` timed
//      restarts on the same directory (restart -> first answered query);
//      after the first, a fixed probe set must answer exactly as the
//      oracle replaying the acknowledged mutations.
//   6. Verification of every recorded answer and stream delta.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conn.h"
#include "run.h"
#include "server_process.h"
#include "stats.h"

namespace perfbench {

void RunOutcome::Problem(std::string what) {
  if (problems.size() < 10) std::fprintf(stderr, "problem: %s\n", what.c_str());
  problems.push_back(std::move(what));
}

namespace {

/// Counter `name` of a metrics JSON dump ({"counters":{"name":N,...},...}).
double CounterValue(const std::string& json, std::string_view name) {
  const std::string open = "{\"counters\":{";
  const size_t begin = json.find(open);
  if (begin == std::string::npos) return 0;
  const size_t end = json.find('}', begin + open.size());
  const std::string key = "\"" + std::string(name) + "\":";
  const size_t at = json.find(key, begin);
  if (at == std::string::npos || at > end) return 0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

}  // namespace

double ServerCounters::Delta(std::string_view name) const {
  return CounterValue(after, name) - CounterValue(before, name);
}

namespace {

using ctdb::net::Client;
using ctdb::net::Request;

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& dir) {
  std::vector<std::string> args = {
      "--dir=" + dir,
      "--port=0",
      "--workers=" + std::to_string(spec.server_workers),
      "--db-threads=" + std::to_string(spec.db_threads),
      "--fsync=group",
  };
  if (spec.shards > 0) args.push_back("--shards=" + std::to_string(spec.shards));
  return args;
}

struct SetUpServer {
  std::unique_ptr<ServerProcess> server;
  double seconds = 0;
  uint64_t user_bytes = 0;
};

/// Starts a server on a fresh `dir` and registers the set-up contracts.
ctdb::Result<SetUpServer> SetUp(const RunConfig& config, const Inputs& in,
                                const std::string& dir) {
  SetUpServer out;
  const Clock::time_point start = Clock::now();
  CTDB_ASSIGN_OR_RETURN(
      out.server, ServerProcess::Start(config.server_bin,
                                       ServerArgs(*config.spec, dir),
                                       config.work_dir + "/server.log"));
  CTDB_ASSIGN_OR_RETURN(auto client,
                        Client::Connect("127.0.0.1", out.server->port()));
  const size_t chunk = SetupBatchSize(*config.spec);
  uint64_t request_id = 1;
  for (size_t begin = 0; begin < in.preload_count; begin += chunk) {
    const size_t end = std::min(in.preload_count, begin + chunk);
    std::vector<Request::Entry> entries;
    for (size_t i = begin; i < end; ++i) {
      entries.push_back({"s" + std::to_string(i), in.texts[i]});
      out.user_bytes += entries.back().name.size() + in.texts[i].size();
    }
    CTDB_ASSIGN_OR_RETURN(
        auto response,
        client->Call(Request::RegisterBatch(request_id++, std::move(entries))));
    CTDB_RETURN_NOT_OK(response.status());
    for (size_t i = begin; i < end; ++i) {
      if (response.ids.size() != end - begin || response.ids[i - begin] != i) {
        return ctdb::Status::Internal("set-up ids are not 0..n-1 in order");
      }
    }
  }
  out.seconds = Seconds(Clock::now() - start);
  return out;
}

struct Samples {
  std::array<std::vector<double>, kOpKinds> by_op;
  std::vector<double>& operator[](Op op) {
    return by_op[static_cast<size_t>(op)];
  }
};

void Absorb(const Conn& conn, Samples* samples, RunOutcome* outcome) {
  for (size_t k = 0; k < kOpKinds; ++k) {
    auto& dst = samples->by_op[k];
    dst.insert(dst.end(), conn.latency_us[k].begin(), conn.latency_us[k].end());
  }
  outcome->attempted += conn.attempted;
  outcome->failed += conn.failed;
  for (const std::string& p : conn.problems) outcome->Problem(p);
}

/// Checks every recorded answer and stream delta of `conns`.
void Verify(const RunConfig& config, const Inputs& in, Oracle* oracle,
            const std::vector<const Conn*>& conns, RunOutcome* outcome) {
  std::vector<const std::string*> texts;
  for (const Conn* c : conns) {
    for (const Answer& a : c->answers) {
      for (uint32_t q : a.queries) texts.push_back(&in.queries[q]);
    }
  }
  const ctdb::Status prepared = oracle->Prepare(texts, 4);
  if (!prepared.ok()) {
    outcome->Problem(prepared.ToString());
    return;
  }
  std::vector<uint32_t> everyone;  // ids some connection registered
  for (const Conn* c : conns) {
    everyone.insert(everyone.end(), c->state->own_ever.begin(),
                    c->state->own_ever.end());
  }
  std::sort(everyone.begin(), everyone.end());

  size_t wrong = 0;
  for (const Conn* c : conns) {
    for (const Answer& a : c->answers) {
      std::vector<uint32_t> foreign;
      std::string first;
      for (size_t i = 0; i < a.queries.size(); ++i) {
        std::string diff =
            CheckAnswer(oracle->Permits(in.queries[a.queries[i]]), *a.state,
                        a.matches[i], &foreign);
        if (!diff.empty() && first.empty()) {
          first = "query " + std::to_string(a.queries[i]) + ": " + diff;
        }
      }
      for (uint32_t id : foreign) {
        if (!std::binary_search(everyone.begin(), everyone.end(), id)) {
          first = "match " + std::to_string(id) + " is no known contract";
        }
      }
      if (!first.empty()) {
        ++wrong;
        ++outcome->failed;
        if (wrong <= 3) outcome->Problem("wrong answer: " + first);
      }
    }
  }

  std::vector<const Conn*> streaming;
  std::vector<std::vector<ctdb::monitor::EventBatch>> streams;
  for (const Conn* c : conns) {
    if (c->stream_batches.empty()) continue;
    streaming.push_back(c);
    streams.push_back(c->stream_batches);
  }
  if (streams.empty()) return;
  auto expected =
      ReplayStreams(*config.spec, in, config.work_dir + "/stream-oracle",
                    streams);
  if (!expected.ok()) {
    outcome->Problem("stream oracle: " + expected.status().ToString());
    return;
  }
  for (size_t s = 0; s < streaming.size(); ++s) {
    const Conn* c = streaming[s];
    uint64_t events = 0;
    for (size_t i = 0; i < c->stream_batches.size(); ++i) {
      events += c->stream_batches[i].size();
      if ((*expected)[s][i] != c->stream_deltas[i] ||
          c->stream_events[i] != events) {
        ++outcome->failed;
        outcome->Problem("stream append " + std::to_string(i) +
                         " differs from the monitor oracle");
        break;
      }
    }
  }
}

}  // namespace

RunOutcome RunEndToEnd(const RunConfig& config, ServerCounters* counters) {
  RunOutcome outcome;
  const WorkloadSpec& spec = *config.spec;
  auto inputs = MakeInputs(spec, config.seed, config.seconds);
  if (!inputs.ok()) {
    outcome.Problem("inputs: " + inputs.status().ToString());
    return outcome;
  }
  const Inputs& in = *inputs;
  auto oracle = Oracle::Build(in, 4);
  if (!oracle.ok()) {
    outcome.Problem("oracle: " + oracle.status().ToString());
    return outcome;
  }
  {
    std::vector<const std::string*> pool;
    for (uint32_t q : in.warm) pool.push_back(&in.queries[q]);
    for (uint32_t q : in.probes) pool.push_back(&in.queries[q]);
    const ctdb::Status st = (*oracle)->Prepare(pool, 4);
    if (!st.ok()) {
      outcome.Problem(st.ToString());
      return outcome;
    }
  }

  // 1. Set-ups.
  std::vector<double> setup_s;
  SetUpServer live;
  std::string dir;
  for (size_t k = 0; k < spec.setups; ++k) {
    dir = config.work_dir + "/db" + std::to_string(k);
    auto up = SetUp(config, in, dir);
    if (!up.ok()) {
      outcome.Problem("set-up: " + up.status().ToString());
      return outcome;
    }
    setup_s.push_back(up->seconds);
    std::fprintf(stderr, "set-up %zu: %.3f s, rss %.1f MiB\n", k, up->seconds,
                 up->server->PeakRssMb());
    if (k + 1 < spec.setups) {
      const ctdb::Status st = up->server->Stop();
      if (!st.ok()) outcome.Problem(st.ToString());
      std::filesystem::remove_all(dir);
    } else {
      live = std::move(*up);
    }
  }
  const uint16_t port = live.server->port();
  auto preload = std::make_shared<KnownState>();
  preload->preload = static_cast<uint32_t>(in.preload_count);

  // 2. Warm-up.
  Conn warm(in, "warm", preload);
  if (const auto st = warm.Connect(port); !st.ok()) {
    outcome.Problem("connect: " + st.ToString());
    return outcome;
  }
  for (uint32_t q : in.warm) {
    PlannedOp op;
    op.queries = {q};
    warm.Execute(op, /*record=*/false);
  }

  auto dump_counters = [&](Conn* conn, std::string ServerCounters::*dump) {
    if (counters == nullptr) return;
    auto stats = conn->Call(Request::Stats(0));
    if (stats.ok()) {
      counters->*dump = std::move(stats->stats_json);
    } else {
      outcome.Problem("stats: " + stats.status().ToString());
    }
  };
  dump_counters(&warm, &ServerCounters::before);

  // 3. Main window.
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < spec.connections; ++c) {
    conns.push_back(
        std::make_unique<Conn>(in, "c" + std::to_string(c), preload));
    ctdb::Status st = conns.back()->Connect(port);
    if (st.ok() && spec.workload == Workload::kWriteChurn) {
      st = conns.back()->OpenStream("churn-" + std::to_string(c));
    }
    if (!st.ok()) {
      outcome.Problem("connect: " + st.ToString());
      return outcome;
    }
  }
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds));
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline = start + window;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *conns[c];
      const auto& stream = in.main[c];
      std::this_thread::sleep_until(start);
      size_t i = 0;
      for (; i < stream.size() && Clock::now() < deadline; ++i) {
        if (!conn.Execute(stream[i], true)) break;
      }
      if (i == stream.size()) {
        conn.problems.push_back("request stream ran dry before the window");
      }
      conn.finished = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point finished = start;
  size_t completed = 0;
  for (const auto& c : conns) {
    finished = std::max(finished, c->finished);
    for (const auto& v : c->latency_us) completed += v.size();
  }
  const double elapsed = Seconds(finished - start);
  for (auto& c : conns) {
    if (const auto st = c->CloseStream(); !st.ok()) {
      outcome.Problem("stream close: " + st.ToString());
    }
  }

  // 4. Side probes, on the merged state of the main connections.
  auto merged = std::make_shared<KnownState>(*preload);
  for (const auto& c : conns) {
    merged->own_live.insert(merged->own_live.end(), c->state->own_live.begin(),
                            c->state->own_live.end());
    merged->own_ever.insert(merged->own_ever.end(), c->state->own_ever.begin(),
                            c->state->own_ever.end());
  }
  std::sort(merged->own_ever.begin(), merged->own_ever.end());
  Conn side(in, "side", merged);
  {
    ctdb::Status st = side.Connect(port);
    const bool streams = std::any_of(
        in.side.begin(), in.side.end(),
        [](const PlannedOp& op) { return op.op == Op::kStreamAppend; });
    if (st.ok() && streams) st = side.OpenStream("side");
    if (!st.ok()) {
      outcome.Problem("side probes: " + st.ToString());
      return outcome;
    }
    for (const PlannedOp& op : in.side) {
      if (!side.Execute(op, true)) break;
    }
    if (const auto closed = side.CloseStream(); !closed.ok()) {
      outcome.Problem("stream close: " + closed.ToString());
    }
    dump_counters(&side, &ServerCounters::after);
  }

  // 5. Drain, disk, timed restarts, post-restart probes.
  const double rss_mb = live.server->PeakRssMb();
  if (const auto st = live.server->Stop(); !st.ok()) {
    outcome.Problem("drain: " + st.ToString());
  }
  const uint64_t disk = DirectoryBytes(dir);
  uint64_t user_bytes = live.user_bytes + side.user_bytes;
  for (const auto& c : conns) user_bytes += c->user_bytes;

  std::vector<double> recover_s;
  Conn probe(in, "probe", side.state);
  for (size_t r = 0; r < spec.restarts; ++r) {
    // Spread the restarts out: the host's speed drifts over seconds, and
    // back-to-back restarts would all sample the same moment.
    if (r > 0) std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const Clock::time_point t0 = Clock::now();
    auto server = ServerProcess::Start(config.server_bin, ServerArgs(spec, dir),
                                       config.work_dir + "/server.log");
    if (!server.ok()) {
      outcome.Problem("restart: " + server.status().ToString());
      break;
    }
    Conn first(in, "restart", side.state);
    ctdb::Status st = first.Connect((*server)->port());
    if (st.ok()) {
      st = first.Call(Request::Query(0, in.queries[in.probes[0]])).status();
    }
    recover_s.push_back(Seconds(Clock::now() - t0));
    std::fprintf(stderr, "restart %zu: %.3f s\n", r, recover_s.back());
    if (st.ok() && r == 0) st = probe.Connect((*server)->port());
    if (!st.ok()) outcome.Problem("restart: " + st.ToString());
    if (st.ok() && r == 0) {
      for (uint32_t q : in.probes) {
        PlannedOp op;
        op.queries = {q};
        probe.Execute(op, false);
      }
    }
    if (const auto stopped = (*server)->Stop(); !stopped.ok()) {
      outcome.Problem("restart drain: " + stopped.ToString());
    }
  }

  // 6. Verification and metrics.
  Samples samples;
  for (const auto& c : conns) Absorb(*c, &samples, &outcome);
  Absorb(side, &samples, &outcome);
  Absorb(probe, &samples, &outcome);
  Absorb(warm, &samples, &outcome);
  std::vector<const Conn*> all = {&warm, &side, &probe};
  for (const auto& c : conns) all.push_back(c.get());
  Verify(config, in, oracle->get(), all, &outcome);
  if (probe.answers.size() != in.probes.size()) {
    outcome.Problem("post-restart probes did not all answer");
  }

  std::fprintf(stderr, "%-28s %14s %8s %6s\n", "metric", "value", "samples",
               "pct");
  // `count` is the number of latency samples behind a percentile metric,
  // 0 for the single-valued ones.
  auto report = [&](const std::string& name, double value, const char* unit,
                    size_t count, int percentile) {
    std::fprintf(stderr, "%-28s %14.3f %8zu %6d  %s\n", name.c_str(), value,
                 count, percentile, unit);
    if (percentile > 0 && count < 20) {
      outcome.Problem(name + " has only " + std::to_string(count) +
                      " samples");
    }
    outcome.Add(name, value, unit);
  };
  auto p50 = [&](const char* name, Op op) {
    report(name, Median(samples[op]), "us", samples[op].size(), 50);
  };
  auto tail = [&](const char* name, Op op) {
    const Tail t = TailPercentile(samples[op]);
    if (t.percentile < 99) {
      std::fprintf(stderr, "note: %s is p%d (%zu samples beyond it)\n", name,
                   t.percentile, t.beyond);
    }
    report(name, t.value, "us", samples[op].size(), t.percentile);
  };
  report("setup_s", Median(setup_s), "s", 0, 0);
  report("ops_per_s",
         elapsed > 0 ? static_cast<double>(completed) / elapsed : 0, "1/s", 0,
         0);
  p50("query_p50_us", Op::kQuery);
  tail("query_p99_us", Op::kQuery);
  p50("batch_p50_us", Op::kBatch);
  p50("register_p50_us", Op::kRegister);
  p50("replace_p50_us", Op::kReplace);
  p50("unregister_p50_us", Op::kUnregister);
  p50("asof_query_p50_us", Op::kAsOf);
  p50("stream_append_p50_us", Op::kStreamAppend);
  // The fastest restart: one run's restarts differ by up to 40% on a shared
  // host, far more than their median moves between runs of one build.
  report("recover_s",
         recover_s.empty()
             ? 0
             : *std::min_element(recover_s.begin(), recover_s.end()),
         "s", 0, 0);
  report("server_rss_mb", rss_mb, "MiB", 0, 0);
  report("disk_bytes_per_user_byte",
         user_bytes > 0 ? static_cast<double>(disk) /
                              static_cast<double>(user_bytes)
                        : 0,
         "ratio", 0, 0);
  std::fprintf(stderr, "main window: %zu requests in %.3f s\n", completed,
               elapsed);
  return outcome;
}

}  // namespace perfbench
