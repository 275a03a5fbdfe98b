// One benchmark client connection: turns planned ops into wire requests,
// tracks the contracts it owns and the lifecycle clocks it was
// acknowledged, times each request, and records every read answer and
// stream delta for the oracle check after the run.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "net/client.h"
#include "net/protocol.h"
#include "oracle.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Observes each request of Conn::Execute, outside its timed interval.
class CallHook {
 public:
  virtual ~CallHook() = default;
  virtual void Before(const ctdb::net::Request& request) = 0;
  virtual void After(const ctdb::net::Request& request,
                     const ctdb::Result<ctdb::net::Response>& response) = 0;
};

/// A read whose answer is checked after the run.
struct Answer {
  std::vector<uint32_t> queries;
  std::shared_ptr<const KnownState> state;
  std::vector<std::vector<uint32_t>> matches;
};

/// One client connection and everything it observed.
class Conn {
 public:
  Conn(const Inputs& in, std::string tag, std::shared_ptr<const KnownState> s,
       CallHook* hook = nullptr)
      : state(std::move(s)), in_(in), tag_(std::move(tag)), hook_(hook) {}

  ctdb::Status Connect(uint16_t port) {
    CTDB_ASSIGN_OR_RETURN(client_, ctdb::net::Client::Connect("127.0.0.1", port));
    return ctdb::Status::OK();
  }

  /// Sends one request and waits for its response (not timed).
  ctdb::Result<ctdb::net::Response> Call(ctdb::net::Request request) {
    request.id = next_id_++;
    CTDB_ASSIGN_OR_RETURN(auto response, client_->Call(request));
    if (!response.status().ok()) return response.status();
    return response;
  }

  ctdb::Status OpenStream(std::string name) {
    CTDB_RETURN_NOT_OK(Call(ctdb::net::Request::StreamOpen(0, name)).status());
    stream_ = std::move(name);
    return ctdb::Status::OK();
  }
  ctdb::Status CloseStream() {
    if (stream_.empty()) return ctdb::Status::OK();
    return Call(ctdb::net::Request::StreamClose(0, std::exchange(stream_, {}))).status();
  }

  /// Executes one planned op; `record` keeps its latency. False when the
  /// transport broke (the connection is then unusable).
  bool Execute(const PlannedOp& op, bool record);

  std::shared_ptr<const KnownState> state;
  /// Lifecycle clocks this connection was acknowledged, with its state
  /// right after each.
  std::vector<std::pair<uint64_t, std::shared_ptr<const KnownState>>> clocks;
  std::array<std::vector<double>, kOpKinds> latency_us;
  std::vector<Answer> answers;
  std::vector<ctdb::monitor::EventBatch> stream_batches;
  std::vector<std::vector<ctdb::monitor::VerdictDelta>> stream_deltas;
  std::vector<uint64_t> stream_events;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;  ///< acked LTL + name bytes
  std::vector<std::string> problems;
  Clock::time_point finished;

 private:
  void Fail(std::string what) {
    ++failed;
    if (problems.size() < 5) problems.push_back(tag_ + ": " + what);
  }

  const Inputs& in_;
  const std::string tag_;
  CallHook* hook_;
  std::unique_ptr<ctdb::net::Client> client_;
  std::string stream_;
  uint64_t next_id_ = 1;
  uint64_t serial_ = 0;
};

}  // namespace perfbench
