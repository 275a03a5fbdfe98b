#include "conn.h"

#include <algorithm>

namespace perfbench {

using ctdb::net::Request;

bool Conn::Execute(const PlannedOp& op, bool record) {
  Op kind = op.op;
  std::shared_ptr<const KnownState> read_state = state;
  const auto& live = state->own_live;
  if ((kind == Op::kReplace || kind == Op::kUnregister) && live.empty()) {
    kind = Op::kRegister;
  }
  if (kind == Op::kAsOf && clocks.empty()) kind = Op::kQuery;
  const size_t pick = static_cast<size_t>(
      op.pick * static_cast<double>(std::max<size_t>(live.size(), 1)));

  Request request;
  std::string name;
  uint64_t as_of = 0;
  const uint64_t id = next_id_++;
  switch (kind) {
    case Op::kQuery:
      request = Request::Query(id, in_.queries[op.queries[0]]);
      break;
    case Op::kAsOf: {
      const auto& entry = clocks[static_cast<size_t>(
          op.pick * static_cast<double>(clocks.size()))];
      as_of = entry.first;
      read_state = entry.second;
      request = Request::Query(id, in_.queries[op.queries[0]], as_of);
      break;
    }
    case Op::kBatch: {
      std::vector<std::string> texts;
      for (uint32_t q : op.queries) texts.push_back(in_.queries[q]);
      request = Request::QueryBatch(id, std::move(texts));
      break;
    }
    case Op::kRegister:
      name = tag_ + "-" + std::to_string(serial_++);
      request = Request::Register(id, name, in_.texts[op.text]);
      break;
    case Op::kReplace:
      request = Request::Replace(id, live[pick].first, in_.texts[op.text]);
      break;
    case Op::kUnregister:
      request = Request::Unregister(id, live[pick].first);
      break;
    case Op::kStreamAppend:
      request = Request::StreamAppend(id, stream_, op.events);
      break;
  }

  ++attempted;
  if (hook_ != nullptr) hook_->Before(request);
  const Clock::time_point sent = Clock::now();
  auto result = client_->Call(request);
  const Clock::time_point done = Clock::now();
  if (hook_ != nullptr) hook_->After(request, result);
  if (!result.ok()) {
    Fail("transport: " + result.status().ToString());
    return false;
  }
  if (!result->status().ok()) {
    Fail(std::string(OpName(kind)) + ": " + result->status().ToString());
    return true;
  }
  if (result->id != id || result->request_kind != request.kind) {
    Fail("response does not answer the request");
    return true;
  }
  if (record) {
    latency_us[static_cast<size_t>(kind)].push_back(Micros(done - sent));
  }

  switch (kind) {
    case Op::kQuery:
    case Op::kAsOf:
    case Op::kBatch: {
      if (result->answers.size() != op.queries.size()) {
        Fail("answer count differs from query count");
        break;
      }
      Answer answer{op.queries, read_state, {}};
      for (auto& a : result->answers) answer.matches.push_back(a.matches);
      answers.push_back(std::move(answer));
      break;
    }
    case Op::kRegister: {
      if (result->ids.size() != 1) {
        Fail("register returned no id");
        break;
      }
      auto next = std::make_shared<KnownState>(*state);
      next->own_live.emplace_back(result->ids[0], op.text);
      next->own_ever.insert(std::upper_bound(next->own_ever.begin(),
                                             next->own_ever.end(),
                                             result->ids[0]),
                            result->ids[0]);
      state = std::move(next);
      user_bytes += name.size() + request.ltl.size();
      break;
    }
    case Op::kReplace:
    case Op::kUnregister: {
      auto next = std::make_shared<KnownState>(*state);
      if (kind == Op::kReplace) {
        next->own_live[pick].second = op.text;
        user_bytes += request.ltl.size();
      } else {
        next->own_live.erase(next->own_live.begin() +
                             static_cast<ptrdiff_t>(pick));
      }
      state = std::move(next);
      if (!clocks.empty() && result->sequence <= clocks.back().first) {
        Fail("lifecycle clock did not advance");
      }
      clocks.emplace_back(result->sequence, state);
      break;
    }
    case Op::kStreamAppend:
      stream_batches.push_back(op.events);
      stream_deltas.push_back(result->verdicts);
      stream_events.push_back(result->events);
      break;
  }
  return true;
}


}  // namespace perfbench
