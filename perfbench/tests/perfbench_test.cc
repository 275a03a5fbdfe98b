// Tests of the benchmark's own machinery: the percentile rule, self time
// over a span tree, the answer oracle, and event renaming.
//
//   python3 perfbench/run.py --self-test

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "broker/database.h"
#include "inputs.h"
#include "oracle.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,   \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

void TestPercentileRule() {
  using perfbench::TailPercentile;
  // 1000 samples: p99 is the 990th value with exactly 10 beyond it.
  perfbench::Tail t = TailPercentile(Range(1000));
  EXPECT(t.percentile == 99 && t.value == 990 && t.beyond == 10);
  // 200 samples: p99 (rank 198) has 2 beyond, p95 (rank 190) has 10.
  t = TailPercentile(Range(200));
  EXPECT(t.percentile == 95 && t.value == 190 && t.beyond == 10);
  // 999 samples: p99 is rank 990 (ceil 989.01) with 9 beyond -> p98.
  t = TailPercentile(Range(999));
  EXPECT(t.percentile == 98 && t.value == 980 && t.beyond == 19);
  // Order does not matter.
  std::vector<double> shuffled = Range(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT(TailPercentile(shuffled).value == 990);
  // Too few samples for any percentile >= 50.
  EXPECT(TailPercentile(Range(15)).percentile == 0);
  EXPECT(TailPercentile({}).percentile == 0);

  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0);
  EXPECT(perfbench::Mean({1, 2, 6}) == 3);
}

perfbench::Span MakeSpan(uint64_t start, uint64_t end, int32_t parent) {
  perfbench::Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTimes() {
  // root [0,100): children [10,30) and [20,50) overlap (parallel shards),
  // and [90,120) sticks out past the root's end.
  //   child 1 [10,30) has a grandchild [12,18).
  std::vector<perfbench::Span> spans = {
      MakeSpan(0, 100, -1),  // 0
      MakeSpan(10, 30, 0),   // 1
      MakeSpan(20, 50, 0),   // 2
      MakeSpan(90, 120, 0),  // 3
      MakeSpan(12, 18, 1),   // 4
  };
  const std::vector<uint64_t> self = perfbench::SelfTimesNs(spans);
  // Root coverage: [10,50) + [90,100) = 50 -> self 50.
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // Sequential children: self times over the tree sum to the root.
  std::vector<perfbench::Span> seq = {
      MakeSpan(0, 100, -1), MakeSpan(5, 25, 0), MakeSpan(25, 60, 0),
      MakeSpan(30, 40, 2), MakeSpan(61, 99, 0)};
  const std::vector<uint64_t> s2 = perfbench::SelfTimesNs(seq);
  EXPECT(s2[0] + s2[1] + s2[2] + s2[3] + s2[4] == 100);
}

void TestCheckAnswer() {
  // Text ids: 0..3 set-up contracts, 4..5 churn texts.
  const std::vector<char> permits = {1, 0, 1, 0, 1, 0};
  perfbench::KnownState state;
  state.preload = 4;
  state.own_live = {{7, 4}, {9, 5}};  // id 7 carries text 4, id 9 text 5
  state.own_ever = {7, 8, 9};         // id 8 was unregistered
  std::vector<uint32_t> foreign;
  EXPECT(perfbench::CheckAnswer(permits, state, {0, 2, 7}, &foreign).empty());
  EXPECT(perfbench::CheckAnswer(permits, state, {7, 2, 0, 12}, &foreign)
             .empty());
  EXPECT(foreign.size() == 1 && foreign[0] == 12);
  // Flipped answers are flagged: a missing match, an extra match, a dead id.
  EXPECT(!perfbench::CheckAnswer(permits, state, {0, 7}, nullptr).empty());
  EXPECT(!perfbench::CheckAnswer(permits, state, {0, 1, 2, 7}, nullptr)
              .empty());
  EXPECT(!perfbench::CheckAnswer(permits, state, {0, 2, 7, 8}, nullptr)
              .empty());
}

void TestOracleAgainstDatabase() {
  // The oracle must agree with a database over the same contracts, and a
  // deliberately flipped id of that answer must be flagged.
  perfbench::Inputs in;
  in.texts = {"F (p1 | p2 | p3)", "G (p1 -> F p2)", "G !p3", "F p3",
              "G (p2 -> X p1)"};
  in.preload_count = in.texts.size();
  auto oracle = perfbench::Oracle::Build(in, 2);
  EXPECT(oracle.ok());
  if (!oracle.ok()) return;
  ctdb::broker::ContractDatabase db;
  for (size_t i = 0; i < in.texts.size(); ++i) {
    EXPECT(db.Register("c" + std::to_string(i), in.texts[i]).ok());
  }
  perfbench::KnownState state;
  state.preload = static_cast<uint32_t>(in.texts.size());
  for (const std::string q : {"F p3", "F p1 & G !p3", "G F p2"}) {
    EXPECT((*oracle)->Prepare({&q}, 2).ok());
    auto answer = db.Query(q);
    EXPECT(answer.ok());
    if (!answer.ok()) continue;
    const auto& permits = (*oracle)->Permits(q);
    EXPECT(perfbench::CheckAnswer(permits, state, answer->matches, nullptr)
               .empty());
    std::vector<uint32_t> flipped = answer->matches;
    if (!flipped.empty()) {
      flipped.pop_back();
    } else {
      flipped.push_back(0);
    }
    EXPECT(!perfbench::CheckAnswer(permits, state, flipped, nullptr).empty());
  }
}

void TestRenameEvents() {
  std::vector<uint32_t> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  std::swap(perm[0], perm[11]);  // p1 <-> p12
  EXPECT(perfbench::RenameEvents("G (p1 -> F p12) & p10", perm) ==
         "G (p12 -> F p1) & p10");
  EXPECT(perfbench::RenameEvents("p1p2 & xp1", perm) == "p1p2 & xp1");
}

void TestInputsAreSeeded() {
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload("read_cold_sharded");
  EXPECT(spec != nullptr);
  if (spec == nullptr) return;
  auto a = perfbench::MakeInputs(*spec, 7, 1);
  auto b = perfbench::MakeInputs(*spec, 7, 1);
  auto c = perfbench::MakeInputs(*spec, 8, 1);
  EXPECT(a.ok() && b.ok() && c.ok());
  if (!a.ok() || !b.ok() || !c.ok()) return;
  EXPECT(a->queries == b->queries);
  EXPECT(a->queries != c->queries);
  // Cold queries never repeat.
  std::vector<std::string> sorted = a->queries;
  std::sort(sorted.begin(), sorted.end());
  EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTimes();
  TestCheckAnswer();
  TestOracleAgainstDatabase();
  TestRenameEvents();
  TestInputsAreSeeded();
  if (failures == 0) std::printf("perfbench_test: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
