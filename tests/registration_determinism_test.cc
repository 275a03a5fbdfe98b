// A contract's automaton must be a function of its text alone, whichever
// path registers it: serial Register, RegisterBatch on several worker
// threads, or recovery replaying the WAL after a restart. Structurally
// different (if equivalent) automata decide finite stream prefixes
// differently, so the streaming monitor's verdict deltas would depend on
// how — and whether before or after a restart — the contracts were
// registered.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/serialize.h"
#include "broker/durable.h"
#include "testing/temp_dir.h"
#include "util/rng.h"
#include "wal/wal.h"
#include "workload/generator.h"

namespace ctdb::broker {
namespace {

using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

/// Three-property Dwyer-pattern contracts over a 12-event vocabulary: big
/// enough that translations share subformulas across contracts, which is
/// what made a reused formula factory change the automata.
std::vector<ContractDatabase::BatchEntry> GeneratedContracts(size_t count) {
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  workload::GeneratorOptions options;
  options.vocabulary_size = 12;
  options.properties = 3;
  workload::SpecGenerator generator(options, 0xD37E, &vocab, &factory);
  std::vector<ContractDatabase::BatchEntry> entries;
  for (size_t i = 0; i < count; ++i) {
    auto spec = generator.Next();
    EXPECT_TRUE(spec.ok()) << spec.status();
    if (!spec.ok()) break;
    entries.push_back({"c" + std::to_string(i), spec->text});
  }
  return entries;
}

/// Every contract's automaton, serialized with event names.
std::vector<std::string> SerializedAutomata(const DurableDatabase& db) {
  const auto snapshot = db.Snapshot();
  std::vector<std::string> out;
  for (uint32_t id = 0; id < snapshot->slot_count(); ++id) {
    out.push_back(automata::Serialize(snapshot->contract(id).automaton(),
                                      snapshot->vocabulary()));
  }
  return out;
}

/// The verdict deltas of one stream fed `batches`, append by append.
std::vector<std::vector<monitor::VerdictDelta>> StreamDeltas(
    DurableDatabase* db, const std::vector<monitor::EventBatch>& batches) {
  std::vector<std::vector<monitor::VerdictDelta>> out;
  EXPECT_TRUE(db->StreamOpen("s").ok());
  for (const monitor::EventBatch& batch : batches) {
    auto appended = db->StreamAppend("s", batch);
    EXPECT_TRUE(appended.ok()) << appended.status();
    out.push_back(appended.ok() ? appended->deltas
                                : std::vector<monitor::VerdictDelta>{});
  }
  EXPECT_TRUE(db->StreamClose("s").ok());
  return out;
}

TEST(RegistrationDeterminismTest, EveryPathBuildsTheSameAutomaton) {
  const std::vector<ContractDatabase::BatchEntry> entries =
      GeneratedContracts(40);
  ASSERT_EQ(entries.size(), 40u);

  // Serial Register, one contract at a time.
  TempDir serial_dir("determinism");
  auto serial = DurableDatabase::Open(serial_dir.path(), FastOptions());
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (const auto& entry : entries) {
    ASSERT_TRUE((*serial)->Register(entry.name, entry.ltl_text).ok());
  }

  // Random instants over the contracts' own events.
  const auto snapshot = (*serial)->Snapshot();
  std::vector<monitor::EventBatch> batches;
  Rng rng(0x5EED);
  for (int b = 0; b < 40; ++b) {
    monitor::EventBatch batch(1 + rng.Uniform(3));
    for (auto& instant : batch) {
      for (const std::string& name : snapshot->vocabulary().names()) {
        if (rng.Uniform(4) == 0) instant.push_back(name);
      }
    }
    batches.push_back(std::move(batch));
  }
  const std::vector<std::string> want = SerializedAutomata(**serial);
  const auto want_deltas = StreamDeltas(serial->get(), batches);

  // RegisterBatch translating on four worker threads.
  DatabaseOptions parallel_options;
  parallel_options.threads = 4;
  TempDir batch_dir("determinism");
  {
    auto batch = DurableDatabase::Open(batch_dir.path(), FastOptions(),
                                       parallel_options);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE((*batch)->RegisterBatch(entries).ok());
    EXPECT_EQ(SerializedAutomata(**batch), want);
    EXPECT_EQ(StreamDeltas(batch->get(), batches), want_deltas);
    ASSERT_TRUE((*batch)->Close().ok());
  }

  // The same database after a restart: recovery replays the WAL records.
  auto reopened = DurableDatabase::Open(batch_dir.path(), FastOptions(),
                                        parallel_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ((*reopened)->recovery_stats().records_replayed, entries.size());
  EXPECT_EQ(SerializedAutomata(**reopened), want);
  EXPECT_EQ(StreamDeltas(reopened->get(), batches), want_deltas);
}

}  // namespace
}  // namespace ctdb::broker
