// Transition labels: conjunctions of literals (Section 2.3).
//
// A Büchi-automaton transition is enabled in a snapshot iff every positive
// literal's event happens in that snapshot and no negative literal's event
// does. `true` is the empty conjunction. Labels are stored as a pair of
// bitmasks over the vocabulary, making the compatibility test of
// Definition 7 (point 3) a handful of word operations.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/literal.h"
#include "base/vocabulary.h"
#include "util/bitset.h"

namespace ctdb {

/// \brief A conjunction of literals over the vocabulary.
class Label {
 public:
  /// The empty conjunction `true`.
  Label() = default;

  /// A label over a vocabulary of `vocab_size` events with no literals yet.
  explicit Label(size_t vocab_size) : pos_(vocab_size), neg_(vocab_size) {}

  /// Builds a label from literals. Capacity grows to fit.
  static Label FromLiterals(const std::vector<Literal>& literals);

  /// Adds a literal (growing capacity as needed).
  void Add(Literal lit);
  void AddPositive(EventId e);
  void AddNegative(EventId e);

  /// True iff the label contains no literal (i.e. is `true`).
  bool IsTrue() const { return pos_.None() && neg_.None(); }

  /// True iff no event appears both positively and negatively.
  bool IsSatisfiable() const { return pos_.DisjointWith(neg_); }

  /// True iff the label contains the given literal.
  bool Contains(Literal lit) const {
    return lit.negated ? neg_.Test(lit.event) : pos_.Test(lit.event);
  }

  /// Events cited positively.
  const Bitset& positive() const { return pos_; }
  /// Events cited negatively.
  const Bitset& negative() const { return neg_; }

  /// All events cited (either polarity).
  Bitset Events() const { return pos_ | neg_; }

  /// Number of literals.
  size_t LiteralCount() const { return pos_.Count() + neg_.Count(); }

  /// Literals in canonical (sorted id) order.
  std::vector<Literal> Literals() const;

  /// Sorted literal-id key (for the prefilter index / signatures).
  LiteralKey Key() const;

  /// The conjunction of this and `other`. May be unsatisfiable; callers that
  /// care must check IsSatisfiable().
  Label ConjunctionWith(const Label& other) const;

  /// True iff `this ∧ other` is satisfiable, i.e. the labels do not conflict
  /// (second half of Definition 7's compatibility).
  bool ConsistentWith(const Label& other) const {
    return pos_.DisjointWith(other.neg_) && neg_.DisjointWith(other.pos_);
  }

  /// True iff every event cited in this label belongs to `events` (first half
  /// of Definition 7's compatibility: the query label must refer only to
  /// events in the contract).
  bool CitesOnly(const Bitset& events) const {
    return pos_.IsSubsetOf(events) && neg_.IsSubsetOf(events);
  }

  /// Projection on a literal set (Section 5): keeps only the literals of this
  /// label whose ids are in `retained` (given as positive/negative event
  /// masks), dropping all others.
  Label ProjectOnto(const Bitset& retained_pos, const Bitset& retained_neg) const;

  /// The same literals with every event `e` renamed to `to[e]` (the
  /// conversion between two vocabularies' ids for the same event names).
  /// `to` must cover every cited event and be injective on them.
  Label RenameEvents(const std::vector<EventId>& to) const;

  /// The expansion E(γ) of Section 4.2 / Example 11: this label's literals
  /// plus, for every event of `contract_events` not cited here, both the
  /// positive and the negative literal. Returned as a sorted literal-id list.
  LiteralKey Expansion(const Bitset& contract_events) const;

  bool operator==(const Label& other) const {
    return pos_ == other.pos_ && neg_ == other.neg_;
  }
  bool operator!=(const Label& other) const { return !(*this == other); }

  uint64_t Hash() const;

  /// e.g. "refund & !use" (or "true").
  std::string ToString(const Vocabulary& vocab) const;

 private:
  Bitset pos_;
  Bitset neg_;
};

}  // namespace ctdb
