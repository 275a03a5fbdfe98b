// Pruning conditions (Section 4.1): monotone ∧/∨ expressions over S(λ)
// lookups, evaluated against the prefilter index to produce a candidate
// contract set.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/label.h"
#include "index/prefilter.h"
#include "util/bitset.h"

namespace ctdb::index {

/// \brief A monotone condition tree. Leaves are query-BA labels (evaluated as
/// S(λ)); `true` evaluates to the universe and `false` to the empty set.
class Condition {
 public:
  enum class Kind : uint8_t { kTrue, kFalse, kLeaf, kAnd, kOr };

  /// Default-constructs as TRUE (the neutral, prune-nothing condition).
  Condition() : kind_(Kind::kTrue) {}

  static Condition True() { return Condition(Kind::kTrue); }
  static Condition False() { return Condition(Kind::kFalse); }
  static Condition Leaf(Label label);

  /// Conjunction with simplification: false absorbs, true drops out, children
  /// are deduplicated, nested ANDs are flattened.
  static Condition And(std::vector<Condition> children);
  /// Disjunction, dual simplifications.
  static Condition Or(std::vector<Condition> children);

  Kind kind() const { return kind_; }
  const Label& label() const { return label_; }
  const std::vector<Condition>& children() const { return children_; }

  /// Evaluates against `index`: the resulting contract set is guaranteed to
  /// contain every contract satisfying the condition (monotonicity makes the
  /// S'() over-approximation sound, §4.2).
  Bitset Evaluate(const PrefilterIndex& index) const;

  /// The same tree with every leaf label's events renamed by `to`
  /// (Label::RenameEvents). Renaming is injective, so the shape is kept.
  Condition RenameEvents(const std::vector<EventId>& to) const;

  /// Number of nodes in the tree.
  size_t Size() const;

  /// e.g. "((S(miss) & S(changeApproved)) | S(flightCanceled))".
  std::string ToString(const Vocabulary& vocab) const;

  bool operator==(const Condition& other) const;

 private:
  explicit Condition(Kind kind) : kind_(kind) {}

  Kind kind_;
  Label label_;
  std::vector<Condition> children_;
};

}  // namespace ctdb::index
