// Structural operations on Büchi automata: reachability pruning, dead-state
// elimination, emptiness, projection of labels.

#pragma once

#include <vector>

#include "automata/buchi.h"
#include "util/bitset.h"

namespace ctdb::automata {

/// States reachable from the initial state.
Bitset ReachableStates(const Buchi& ba);

/// \brief Removes states that are unreachable from the initial state or from
/// which no accepting cycle is reachable ("dead" states).
///
/// The initial state is always kept (possibly with no outgoing transitions,
/// denoting the empty language). If `state_map` is non-null it receives, for
/// every old state, its new id or kDroppedState.
Buchi PruneDeadStates(const Buchi& ba, std::vector<StateId>* state_map = nullptr);

inline constexpr StateId kDroppedState = UINT32_MAX;

/// True iff L(ba) = ∅, i.e. no accepting cycle is reachable from the initial
/// state.
bool IsEmptyLanguage(const Buchi& ba);

/// \brief Rebuilds `ba` with every label projected onto the given retained
/// event polarities: positive literals survive only for events in
/// `retained_pos`, negative literals only for events in `retained_neg`
/// (π_L of Section 5.1).
Buchi ProjectLabels(const Buchi& ba, const Bitset& retained_pos,
                    const Bitset& retained_neg);

/// Rebuilds `ba` with every label's events renamed by `to`
/// (Label::RenameEvents): the same automaton over another vocabulary's ids.
Buchi RenameEvents(const Buchi& ba, const std::vector<EventId>& to);

}  // namespace ctdb::automata
