#include "automata/ops.h"

#include <vector>

#include "automata/scc.h"

namespace ctdb::automata {

Bitset ReachableStates(const Buchi& ba) {
  Bitset reachable(ba.StateCount());
  std::vector<StateId> stack{ba.initial()};
  reachable.Set(ba.initial());
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const Transition& t : ba.Out(s)) {
      if (!reachable.Test(t.to)) {
        reachable.Set(t.to);
        stack.push_back(t.to);
      }
    }
  }
  return reachable;
}

namespace {

/// States from which an accepting cycle is reachable: backward closure of the
/// states in cyclic final-bearing SCCs.
Bitset LiveStates(const Buchi& ba) {
  const SccInfo scc = ComputeScc(ba);
  Bitset live(ba.StateCount());
  std::vector<StateId> stack;
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (scc.OnFinalCycle(s)) {
      live.Set(s);
      stack.push_back(s);
    }
  }
  const auto in = ba.BuildReverseAdjacency();
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& [pred, _] : in[s]) {
      if (!live.Test(pred)) {
        live.Set(pred);
        stack.push_back(pred);
      }
    }
  }
  return live;
}

}  // namespace

Buchi PruneDeadStates(const Buchi& ba, std::vector<StateId>* state_map) {
  Bitset keep = ReachableStates(ba);
  keep &= LiveStates(ba);
  keep.Resize(ba.StateCount());
  keep.Set(ba.initial());  // Always keep the initial state.

  std::vector<StateId> map(ba.StateCount(), kDroppedState);
  Buchi out;  // Starts with one state: reuse it as the image of initial().
  map[ba.initial()] = out.initial();
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (s == ba.initial() || !keep.Test(s)) continue;
    map[s] = out.AddState();
  }
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (map[s] == kDroppedState) continue;
    if (ba.IsFinal(s)) out.SetFinal(map[s]);
    for (const Transition& t : ba.Out(s)) {
      if (map[t.to] == kDroppedState) continue;
      out.AddTransition(map[s], t.label, map[t.to]);
    }
  }
  if (state_map != nullptr) *state_map = std::move(map);
  return out;
}

bool IsEmptyLanguage(const Buchi& ba) {
  const Bitset reachable = ReachableStates(ba);
  const SccInfo scc = ComputeScc(ba);
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (reachable.Test(s) && scc.OnFinalCycle(s)) return false;
  }
  return true;
}

Buchi ProjectLabels(const Buchi& ba, const Bitset& retained_pos,
                    const Bitset& retained_neg) {
  Buchi out;
  out.AddStates(ba.StateCount() - 1);  // Constructor already made state 0.
  out.SetInitial(ba.initial());
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (ba.IsFinal(s)) out.SetFinal(s);
    for (const Transition& t : ba.Out(s)) {
      out.AddTransition(s, t.label.ProjectOnto(retained_pos, retained_neg),
                        t.to);
    }
  }
  out.DedupTransitions();
  return out;
}

Buchi RenameEvents(const Buchi& ba, const std::vector<EventId>& to) {
  Buchi out;
  out.AddStates(ba.StateCount() - 1);  // Constructor already made state 0.
  out.SetInitial(ba.initial());
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    if (ba.IsFinal(s)) out.SetFinal(s);
    for (const Transition& t : ba.Out(s)) {
      out.AddTransition(s, t.label.RenameEvents(to), t.to);
    }
  }
  return out;
}

}  // namespace ctdb::automata
