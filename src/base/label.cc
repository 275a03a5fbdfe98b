#include "base/label.h"

#include <algorithm>

#include "util/hash.h"

namespace ctdb {

Label Label::FromLiterals(const std::vector<Literal>& literals) {
  Label label;
  for (const Literal& lit : literals) label.Add(lit);
  return label;
}

void Label::Add(Literal lit) {
  if (lit.negated) {
    AddNegative(lit.event);
  } else {
    AddPositive(lit.event);
  }
}

void Label::AddPositive(EventId e) {
  if (e >= pos_.size()) pos_.Resize(e + 1);
  pos_.Set(e);
}

void Label::AddNegative(EventId e) {
  if (e >= neg_.size()) neg_.Resize(e + 1);
  neg_.Set(e);
}

std::vector<Literal> Label::Literals() const {
  std::vector<Literal> out;
  out.reserve(LiteralCount());
  for (size_t e : pos_.Indices()) {
    out.push_back(Literal{static_cast<EventId>(e), false});
  }
  for (size_t e : neg_.Indices()) {
    out.push_back(Literal{static_cast<EventId>(e), true});
  }
  std::sort(out.begin(), out.end());
  return out;
}

LiteralKey Label::Key() const {
  LiteralKey key;
  key.reserve(LiteralCount());
  for (const Literal& lit : Literals()) key.push_back(lit.id());
  return key;
}

Label Label::ConjunctionWith(const Label& other) const {
  Label out = *this;
  out.pos_ |= other.pos_;
  out.neg_ |= other.neg_;
  return out;
}

Label Label::ProjectOnto(const Bitset& retained_pos,
                         const Bitset& retained_neg) const {
  Label out = *this;
  out.pos_ &= retained_pos;
  out.neg_ &= retained_neg;
  return out;
}

Label Label::RenameEvents(const std::vector<EventId>& to) const {
  Label out;
  for (size_t e : pos_.Indices()) out.AddPositive(to[e]);
  for (size_t e : neg_.Indices()) out.AddNegative(to[e]);
  return out;
}

LiteralKey Label::Expansion(const Bitset& contract_events) const {
  LiteralKey key;
  for (size_t e : contract_events.Indices()) {
    const EventId event = static_cast<EventId>(e);
    const bool in_pos = pos_.Test(e);
    const bool in_neg = neg_.Test(e);
    if (in_pos) {
      key.push_back(Literal{event, false}.id());
    } else if (in_neg) {
      key.push_back(Literal{event, true}.id());
    } else {
      // Cited by the contract but absent from this label: both polarities.
      key.push_back(Literal{event, false}.id());
      key.push_back(Literal{event, true}.id());
    }
  }
  // Events cited in the label but (defensively) outside `contract_events`.
  for (size_t e : pos_.Indices()) {
    if (!contract_events.Test(e)) {
      key.push_back(Literal{static_cast<EventId>(e), false}.id());
    }
  }
  for (size_t e : neg_.Indices()) {
    if (!contract_events.Test(e)) {
      key.push_back(Literal{static_cast<EventId>(e), true}.id());
    }
  }
  std::sort(key.begin(), key.end());
  return key;
}

uint64_t Label::Hash() const {
  return HashCombine(pos_.Hash(), neg_.Hash());
}

std::string Label::ToString(const Vocabulary& vocab) const {
  if (IsTrue()) return "true";
  std::string out;
  bool first = true;
  for (const Literal& lit : Literals()) {
    if (!first) out += " & ";
    out += lit.ToString(vocab);
    first = false;
  }
  return out;
}

}  // namespace ctdb
