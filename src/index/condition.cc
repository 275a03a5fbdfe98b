#include "index/condition.h"

#include <algorithm>

namespace ctdb::index {

Condition Condition::Leaf(Label label) {
  if (label.IsTrue()) return True();
  Condition c(Kind::kLeaf);
  c.label_ = std::move(label);
  return c;
}

Condition Condition::And(std::vector<Condition> children) {
  std::vector<Condition> flat;
  for (Condition& child : children) {
    switch (child.kind_) {
      case Kind::kFalse:
        return False();
      case Kind::kTrue:
        break;  // drop
      case Kind::kAnd:
        for (Condition& grand : child.children_) {
          flat.push_back(std::move(grand));
        }
        break;
      default:
        flat.push_back(std::move(child));
        break;
    }
  }
  // Deduplicate identical children.
  std::vector<Condition> unique;
  for (Condition& c : flat) {
    bool dup = false;
    for (const Condition& u : unique) {
      if (u == c) {
        dup = true;
        break;
      }
    }
    if (!dup) unique.push_back(std::move(c));
  }
  if (unique.empty()) return True();
  if (unique.size() == 1) return std::move(unique[0]);
  Condition c(Kind::kAnd);
  c.children_ = std::move(unique);
  return c;
}

Condition Condition::Or(std::vector<Condition> children) {
  std::vector<Condition> flat;
  for (Condition& child : children) {
    switch (child.kind_) {
      case Kind::kTrue:
        return True();
      case Kind::kFalse:
        break;  // drop
      case Kind::kOr:
        for (Condition& grand : child.children_) {
          flat.push_back(std::move(grand));
        }
        break;
      default:
        flat.push_back(std::move(child));
        break;
    }
  }
  std::vector<Condition> unique;
  for (Condition& c : flat) {
    bool dup = false;
    for (const Condition& u : unique) {
      if (u == c) {
        dup = true;
        break;
      }
    }
    if (!dup) unique.push_back(std::move(c));
  }
  if (unique.empty()) return False();
  if (unique.size() == 1) return std::move(unique[0]);
  Condition c(Kind::kOr);
  c.children_ = std::move(unique);
  return c;
}

Bitset Condition::Evaluate(const PrefilterIndex& index) const {
  switch (kind_) {
    case Kind::kTrue:
      return index.universe();
    case Kind::kFalse:
      return Bitset(index.universe().size());
    case Kind::kLeaf: {
      Bitset result = index.Lookup(label_);
      result.Resize(index.universe().size());
      return result;
    }
    case Kind::kAnd: {
      // Leaf children combine via the index's word-parallel AND-into kernel:
      // one pass over the accumulator per leaf, no per-leaf Bitset
      // materialization. Non-leaf children still evaluate recursively.
      Bitset result = index.universe();
      for (const Condition& child : children_) {
        if (child.kind_ == Kind::kLeaf) {
          index.LookupAndInto(child.label_, &result);
        } else {
          result &= child.Evaluate(index);
        }
        if (result.None()) break;
      }
      return result;
    }
    case Kind::kOr: {
      Bitset result(index.universe().size());
      for (const Condition& child : children_) {
        if (child.kind_ == Kind::kLeaf) {
          index.LookupOrInto(child.label_, &result);
        } else {
          result |= child.Evaluate(index);
        }
      }
      result.Resize(index.universe().size());
      return result;
    }
  }
  return index.universe();
}

size_t Condition::Size() const {
  size_t n = 1;
  for (const Condition& child : children_) n += child.Size();
  return n;
}

std::string Condition::ToString(const Vocabulary& vocab) const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kFalse:
      return "FALSE";
    case Kind::kLeaf:
      return "S(" + label_.ToString(vocab) + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += kind_ == Kind::kAnd ? " & " : " | ";
        out += children_[i].ToString(vocab);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

Condition Condition::RenameEvents(const std::vector<EventId>& to) const {
  Condition out(kind_);
  if (kind_ == Kind::kLeaf) out.label_ = label_.RenameEvents(to);
  out.children_.reserve(children_.size());
  for (const Condition& child : children_) {
    out.children_.push_back(child.RenameEvents(to));
  }
  return out;
}

bool Condition::operator==(const Condition& other) const {
  if (kind_ != other.kind_) return false;
  if (kind_ == Kind::kLeaf) return label_ == other.label_;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!(children_[i] == other.children_[i])) return false;
  }
  return true;
}

}  // namespace ctdb::index
