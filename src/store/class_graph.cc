#include "store/class_graph.h"

#include <algorithm>

#include "store/cow.h"

namespace xsql {

const ClassGraph::Node* ClassGraph::Find(const Oid& cls) const {
  auto it = nodes_.find(cls);
  return it == nodes_.end() ? nullptr : it->second.get();
}

ClassGraph::Node* ClassGraph::FindMutable(const Oid& cls, uint64_t epoch) {
  auto it = nodes_.find(cls);
  return it == nodes_.end() ? nullptr : &CowWritable(it->second, epoch);
}

void ClassGraph::RecomputeClosure(const Oid& cls, uint64_t epoch) {
  Node* node = FindMutable(cls, epoch);
  if (node == nullptr) return;
  // Upward breadth-first, one level at a time: the level at which a
  // class is first reached is its minimum distance.
  std::unordered_map<Oid, uint32_t, OidHash> distance;
  std::vector<Oid> frontier = node->supers;
  for (uint32_t level = 1; !frontier.empty(); ++level) {
    std::vector<Oid> next;
    for (const Oid& c : frontier) {
      if (!distance.emplace(c, level).second) continue;
      if (const Node* n = Find(c)) {
        next.insert(next.end(), n->supers.begin(), n->supers.end());
      }
    }
    frontier = std::move(next);
  }
  node->closure.clear();
  node->closure.reserve(distance.size());
  for (const auto& [c, d] : distance) node->closure.push_back({c, d});
  std::sort(node->closure.begin(), node->closure.end(),
            [](const Ancestor& a, const Ancestor& b) { return a.cls < b.cls; });
}

void ClassGraph::RecomputeClosuresFrom(const Oid& sub, uint64_t epoch) {
  const OidSet below = Descendants(sub);
  RecomputeClosure(sub, epoch);
  for (const Oid& cls : below) RecomputeClosure(cls, epoch);
}

Status ClassGraph::DeclareClass(const Oid& cls, uint64_t epoch) {
  if (nodes_.contains(cls)) return Status::OK();
  auto node = std::make_shared<Node>();
  node->epoch = epoch;
  nodes_.emplace(cls, std::move(node));
  class_list_.push_back(cls);
  return Status::OK();
}

Status ClassGraph::AddSubclass(const Oid& sub, const Oid& super,
                               uint64_t epoch) {
  if (sub == super) {
    return Status::InvalidArgument("IS-A is acyclic: " + sub.ToString() +
                                   " cannot be its own subclass");
  }
  XSQL_RETURN_IF_ERROR(DeclareClass(sub, epoch));
  XSQL_RETURN_IF_ERROR(DeclareClass(super, epoch));
  // Reject cycles: super must not already be a descendant of sub.
  if (IsStrictSubclass(super, sub)) {
    return Status::InvalidArgument("IS-A edge " + sub.ToString() + " -> " +
                                   super.ToString() + " would create a cycle");
  }
  {
    const Node* s = Find(sub);
    if (std::find(s->supers.begin(), s->supers.end(), super) !=
        s->supers.end()) {
      return Status::OK();
    }
  }
  FindMutable(sub, epoch)->supers.push_back(super);
  FindMutable(super, epoch)->subs.push_back(sub);
  RecomputeClosuresFrom(sub, epoch);
  return Status::OK();
}

void ClassGraph::AddToExtent(const Oid& cls, const Oid& obj, uint64_t epoch) {
  (void)DeclareClass(cls, epoch);
  if (Find(cls)->direct_extent.Contains(obj)) return;
  FindMutable(cls, epoch)->direct_extent.Add(obj, epoch);
}

void ClassGraph::RemoveFromExtent(const Oid& cls, const Oid& obj,
                                  uint64_t epoch) {
  const Node* n = Find(cls);
  if (n == nullptr || !n->direct_extent.Contains(obj)) return;
  FindMutable(cls, epoch)->direct_extent.Remove(obj, epoch);
}

void ClassGraph::RemoveClass(const Oid& cls, uint64_t epoch) {
  auto it = nodes_.find(cls);
  if (it == nodes_.end()) return;
  const std::vector<Oid> supers = it->second->supers;
  const std::vector<Oid> subs = it->second->subs;
  const OidSet below = Descendants(cls);
  for (const Oid& super : supers) {
    if (Node* n = FindMutable(super, epoch)) {
      auto pos = std::find(n->subs.begin(), n->subs.end(), cls);
      if (pos != n->subs.end()) n->subs.erase(pos);
    }
  }
  for (const Oid& sub : subs) {
    if (Node* n = FindMutable(sub, epoch)) {
      auto pos = std::find(n->supers.begin(), n->supers.end(), cls);
      if (pos != n->supers.end()) n->supers.erase(pos);
    }
  }
  nodes_.erase(cls);
  auto pos = std::find(class_list_.begin(), class_list_.end(), cls);
  if (pos != class_list_.end()) class_list_.erase(pos);
  for (const Oid& c : below) RecomputeClosure(c, epoch);
}

void ClassGraph::RemoveSubclassEdge(const Oid& sub, const Oid& super,
                                    uint64_t epoch) {
  if (Node* s = FindMutable(sub, epoch)) {
    auto pos = std::find(s->supers.begin(), s->supers.end(), super);
    if (pos != s->supers.end()) s->supers.erase(pos);
  }
  if (Node* p = FindMutable(super, epoch)) {
    auto pos = std::find(p->subs.begin(), p->subs.end(), sub);
    if (pos != p->subs.end()) p->subs.erase(pos);
  }
  RecomputeClosuresFrom(sub, epoch);
}

bool ClassGraph::IsClass(const Oid& oid) const { return nodes_.contains(oid); }

bool ClassGraph::IsStrictSubclass(const Oid& sub, const Oid& super) const {
  const std::vector<Ancestor>& closure = Closure(sub);
  auto it = std::partition_point(
      closure.begin(), closure.end(),
      [&](const Ancestor& a) { return a.cls < super; });
  return it != closure.end() && it->cls == super;
}

bool ClassGraph::IsSubclassEq(const Oid& sub, const Oid& super) const {
  return (sub == super && IsClass(sub)) || IsStrictSubclass(sub, super);
}

std::vector<Oid> ClassGraph::DirectSuperclasses(const Oid& cls) const {
  const Node* n = Find(cls);
  return n == nullptr ? std::vector<Oid>{} : n->supers;
}

std::vector<Oid> ClassGraph::DirectSubclasses(const Oid& cls) const {
  const Node* n = Find(cls);
  return n == nullptr ? std::vector<Oid>{} : n->subs;
}

OidSet ClassGraph::Ancestors(const Oid& cls) const {
  std::vector<Oid> out;
  for (const Ancestor& a : Closure(cls)) out.push_back(a.cls);
  return OidSet::FromSorted(std::move(out));
}

OidSet ClassGraph::Descendants(const Oid& cls) const {
  std::vector<Oid> out;
  for (const Oid& c : class_list_) {
    if (IsStrictSubclass(c, cls)) out.push_back(c);
  }
  return OidSet(std::move(out));
}

const std::vector<ClassGraph::Ancestor>& ClassGraph::Closure(
    const Oid& cls) const {
  static const std::vector<Ancestor> kNone;
  const Node* n = Find(cls);
  return n == nullptr ? kNone : n->closure;
}

const CountedOidSet& ClassGraph::DirectExtent(const Oid& cls) const {
  static const CountedOidSet kEmpty;
  const Node* n = Find(cls);
  return n == nullptr ? kEmpty : n->direct_extent;
}

OidSet ClassGraph::Extent(const Oid& cls) const {
  // Merges each class's sorted run into the sorted result, dropping the
  // oids that are direct instances of several of the classes.
  std::vector<Oid> out;
  std::vector<Oid> merged;
  auto merge_run = [&](const CountedOidSet& run) {
    if (run.empty()) return;
    merged.clear();
    merged.reserve(out.size() + run.size());
    auto it = out.begin();
    run.ForEach([&](const Oid& oid) {
      while (it != out.end() && *it < oid) merged.push_back(*it++);
      if (it != out.end() && *it == oid) ++it;
      merged.push_back(oid);
    });
    merged.insert(merged.end(), it, out.end());
    out.swap(merged);
  };
  merge_run(DirectExtent(cls));
  for (const Oid& sub : Descendants(cls)) merge_run(DirectExtent(sub));
  return OidSet::FromSorted(std::move(out));
}

bool ClassGraph::HaveCommonSubclass(const std::vector<Oid>& classes) const {
  if (classes.empty()) return true;
  for (const Oid& candidate : class_list_) {
    bool below_all = true;
    for (const Oid& cls : classes) {
      if (!IsSubclassEq(candidate, cls)) {
        below_all = false;
        break;
      }
    }
    if (below_all) return true;
  }
  return false;
}

bool ClassGraph::IsSubrange(const std::vector<Oid>& range,
                            const Oid& of_class) const {
  for (const Oid& candidate : class_list_) {
    bool below_all = true;
    for (const Oid& cls : range) {
      if (!IsSubclassEq(candidate, cls)) {
        below_all = false;
        break;
      }
    }
    if (below_all && !IsSubclassEq(candidate, of_class)) return false;
  }
  return true;
}

}  // namespace xsql
