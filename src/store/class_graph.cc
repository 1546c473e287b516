#include "store/class_graph.h"

#include <algorithm>
#include <deque>

#include "store/cow.h"

namespace xsql {

ClassGraph::ClassGraph() {
  for (auto& shard : instance_of_) {
    shard = std::make_shared<InstanceShard>();
  }
}

const ClassGraph::Node* ClassGraph::Find(const Oid& cls) const {
  auto it = nodes_.find(cls);
  return it == nodes_.end() ? nullptr : it->second.get();
}

ClassGraph::Node* ClassGraph::FindMutable(const Oid& cls) {
  auto it = nodes_.find(cls);
  if (it == nodes_.end()) return nullptr;
  if (it->second->epoch != epoch_) {
    // The node predates the current epoch, so a snapshot may share it:
    // clone before the write (class-extent granularity COW).
    auto clone = std::make_shared<Node>(*it->second);
    clone->epoch = epoch_;
    CountCowClone(sizeof(Node) +
                  (clone->supers.size() + clone->subs.size() +
                   clone->direct_extent.size()) *
                      sizeof(Oid));
    it->second = std::move(clone);
  }
  return it->second.get();
}

ClassGraph::InstanceShard& ClassGraph::WritableShard(const Oid& obj) {
  std::shared_ptr<InstanceShard>& slot = instance_of_[ShardIndexOf(obj)];
  if (slot->epoch != epoch_) {
    auto clone = std::make_shared<InstanceShard>(*slot);
    clone->epoch = epoch_;
    CountCowClone(sizeof(InstanceShard) +
                  clone->map.size() *
                      (sizeof(Oid) + sizeof(std::vector<Oid>)));
    slot = std::move(clone);
  }
  return *slot;
}

const std::vector<Oid>* ClassGraph::FindInstance(const Oid& obj) const {
  const InstanceShard& shard = *instance_of_[ShardIndexOf(obj)];
  auto it = shard.map.find(obj);
  return it == shard.map.end() ? nullptr : &it->second;
}

Status ClassGraph::DeclareClass(const Oid& cls) {
  if (nodes_.contains(cls)) return Status::OK();
  auto node = std::make_shared<Node>();
  node->epoch = epoch_;
  nodes_.emplace(cls, std::move(node));
  class_list_.push_back(cls);
  return Status::OK();
}

Status ClassGraph::AddSubclass(const Oid& sub, const Oid& super) {
  if (sub == super) {
    return Status::InvalidArgument("IS-A is acyclic: " + sub.ToString() +
                                   " cannot be its own subclass");
  }
  XSQL_RETURN_IF_ERROR(DeclareClass(sub));
  XSQL_RETURN_IF_ERROR(DeclareClass(super));
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
  FindMutable(sub)->supers.push_back(super);
  FindMutable(super)->subs.push_back(sub);
  return Status::OK();
}

Status ClassGraph::AddInstance(const Oid& obj, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(DeclareClass(cls));
  {
    const std::vector<Oid>* classes = FindInstance(obj);
    if (classes != nullptr &&
        std::find(classes->begin(), classes->end(), cls) != classes->end()) {
      return Status::OK();
    }
  }
  WritableShard(obj).map[obj].push_back(cls);
  FindMutable(cls)->direct_extent.Insert(obj);
  return Status::OK();
}

void ClassGraph::RemoveInstance(const Oid& obj, const Oid& cls) {
  {
    const std::vector<Oid>* classes = FindInstance(obj);
    if (classes == nullptr ||
        std::find(classes->begin(), classes->end(), cls) == classes->end()) {
      return;
    }
  }
  InstanceShard& shard = WritableShard(obj);
  auto& classes = shard.map[obj];
  classes.erase(std::find(classes.begin(), classes.end(), cls));
  if (Node* n = FindMutable(cls)) n->direct_extent.Erase(obj);
}

void ClassGraph::RemoveClass(const Oid& cls) {
  auto it = nodes_.find(cls);
  if (it == nodes_.end()) return;
  const std::vector<Oid> supers = it->second->supers;
  const std::vector<Oid> subs = it->second->subs;
  for (const Oid& super : supers) {
    if (Node* n = FindMutable(super)) {
      auto pos = std::find(n->subs.begin(), n->subs.end(), cls);
      if (pos != n->subs.end()) n->subs.erase(pos);
    }
  }
  for (const Oid& sub : subs) {
    if (Node* n = FindMutable(sub)) {
      auto pos = std::find(n->supers.begin(), n->supers.end(), cls);
      if (pos != n->supers.end()) n->supers.erase(pos);
    }
  }
  nodes_.erase(cls);
  auto pos = std::find(class_list_.begin(), class_list_.end(), cls);
  if (pos != class_list_.end()) class_list_.erase(pos);
  // Drop dangling direct-instance memberships of the vanished class.
  // Rare (undo-only path), so COW-cloning every touched shard is fine.
  for (size_t i = 0; i < kInstanceShards; ++i) {
    bool touches = false;
    for (const auto& [obj, classes] : instance_of_[i]->map) {
      if (std::find(classes.begin(), classes.end(), cls) != classes.end()) {
        touches = true;
        break;
      }
    }
    if (!touches) continue;
    // Clone via any member oid of the shard: index i is what matters.
    std::shared_ptr<InstanceShard>& slot = instance_of_[i];
    if (slot->epoch != epoch_) {
      auto clone = std::make_shared<InstanceShard>(*slot);
      clone->epoch = epoch_;
      slot = std::move(clone);
    }
    for (auto mi = slot->map.begin(); mi != slot->map.end();) {
      auto& classes = mi->second;
      auto cp = std::find(classes.begin(), classes.end(), cls);
      if (cp != classes.end()) classes.erase(cp);
      if (classes.empty()) {
        mi = slot->map.erase(mi);
      } else {
        ++mi;
      }
    }
  }
}

void ClassGraph::RemoveSubclassEdge(const Oid& sub, const Oid& super) {
  if (Node* s = FindMutable(sub)) {
    auto pos = std::find(s->supers.begin(), s->supers.end(), super);
    if (pos != s->supers.end()) s->supers.erase(pos);
  }
  if (Node* p = FindMutable(super)) {
    auto pos = std::find(p->subs.begin(), p->subs.end(), sub);
    if (pos != p->subs.end()) p->subs.erase(pos);
  }
}

bool ClassGraph::IsClass(const Oid& oid) const { return nodes_.contains(oid); }

bool ClassGraph::IsStrictSubclass(const Oid& sub, const Oid& super) const {
  if (sub == super) return false;
  const Node* start = Find(sub);
  if (start == nullptr || Find(super) == nullptr) return false;
  // Upward BFS from sub.
  std::deque<Oid> queue(start->supers.begin(), start->supers.end());
  OidSet seen;
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (cur == super) return true;
    if (seen.Contains(cur)) continue;
    seen.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->supers) queue.push_back(s);
    }
  }
  return false;
}

bool ClassGraph::IsSubclassEq(const Oid& sub, const Oid& super) const {
  return (sub == super && IsClass(sub)) || IsStrictSubclass(sub, super);
}

bool ClassGraph::IsInstanceOf(const Oid& obj, const Oid& cls) const {
  const std::vector<Oid>* classes = FindInstance(obj);
  if (classes == nullptr) return false;
  for (const Oid& direct : *classes) {
    if (IsSubclassEq(direct, cls)) return true;
  }
  return false;
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
  OidSet out;
  const Node* start = Find(cls);
  if (start == nullptr) return out;
  std::deque<Oid> queue(start->supers.begin(), start->supers.end());
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (out.Contains(cur)) continue;
    out.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->supers) queue.push_back(s);
    }
  }
  return out;
}

OidSet ClassGraph::Descendants(const Oid& cls) const {
  OidSet out;
  const Node* start = Find(cls);
  if (start == nullptr) return out;
  std::deque<Oid> queue(start->subs.begin(), start->subs.end());
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (out.Contains(cur)) continue;
    out.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->subs) queue.push_back(s);
    }
  }
  return out;
}

const OidSet& ClassGraph::DirectExtent(const Oid& cls) const {
  static const OidSet kEmpty;
  const Node* n = Find(cls);
  return n == nullptr ? kEmpty : n->direct_extent;
}

OidSet ClassGraph::Extent(const Oid& cls) const {
  OidSet out = DirectExtent(cls);
  for (const Oid& sub : Descendants(cls)) {
    out = OidSet::Union(out, DirectExtent(sub));
  }
  return out;
}

std::vector<Oid> ClassGraph::DirectClassesOf(const Oid& obj) const {
  const std::vector<Oid>* classes = FindInstance(obj);
  return classes == nullptr ? std::vector<Oid>{} : *classes;
}

std::vector<std::pair<Oid, Oid>> ClassGraph::AllInstancePairs() const {
  std::vector<std::pair<Oid, Oid>> out;
  for (const auto& shard : instance_of_) {
    for (const auto& [obj, classes] : shard->map) {
      for (const Oid& cls : classes) out.emplace_back(obj, cls);
    }
  }
  return out;
}

OidSet ClassGraph::AllClassesOf(const Oid& obj) const {
  OidSet out;
  for (const Oid& direct : DirectClassesOf(obj)) {
    out.Insert(direct);
    out = OidSet::Union(out, Ancestors(direct));
  }
  return out;
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
