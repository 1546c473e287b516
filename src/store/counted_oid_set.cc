#include "store/counted_oid_set.h"

#include <algorithm>

#include "store/cow.h"

namespace xsql {

size_t CountedOidSet::ChunkIndexFor(const Oid& oid) const {
  auto it = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [&](const std::shared_ptr<Chunk>& c) {
        return c->entries.back().oid < oid;
      });
  if (it == chunks_.end()) return chunks_.size() - 1;
  return static_cast<size_t>(it - chunks_.begin());
}

void CountedOidSet::Add(const Oid& oid, uint64_t epoch) {
  if (chunks_.empty()) {
    auto chunk = std::make_shared<Chunk>();
    chunk->entries.push_back(Entry{oid, 1});
    chunk->epoch = epoch;
    chunks_.push_back(std::move(chunk));
    size_ = 1;
    return;
  }
  const size_t index = ChunkIndexFor(oid);
  Chunk& chunk = CowWritable(chunks_[index], epoch);
  auto it = std::lower_bound(chunk.entries.begin(), chunk.entries.end(), oid,
                             EntryBefore);
  if (it != chunk.entries.end() && it->oid == oid) {
    ++it->count;
    return;
  }
  chunk.entries.insert(it, Entry{oid, 1});
  ++size_;
  if (chunk.entries.size() > kMaxChunk) {
    auto upper = std::make_shared<Chunk>();
    upper->epoch = epoch;
    const auto mid = chunk.entries.begin() + chunk.entries.size() / 2;
    upper->entries.assign(mid, chunk.entries.end());
    chunk.entries.erase(mid, chunk.entries.end());
    chunks_.insert(chunks_.begin() + index + 1, std::move(upper));
  }
}

void CountedOidSet::Remove(const Oid& oid, uint64_t epoch) {
  if (!Contains(oid)) return;
  const size_t index = ChunkIndexFor(oid);
  Chunk& chunk = CowWritable(chunks_[index], epoch);
  auto it = std::lower_bound(chunk.entries.begin(), chunk.entries.end(), oid,
                             EntryBefore);
  if (--it->count > 0) return;
  chunk.entries.erase(it);
  --size_;
  if (chunk.entries.empty()) chunks_.erase(chunks_.begin() + index);
}

bool CountedOidSet::Contains(const Oid& oid) const {
  if (chunks_.empty()) return false;
  const std::vector<Entry>& entries = chunks_[ChunkIndexFor(oid)]->entries;
  auto it = std::lower_bound(entries.begin(), entries.end(), oid,
                             EntryBefore);
  return it != entries.end() && it->oid == oid;
}

OidSet CountedOidSet::ToOidSet() const {
  std::vector<Oid> members;
  members.reserve(size_);
  ForEach([&](const Oid& oid) { members.push_back(oid); });
  return OidSet::FromSorted(std::move(members));
}

}  // namespace xsql
