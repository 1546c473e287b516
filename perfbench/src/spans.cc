#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size() + 1);
  for (const SpanRecord& r : spans_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    const int64_t duration = r.end_ns - r.start_ns;
    const int64_t self =
        duration - CoveredNs(children[r.id], r.start_ns, r.end_ns);
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"detail\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"duration_us\": %.3f, \"self_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 Escape(r.name).c_str(), Escape(r.detail).c_str(),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), duration / 1e3, self / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
