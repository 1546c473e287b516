// In-memory span log of a traced run. The benchmark records spans from
// its own code, around the calls it makes into each layer; the engine
// is not instrumented further. Spans are written out when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;     // "client/<class>" or "<module>.<call>"
  std::string detail;   // statement label, request ID, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Records a finished span and returns its id.
  uint64_t Add(uint64_t parent, std::string name, std::string detail,
               int64_t start_ns, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord r;
    r.id = spans_.size() + 1;
    r.parent = parent;
    r.name = std::move(name);
    r.detail = std::move(detail);
    r.start_ns = start_ns;
    r.end_ns = end_ns;
    spans_.push_back(std::move(r));
    return spans_.back().id;
  }

  /// Reserves an id for a parent span whose end is not known yet; Close
  /// fills it in once its children are recorded.
  uint64_t Open(uint64_t parent, std::string name, std::string detail) {
    return Add(parent, std::move(name), std::move(detail), NowNs(), 0);
  }
  void Close(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = NowNs();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON document: id, parent, name, detail,
  /// start/end (ns, steady clock), duration and self time (duration
  /// minus the union of its children's intervals) in microseconds.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
