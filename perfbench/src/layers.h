// Per-layer measurements of a traced run: counter deltas from the
// engine's metrics registry over the served phase, plus a replay of the
// workload's statements through each module's public calls on a
// scratch copy of the data directory, each call timed in its own span.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load.h"
#include "mix.h"
#include "spans.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note = {};  // printed on the human-readable line only
};

/// Values of the registry counters the layer metrics are built from.
struct Counters {
  std::map<std::string, uint64_t> values;
  static Counters Read();
  /// after - before for one counter.
  uint64_t Delta(const Counters& before, const std::string& name) const;
};

/// What the run knew before the replay starts.
struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int persons = 0;
  std::string dir;      // the served data directory, closed
  std::string scratch;  // where to copy it for the replay
  double generate_s = 0;
  std::vector<double> open_s;  // one per set-up
  size_t snapshot_bytes = 0;
  size_t objects = 0;
  double ping_rtt_us = 0;
  double untraced_sps = 0;  // throughput with spans off
  double traced_sps = 0;    // and on
  std::vector<Sample> untraced;  // the served statements, untraced phase
  std::vector<Sample> traced;    // and traced phase
  Counters before;               // registry around the traced phase
  Counters after;
};

/// Every per-layer metric, in a fixed order. A time is the mean cost a
/// call adds per served statement: the call's replayed median times how
/// often the traced phase made it (parse, typecheck and plan only on a
/// plan-cache miss), divided by the statements served. Storage times
/// are per write; counts are registry deltas per statement or write.
xsql::Result<std::vector<Metric>> MeasureLayers(const LayerInputs& in,
                                                SpanLog* spans);

/// Median round trip of Client::Ping against a running server, in µs.
double PingRttUs(int port, int pings);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
