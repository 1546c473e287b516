#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <list>
#include <random>

#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/concurrency.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "typing/planner.h"
#include "typing/type_checker.h"

namespace perfbench {

using xsql::Result;
using xsql::Status;

namespace {

// Registry counters the per-layer metrics are computed from.
const char* kCounterNames[] = {
    "xsql.plan.cache_hits",      "xsql.plan.cache_misses",
    "xsql.exec.batch_filtered",  "xsql.exec.batch_rows",
    "xsql.plan.hash_joins",      "xsql.eval.rows",
    "xsql.exec.partitions",      "xsql.mvcc.cow_clones",
    "xsql.mvcc.cow_bytes",       "xsql.storage.fsyncs",
    "xsql.storage.wal_bytes",    "xsql.storage.group_commit_batches",
};

// Replay repetitions per statement text; each call's cost is the median.
constexpr int kReps = 3;
// Point-lookup texts replayed (a seeded sample of the persons).
constexpr int kLookupSample = 12;
// Writes replayed straight into storage::DurableDatabase.
constexpr int kStorageWrites = 16;
// Checkpoints timed on the replay copy.
constexpr int kCheckpoints = 3;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Times `fn` as a span named `name` under `parent`; returns µs.
template <typename Fn>
double Timed(SpanLog* spans, uint64_t parent, const char* name,
             const std::string& detail, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  spans->Add(parent, name, detail, start, end);
  return (end - start) / 1e3;
}

/// One replayed read text: how often the traced phase served it and
/// missed the plan cache on it, and the replayed times of each call.
struct ReadText {
  StmtClass cls = StmtClass::kQuery;
  std::string label;
  std::string text;
  double served = 0;
  double misses = 0;
  std::vector<double> classify, parse, typecheck, plan, run, execute;
};

/// What the traced phase served, with plan-cache misses per read text.
/// The server does not report which statement missed, so the served
/// order (by start time, the untraced phase first to fill the cache) is
/// replayed through an LRU of the server's capacity that, like
/// PlanCache, drops an entry prepared before the latest write.
struct ServedCounts {
  std::map<std::string, double> served;
  std::map<std::string, double> misses;
  double statements = 0;
  double writes = 0;
  double lookups = 0;
  double lookup_misses = 0;
  double hits = 0;  // of reads; every write misses
};

ServedCounts CountServed(const WorkloadSpec& spec,
                         std::vector<Sample> untraced,
                         std::vector<Sample> traced) {
  auto by_start = [](const Sample& a, const Sample& b) {
    return a.start_ns < b.start_ns;
  };
  std::sort(untraced.begin(), untraced.end(), by_start);
  std::sort(traced.begin(), traced.end(), by_start);
  const size_t capacity = xsql::SessionOptions().plan_cache_capacity;
  std::list<std::string> lru;  // most recent first
  std::map<std::string, std::pair<std::list<std::string>::iterator, uint64_t>>
      entries;
  uint64_t version = 0;
  ServedCounts c;
  auto serve = [&](const Sample& s, bool count) {
    if (count) ++c.statements;
    if (s.cls == StmtClass::kWrite) {
      ++version;
      if (count) ++c.writes;
      return;
    }
    const std::string text = s.cls == StmtClass::kQuery
                                 ? spec.queries[s.query].text
                                 : LookupText(s.person);
    auto it = entries.find(text);
    const bool hit = it != entries.end() && it->second.second == version;
    if (hit) {
      lru.splice(lru.begin(), lru, it->second.first);
    } else {
      if (it != entries.end()) {
        lru.erase(it->second.first);
        entries.erase(it);
      }
      lru.push_front(text);
      entries[text] = {lru.begin(), version};
      if (lru.size() > capacity) {
        entries.erase(lru.back());
        lru.pop_back();
      }
    }
    if (!count) return;
    if (hit) ++c.hits;
    if (s.cls == StmtClass::kLookup) {
      ++c.lookups;
      if (!hit) ++c.lookup_misses;
    } else {
      ++c.served[text];
      if (!hit) ++c.misses[text];
    }
  };
  for (const Sample& s : untraced) serve(s, false);
  for (const Sample& s : traced) serve(s, true);
  return c;
}

}  // namespace

Counters Counters::Read() {
  Counters c;
  for (const char* name : kCounterNames) {
    c.values[name] =
        xsql::obs::MetricsRegistry::Global().GetCounter(name).value();
  }
  return c;
}

uint64_t Counters::Delta(const Counters& before,
                         const std::string& name) const {
  return values.at(name) - before.values.at(name);
}

double PingRttUs(int port, int pings) {
  auto client = xsql::server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return 0;
  std::vector<double> us;
  for (int i = 0; i < pings; ++i) {
    const int64_t start = NowNs();
    if (!client->Ping().ok()) break;
    us.push_back((NowNs() - start) / 1e3);
  }
  (void)client->Quit();
  return Median(us);
}

Result<std::vector<Metric>> MeasureLayers(const LayerInputs& in,
                                          SpanLog* spans) {
  const WorkloadSpec& spec = *in.spec;
  const ServedCounts served = CountServed(spec, in.untraced, in.traced);

  // The replay works on a copy, so the served directory stays as the run
  // left it.
  std::error_code ec;
  std::filesystem::remove_all(in.scratch, ec);
  std::filesystem::copy(in.dir, in.scratch,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::RuntimeError("copy to " + in.scratch + " failed");
  XSQL_ASSIGN_OR_RETURN(auto dd,
                        xsql::storage::DurableDatabase::Open(in.scratch));

  std::mt19937_64 rng(in.seed * 7919 + 17);
  int64_t next_value = 1'000'000;
  auto next_write = [&]() {
    const int person =
        static_cast<int>(rng() % static_cast<uint64_t>(in.persons));
    return WriteText(person, next_value++);
  };

  // storage: the durable write path below the server, one write at a
  // time with its own group committer. store: the active-domain rebuild
  // the write forces, and the copy-on-write fork the server takes of the
  // master after every write.
  std::vector<double> enqueue_us, durable_us, fork_us, domain_us;
  if (spec.round_writes > 0) {
    xsql::storage::GroupCommitter committer(dd->wal());
    for (int i = 0; i < kStorageWrites; ++i) {
      const std::string text = next_write();
      const uint64_t parent = spans->Open(0, "replay/write", text);
      uint64_t ticket = 0;
      Status st = Status::OK();
      enqueue_us.push_back(
          Timed(spans, parent, "storage.commit_enqueue", text, [&] {
            auto out = dd->ExecuteForCommit(&dd->session(), text, &committer,
                                            &ticket);
            if (!out.ok()) st = out.status();
          }));
      durable_us.push_back(Timed(
          spans, parent, "storage.wait_durable", text,
          [&] {
            Status durable = committer.WaitDurable(ticket);
            if (st.ok()) st = durable;
          }));
      if (!st.ok()) return st;
      // The write left the master's active domain dirty; Fork would
      // rebuild it first, so the rebuild is timed on its own before.
      domain_us.push_back(Timed(spans, parent, "store.active_domain", "",
                                [&] { (void)dd->db().ActiveDomain(); }));
      fork_us.push_back(Timed(spans, parent, "store.fork", "",
                              [&] { (void)dd->db().Fork(); }));
      dd->db().BeginNewEpoch();
      spans->Close(parent);
    }
  }

  // The read texts replayed: every query, and a seeded sample of the
  // lookups standing in equally for all of them.
  std::vector<ReadText> reads;
  auto add_read = [&](StmtClass cls, std::string label, std::string text,
                      double count, double misses) {
    ReadText r;
    r.cls = cls;
    r.label = std::move(label);
    r.text = std::move(text);
    r.served = count;
    r.misses = misses;
    reads.push_back(std::move(r));
  };
  auto lookup = [](const std::map<std::string, double>& m,
                   const std::string& key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const NamedQuery& q : spec.queries) {
    add_read(StmtClass::kQuery, q.label, q.text,
             lookup(served.served, q.text), lookup(served.misses, q.text));
  }
  if (spec.round_lookups > 0) {
    for (int i = 0; i < kLookupSample; ++i) {
      const int person =
          static_cast<int>(rng() % static_cast<uint64_t>(in.persons));
      add_read(StmtClass::kLookup, "person" + std::to_string(person),
               LookupText(person), served.lookups / kLookupSample,
               served.lookup_misses / kLookupSample);
    }
  }

  // server, parser, typing, eval: each read text through each layer's
  // public call on the pinned head version. With writes in the mix, a
  // write precedes every read, as on the served path, where a write
  // invalidates the plan cache and dirties the active domain.
  xsql::server::ConcurrencyManager cm(dd.get());
  XSQL_ASSIGN_OR_RETURN(uint64_t sid, cm.CreateSession({}));
  for (const ReadText& r : reads) {
    XSQL_RETURN_IF_ERROR(cm.Execute(sid, r.text).status());  // warm
  }
  std::vector<double> write_execute_us, write_classify_us, write_parse_us;
  for (int rep = 0; rep < kReps; ++rep) {
    for (ReadText& r : reads) {
      const uint64_t parent = spans->Open(
          0, std::string("replay/") + ClassName(r.cls), r.label);
      if (spec.round_writes > 0) {
        const std::string w = next_write();
        Status st = Status::OK();
        write_execute_us.push_back(
            Timed(spans, parent, "server.execute", w,
                  [&] { st = cm.Execute(sid, w).status(); }));
        XSQL_RETURN_IF_ERROR(st);
        auto head = cm.PinSnapshot();
        write_classify_us.push_back(
            Timed(spans, parent, "server.classify", w, [&] {
              (void)xsql::server::ClassifyMode(
                  w, xsql::storage::ClassifyStatement(w, *head->db),
                  *head->db, *head->views);
            }));
        write_parse_us.push_back(Timed(spans, parent, "parser.parse", w, [&] {
          (void)xsql::ParseAndResolve(w, *head->db);
        }));
      }
      auto snap = cm.PinSnapshot();
      xsql::Database* db = snap->db.get();
      r.classify.push_back(
          Timed(spans, parent, "server.classify", r.label, [&] {
            (void)xsql::server::ClassifyMode(
                r.text, xsql::storage::ClassifyStatement(r.text, *db), *db,
                *snap->views);
          }));
      Result<xsql::Statement> stmt = Status::RuntimeError("not parsed");
      r.parse.push_back(Timed(spans, parent, "parser.parse", r.label, [&] {
        stmt = xsql::ParseAndResolve(r.text, *db);
      }));
      XSQL_RETURN_IF_ERROR(stmt.status());
      if (stmt->query == nullptr ||
          stmt->query->kind != xsql::QueryExpr::Kind::kSimple) {
        return Status::InvalidArgument("not a simple query: " + r.text);
      }
      const xsql::Query& query = *stmt->query->simple;
      xsql::TypingResult typing;
      r.typecheck.push_back(
          Timed(spans, parent, "typing.typecheck", r.label, [&] {
            typing = xsql::TypeChecker(*db).Check(query,
                                                  xsql::TypingMode::kStrict);
          }));
      const xsql::RangeMap* ranges =
          typing.well_typed && typing.in_fragment ? &typing.ranges : nullptr;
      xsql::QueryPlan plan;
      r.plan.push_back(Timed(spans, parent, "typing.plan", r.label, [&] {
        plan = xsql::Planner(*db).Plan(query, ranges);
      }));
      xsql::EvalOptions opts;
      opts.ranges = ranges;
      opts.plan = &plan;
      Status st = Status::OK();
      r.run.push_back(Timed(spans, parent, "eval.run", r.label, [&] {
        xsql::Evaluator evaluator(db, snap->views.get());
        st = evaluator.Run(query, opts).status();
      }));
      XSQL_RETURN_IF_ERROR(st);
      r.execute.push_back(Timed(spans, parent, "server.execute", r.label, [&] {
        st = cm.Execute(sid, r.text).status();
      }));
      XSQL_RETURN_IF_ERROR(st);
      spans->Close(parent);
    }
  }

  std::vector<double> checkpoint_ms;
  for (int i = 0; i < kCheckpoints; ++i) {
    Status st = Status::OK();
    checkpoint_ms.push_back(
        Timed(spans, 0, "storage.checkpoint", "",
              [&] { st = cm.Checkpoint(); }) /
        1e3);
    XSQL_RETURN_IF_ERROR(st);
  }
  cm.CloseSession(sid);

  // Per served statement: each call's median replayed time, times how
  // often the traced phase made the call.
  const double n = served.statements;
  const double writes = served.writes;
  auto per_stmt = [&](std::vector<double> ReadText::*call, bool on_miss,
                      double write_calls, double write_us) {
    double sum = write_calls * write_us;
    for (const ReadText& r : reads) {
      sum += (on_miss ? r.misses : r.served) * Median(r.*call);
    }
    return Ratio(sum, n);
  };
  auto delta = [&](const char* name) {
    return static_cast<double>(in.after.Delta(in.before, name));
  };
  const double hits = delta("xsql.plan.cache_hits");
  const double misses = delta("xsql.plan.cache_misses");
  std::printf("plan cache over the traced phase: hit ratio %.4f measured, "
              "%.4f from the replayed order\n",
              Ratio(hits, hits + misses), Ratio(served.hits, n));
  std::vector<Metric> m = {
      {"server.ping_rtt_us", in.ping_rtt_us, "us"},
      {"server.classify_us",
       per_stmt(&ReadText::classify, false, writes,
                Median(write_classify_us)),
       "us"},
      {"server.execute_us",
       per_stmt(&ReadText::execute, false, writes, Median(write_execute_us)),
       "us"},
      {"parser.parse_us",
       per_stmt(&ReadText::parse, true, writes, Median(write_parse_us)),
       "us"},
      {"typing.typecheck_us", per_stmt(&ReadText::typecheck, true, 0, 0),
       "us"},
      {"typing.plan_us", per_stmt(&ReadText::plan, true, 0, 0), "us"},
      {"eval.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"eval.run_us", per_stmt(&ReadText::run, false, 0, 0), "us"},
      {"eval.batch_filtered_ratio",
       Ratio(delta("xsql.exec.batch_filtered"),
             delta("xsql.exec.batch_rows")),
       "ratio"},
      {"eval.hash_joins_per_stmt",
       Ratio(delta("xsql.plan.hash_joins"), n), "count"},
      {"eval.rows_per_stmt", Ratio(delta("xsql.eval.rows"), n), "count"},
      {"eval.parallel_partitions_per_stmt",
       Ratio(delta("xsql.exec.partitions"), n), "count"},
      {"store.fork_us", Ratio(writes * Median(fork_us), n), "us"},
      {"store.active_domain_us", Ratio(writes * Median(domain_us), n), "us"},
      {"store.cow_clones_per_write",
       Ratio(delta("xsql.mvcc.cow_clones"), writes), "count"},
      {"store.cow_bytes_per_write",
       Ratio(delta("xsql.mvcc.cow_bytes"), writes), "bytes"},
      {"storage.commit_enqueue_us", Median(enqueue_us), "us"},
      {"storage.wait_durable_us", Median(durable_us), "us"},
      {"storage.fsyncs_per_write", Ratio(delta("xsql.storage.fsyncs"), writes),
       "count"},
      {"storage.writes_per_fsync",
       Ratio(writes, delta("xsql.storage.group_commit_batches")), "count"},
      {"storage.wal_bytes_per_write",
       Ratio(delta("xsql.storage.wal_bytes"), writes), "bytes"},
      {"storage.checkpoint_ms", Median(checkpoint_ms), "ms"},
      {"storage.open_s", Median(in.open_s), "s"},
      {"storage.snapshot_bytes_per_object",
       Ratio(static_cast<double>(in.snapshot_bytes),
             static_cast<double>(in.objects)),
       "bytes"},
      {"workload.generate_s", in.generate_s, "s"},
      {"obs.trace_overhead_ratio", Ratio(in.traced_sps, in.untraced_sps),
       "ratio"},
  };
  dd.reset();
  std::filesystem::remove_all(in.scratch, ec);
  return m;
}

}  // namespace perfbench
