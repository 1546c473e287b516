// Workload definitions for the over-the-wire benchmark: which statements
// each client sends, in what proportion, and how a reply is checked.
#ifndef PERFBENCH_MIX_H_
#define PERFBENCH_MIX_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "store/database.h"

namespace perfbench {

/// Statement classes. Latencies are reported per class: `kQuery` is a
/// non-point read (a paper query or a join), `kLookup` a point read of
/// one person's Age, `kWrite` a durable point UPDATE of one Age.
enum class StmtClass : uint8_t { kQuery, kLookup, kWrite };
const char* ClassName(StmtClass cls);

struct Stmt {
  StmtClass cls = StmtClass::kQuery;
  int query = -1;   // index into WorkloadSpec::queries (kQuery)
  int person = -1;  // person number (kLookup, kWrite)
  int64_t value = 0;  // written Age (kWrite)
  std::string text;
};

struct NamedQuery {
  std::string label;
  std::string text;
};

/// One workload. A client repeats rounds of `round_queries` +
/// `round_lookups` + `round_writes` statements in a seeded shuffled
/// order, so every run has the stated proportions exactly. Query slots
/// cycle through `queries` in a shuffled order of their own.
struct WorkloadSpec {
  std::string name;
  size_t scale = 1;
  int clients = 1;
  /// ServerOptions::checkpoint_every (0 = never).
  uint64_t checkpoint_every = 0;
  std::vector<NamedQuery> queries;
  int round_queries = 0;
  int round_lookups = 0;
  int round_writes = 0;
  /// Fewest samples each query text, and the writes, need in one run;
  /// below either the run fails instead of reporting a number.
  size_t min_text_samples = 0;
  size_t min_write_samples = 0;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

std::string LookupText(int person);
std::string WriteText(int person, int64_t value);

/// Order-independent summary of a rendered relation: the row count and
/// the wrapping sum of a 64-bit hash of every row line.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool valid = false;
  bool operator==(const Digest& o) const {
    return valid && o.valid && rows == o.rows && hash == o.hash;
  }
};

/// Digest of a reply rendered by RenderEvalOutput (header line, rows,
/// "(N rows)" trailer). Invalid when the trailer is missing or disagrees
/// with the rows seen.
Digest DigestReply(const std::string& rendered);
/// Digest of the one-row answer of LookupText after the person's Age was
/// set to `age`.
Digest DigestOfAge(int64_t age);

/// Expected answer of every read text the workload sends, computed
/// in-process before timing with the planner and plan cache off.
using Oracle = std::map<std::string, Digest>;
Oracle BuildOracle(xsql::Database* db, const WorkloadSpec& spec,
                   int persons, std::string* error);

/// The statement stream of one client. Client `c` of `n` owns persons
/// p with p % n == c: only it writes them and only it looks them up in
/// a workload with writes, so it always knows their current value.
class MixStream {
 public:
  MixStream(const WorkloadSpec& spec, uint64_t seed, int client,
            int persons);

  Stmt Next();
  const std::vector<int>& owned() const { return owned_; }

 private:
  void Refill();
  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(n));
  }

  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  int client_;
  std::vector<int> owned_;
  std::vector<StmtClass> round_;
  size_t round_pos_ = 0;
  std::vector<int> query_deck_;
  size_t query_pos_ = 0;
  int64_t writes_ = 0;
  int last_written_ = -1;  // person of the latest write not yet looked up
};

}  // namespace perfbench

#endif  // PERFBENCH_MIX_H_
