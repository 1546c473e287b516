#include "mix.h"

#include <algorithm>
#include <cstdio>

#include "eval/evaluator.h"
#include "eval/session.h"
#include "oid/oid.h"

namespace perfbench {
namespace {

// The paper's Figure-1 example queries as benchmarked in B6, by label.
const NamedQuery kQ1{"Q1", "SELECT C WHERE mary123.Residence.City[C]"};
const NamedQuery kQ3{
    "Q3", "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"};
const NamedQuery kQ4{"Q4",
                     "SELECT Z FROM Employee X, Automobile Y "
                     "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]"};
const NamedQuery kQ5{"Q5",
                     "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']"};
const NamedQuery kQ6{"Q6", "SELECT $X WHERE TurboEngine subclassOf $X"};
const NamedQuery kQ7{
    "Q7", "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"};
const NamedQuery kQ8{"Q8",
                     "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
                     "and X.President.OwnedVehicles.Color containsEq "
                     "{'blue', 'red'} and X.President.Age < 30"};
const NamedQuery kQ10{"Q10",
                      "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
                      "and X.Salary < 35000"};
const NamedQuery kQ11{"Q11",
                      "SELECT X.Name, W.Salary FROM Company X "
                      "WHERE X.Divisions.Employees[W]"};
const NamedQuery kQ12{"Q12",
                      "SELECT X, Y FROM Company X "
                      "WHERE X.Name =some X.Divisions.Employees[Y].Name"};

// B16's two `=all` joins (not hash-joinable) and B14's two `=some` hash
// joins.
const NamedQuery kW0{
    "W0",
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary"};
const NamedQuery kW1{
    "W1", "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age"};
const NamedQuery kJ1{"J1",
                     "SELECT X, Y FROM Employee X, Employee Y "
                     "WHERE X.Salary =some Y.Salary"};
const NamedQuery kJ2{
    "J2", "SELECT X, Y FROM Employee X, Person Y WHERE X.Name =some Y.Name"};

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "paper_mix";
    w.scale = 16;
    w.clients = 2;
    w.queries = {kQ1, kQ3, kQ4, kQ5, kQ6, kQ7, kQ8, kQ10, kQ11, kQ12};
    w.round_queries = 1;
    w.round_lookups = 1;
    w.min_text_samples = 100;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "join_scan";
    w.scale = 8;
    w.clients = 2;
    w.queries = {kW0, kW1, kJ1, kJ2};
    w.round_queries = 1;
    w.min_text_samples = 100;
    out.push_back(w);
  }
  {
    // Paper queries that read no Person.Age (the attribute the writes
    // set). Three texts, so each gets the hundred samples a p90 needs
    // at this workload's rate.
    WorkloadSpec w;
    w.name = "write_mix";
    w.scale = 8;
    w.clients = 2;
    w.checkpoint_every = 100;
    w.queries = {kQ3, kQ4, kQ12};
    w.round_queries = 3;
    w.round_lookups = 3;
    w.round_writes = 4;
    w.min_text_samples = 100;
    w.min_write_samples = 300;
    out.push_back(w);
  }
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>& all =
      *new std::vector<WorkloadSpec>(MakeWorkloads());
  return all;
}

uint64_t HashLine(const std::string& s, size_t begin, size_t end) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (size_t i = begin; i < end; ++i) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const char* ClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kQuery:
      return "query";
    case StmtClass::kLookup:
      return "lookup";
    case StmtClass::kWrite:
      return "write";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

std::string LookupText(int person) {
  return "SELECT A WHERE person" + std::to_string(person) + ".Age[A]";
}

std::string WriteText(int person, int64_t value) {
  return "UPDATE CLASS Person SET person" + std::to_string(person) +
         ".Age = " + std::to_string(value);
}

Digest DigestReply(const std::string& rendered) {
  Digest d;
  std::vector<std::pair<size_t, size_t>> lines;
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t nl = rendered.find('\n', pos);
    if (nl == std::string::npos) nl = rendered.size();
    lines.emplace_back(pos, nl);
    pos = nl + 1;
  }
  if (lines.size() < 2) return d;  // no header + trailer
  const std::string trailer =
      rendered.substr(lines.back().first,
                      lines.back().second - lines.back().first);
  char expected_trailer[32];
  std::snprintf(expected_trailer, sizeof(expected_trailer), "(%zu rows)",
                lines.size() - 2);
  if (trailer != expected_trailer) return d;
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    d.hash += HashLine(rendered, lines[i].first, lines[i].second);
  }
  d.rows = lines.size() - 2;
  d.valid = true;
  return d;
}

Digest DigestOfAge(int64_t age) {
  return DigestReply("A\n" + xsql::Oid::Int(age).ToString() + "\n(1 rows)\n");
}

Oracle BuildOracle(xsql::Database* db, const WorkloadSpec& spec,
                   int persons, std::string* error) {
  xsql::SessionOptions options;
  options.use_planner = false;
  options.plan_cache_capacity = 0;
  xsql::Session session(db, options);
  std::vector<std::string> texts;
  for (const NamedQuery& q : spec.queries) texts.push_back(q.text);
  if (spec.round_lookups > 0) {
    for (int p = 0; p < persons; ++p) texts.push_back(LookupText(p));
  }
  Oracle oracle;
  for (const std::string& text : texts) {
    auto out = session.Execute(text);
    if (!out.ok()) {
      *error = "oracle failed on '" + text + "': " + out.status().ToString();
      return {};
    }
    Digest d = DigestReply(xsql::RenderEvalOutput(*out));
    if (!d.valid) {
      *error = "oracle reply for '" + text + "' is not a relation";
      return {};
    }
    oracle[text] = d;
  }
  return oracle;
}

MixStream::MixStream(const WorkloadSpec& spec, uint64_t seed, int client,
                     int persons)
    : spec_(spec),
      rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(client) + 1),
      client_(client) {
  for (int p = 0; p < persons; ++p) {
    // Read-only workloads look up every person; with writes, only the
    // client's own.
    if (spec.round_writes == 0 || p % spec.clients == client) {
      owned_.push_back(p);
    }
  }
  round_.insert(round_.end(), spec.round_queries, StmtClass::kQuery);
  round_.insert(round_.end(), spec.round_lookups, StmtClass::kLookup);
  round_.insert(round_.end(), spec.round_writes, StmtClass::kWrite);
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    query_deck_.push_back(static_cast<int>(i));
  }
  Refill();
  query_pos_ = query_deck_.size();
}

void MixStream::Refill() {
  std::shuffle(round_.begin(), round_.end(), rng_);
  round_pos_ = 0;
}

Stmt MixStream::Next() {
  if (round_pos_ == round_.size()) Refill();
  Stmt s;
  s.cls = round_[round_pos_++];
  switch (s.cls) {
    case StmtClass::kQuery:
      if (query_pos_ == query_deck_.size()) {
        std::shuffle(query_deck_.begin(), query_deck_.end(), rng_);
        query_pos_ = 0;
      }
      s.query = query_deck_[query_pos_++];
      s.text = spec_.queries[s.query].text;
      break;
    case StmtClass::kLookup:
      // Read-your-writes: look up the latest written person first.
      if (last_written_ >= 0) {
        s.person = last_written_;
        last_written_ = -1;
      } else {
        s.person = owned_[Pick(static_cast<int>(owned_.size()))];
      }
      s.text = LookupText(s.person);
      break;
    case StmtClass::kWrite:
      s.person = owned_[Pick(static_cast<int>(owned_.size()))];
      // Unique per write and far above any generated Age (16..80).
      s.value = 1000 + writes_++ * spec_.clients + client_;
      last_written_ = s.person;
      s.text = WriteText(s.person, s.value);
      break;
  }
  return s;
}

}  // namespace perfbench
