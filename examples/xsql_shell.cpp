// An interactive XSQL shell over a Figure 1 instance — the fifth
// example and the fastest way to explore the language.
//
//   $ ./xsql_shell [scale]
//   xsql> SELECT C WHERE mary123.Residence.City[C]
//   xsql> .explain SELECT X FROM Vehicle X WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]
//   xsql> .schema
//   xsql> .quit
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/str_util.h"
#include "eval/session.h"
#include "storage/snapshot.h"
#include "store/catalog.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace {

void PrintRelation(const xsql::Relation& rel) {
  if (rel.columns().empty()) return;
  std::string header;
  for (size_t i = 0; i < rel.columns().size(); ++i) {
    if (i > 0) header += " | ";
    header += rel.columns()[i];
  }
  std::printf("%s\n", header.c_str());
  for (const auto& row : rel.rows()) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += row[i].ToString();
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("(%zu rows)\n", rel.size());
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 1;
  if (scale == 0) scale = 1;

  xsql::Database db;
  if (!xsql::workload::BuildFig1Schema(&db).ok()) return 1;
  xsql::workload::WorkloadParams params;
  params = params.Scaled(scale);
  auto stats = xsql::workload::GenerateFig1Data(&db, params);
  if (!stats.ok()) return 1;
  xsql::Session session(&db);

  std::printf(
      "XSQL shell — Figure 1 instance at scale %zu "
      "(%zu persons, %zu companies).\n"
      "Statements end at end-of-line. Commands: .schema, .explain <q>, "
      ".save <file>, .load <file>, .quit\n",
      scale, stats->persons, stats->companies);

  std::string line;
  while (true) {
    std::printf("xsql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ".quit" || line == ".q") break;
    if (line == ".schema") {
      std::printf("%s", xsql::catalog::DumpSchema(db).c_str());
      continue;
    }
    if (xsql::StartsWith(line, ".explain ")) {
      auto report = session.Explain(line.substr(9));
      if (report.ok()) {
        std::printf("%s", report->c_str());
      } else {
        std::printf("error: %s\n", report.status().ToString().c_str());
      }
      continue;
    }
    if (xsql::StartsWith(line, ".save ")) {
      xsql::Status st =
          xsql::storage::SaveSnapshotToFile(db, line.substr(6));
      std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
      continue;
    }
    if (xsql::StartsWith(line, ".load ")) {
      // Loads *into* the current database (additively).
      xsql::Status st =
          xsql::storage::LoadSnapshotFromFile(line.substr(6), &db);
      std::printf("%s\n", st.ok() ? "loaded" : st.ToString().c_str());
      continue;
    }
    auto out = session.Execute(line);
    if (!out.ok()) {
      std::printf("error: %s\n", out.status().ToString().c_str());
      continue;
    }
    PrintRelation(out->relation);
    if (out->objects_created) {
      std::printf("(created %zu objects)\n", out->created.size());
    }
  }
  return 0;
}
