#ifndef XSQL_STORAGE_SNAPSHOT_H_
#define XSQL_STORAGE_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "oid/oid.h"
#include "store/database.h"

namespace xsql {
namespace storage {

/// Durable snapshots of a Database: a line-oriented text format holding
/// the full schema (classes, IS-A edges, signatures), the instance-of
/// relation, every object with its attribute values, and the definition
/// statements (`DEF` records). Oids are encoded self-delimiting
/// (length-prefixed payloads), so arbitrary strings and nested id-terms
/// round-trip byte-exactly.
///
/// Not persisted (by design, documented): method *bodies* (native
/// functions cannot be serialized; query-defined methods and views are
/// re-installed by executing the restored definitions, which callers
/// own) and the version counter (a loaded database starts fresh).
///
/// Format version 3: payloads escape `\` as `\\` and newline as `\n`
/// (length prefixes count escaped bytes), so strings and atoms with
/// embedded newlines round-trip. Versions 1 and 2 (no `DEF` records)
/// still load. Output is canonical — sections backed by unordered
/// containers are emitted in sorted oid order — so two equal databases
/// (and a database before a statement vs. after that statement rolled
/// back) snapshot to byte-identical text.

/// Serializes the database.
std::string SaveSnapshot(const Database& db);

/// The format version in the header line of `text` (1 to 3), or 0 when
/// `text` is not a snapshot.
int SnapshotVersion(const std::string& text);

/// Restores a snapshot produced by SaveSnapshot into `db`, which should
/// be freshly constructed (builtins are reconciled, everything else is
/// added). Fails with InvalidArgument on malformed input.
Status LoadSnapshot(const std::string& text, Database* db);

/// File convenience wrappers.
Status SaveSnapshotToFile(const Database& db, const std::string& path);
Status LoadSnapshotFromFile(const std::string& path, Database* db);

/// Self-delimiting oid codec (exposed for tests).
void EncodeOid(const Oid& oid, std::string* out);
Result<Oid> DecodeOid(const std::string& text, size_t* pos);

}  // namespace storage
}  // namespace xsql

#endif  // XSQL_STORAGE_SNAPSHOT_H_
