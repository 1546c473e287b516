#include "storage/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "storage/file.h"

namespace xsql {
namespace storage {

namespace {

// Version 3 adds DEF records; version 2 escapes newlines/backslashes
// in payloads; version 1 (no escaping, could not represent embedded
// newlines) is still loadable.
constexpr const char* kHeaderPrefix = "XSQL-SNAPSHOT ";
constexpr int kVersion = 3;

Status Malformed(const std::string& what, size_t pos) {
  return Status::InvalidArgument("malformed snapshot: " + what +
                                 " at offset " + std::to_string(pos));
}

// Payload escaping keeps the format line-oriented: `\` -> `\\` and
// newline -> `\n`. The length prefix counts *escaped* bytes, so the
// payload remains self-delimiting.
void EscapeInto(const std::string& raw, std::string* out) {
  for (char c : raw) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

std::string Unescape(const std::string& payload) {
  std::string out;
  out.reserve(payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == '\\' && i + 1 < payload.size()) {
      char next = payload[i + 1];
      if (next == '\\') {
        out.push_back('\\');
        ++i;
        continue;
      }
      if (next == 'n') {
        out.push_back('\n');
        ++i;
        continue;
      }
    }
    // Lone backslashes pass through, so v1 payloads (no escaping) that
    // contain a backslash not followed by `\` or `n` still load.
    out.push_back(payload[i]);
  }
  return out;
}

}  // namespace

void EncodeOid(const Oid& oid, std::string* out) {
  switch (oid.kind()) {
    case OidKind::kNil:
      out->push_back('n');
      break;
    case OidKind::kBool:
      out->push_back('b');
      out->push_back(oid.bool_value() ? '1' : '0');
      break;
    case OidKind::kInt:
      out->push_back('i');
      out->append(std::to_string(oid.int_value()));
      out->push_back(';');
      break;
    case OidKind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "r%.17g;", oid.real_value());
      out->append(buf);
      break;
    }
    case OidKind::kString:
    case OidKind::kAtom: {
      std::string escaped;
      EscapeInto(oid.str(), &escaped);
      out->push_back(oid.is_string() ? 's' : 'a');
      out->append(std::to_string(escaped.size()));
      out->push_back(':');
      out->append(escaped);
      break;
    }
    case OidKind::kTerm: {
      std::string escaped;
      EscapeInto(oid.term_fn(), &escaped);
      out->push_back('t');
      out->append(std::to_string(escaped.size()));
      out->push_back(':');
      out->append(escaped);
      out->append(std::to_string(oid.term_args().size()));
      out->push_back(';');
      for (const Oid& arg : oid.term_args()) EncodeOid(arg, out);
      break;
    }
  }
}

namespace {

Result<int64_t> DecodeInt(const std::string& text, size_t* pos,
                          char terminator) {
  size_t start = *pos;
  size_t end = text.find(terminator, start);
  if (end == std::string::npos) return Malformed("unterminated number", start);
  errno = 0;
  char* stop = nullptr;
  std::string digits = text.substr(start, end - start);
  int64_t value = std::strtoll(digits.c_str(), &stop, 10);
  if (errno != 0 || stop == digits.c_str() || *stop != '\0') {
    return Malformed("bad number", start);
  }
  *pos = end + 1;
  return value;
}

Result<std::string> DecodePayload(const std::string& text, size_t* pos) {
  XSQL_ASSIGN_OR_RETURN(int64_t len, DecodeInt(text, pos, ':'));
  if (len < 0 || *pos + static_cast<size_t>(len) > text.size()) {
    return Malformed("payload overruns input", *pos);
  }
  std::string payload = text.substr(*pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return Unescape(payload);
}

}  // namespace

Result<Oid> DecodeOid(const std::string& text, size_t* pos) {
  if (*pos >= text.size()) return Malformed("truncated oid", *pos);
  char tag = text[(*pos)++];
  switch (tag) {
    case 'n':
      return Oid::Nil();
    case 'b': {
      if (*pos >= text.size()) return Malformed("truncated bool", *pos);
      char v = text[(*pos)++];
      return Oid::Bool(v == '1');
    }
    case 'i': {
      XSQL_ASSIGN_OR_RETURN(int64_t value, DecodeInt(text, pos, ';'));
      return Oid::Int(value);
    }
    case 'r': {
      size_t start = *pos;
      size_t end = text.find(';', start);
      if (end == std::string::npos) return Malformed("unterminated real", start);
      errno = 0;
      char* stop = nullptr;
      std::string digits = text.substr(start, end - start);
      double value = std::strtod(digits.c_str(), &stop);
      if (errno != 0 || stop == digits.c_str() || *stop != '\0' ||
          !std::isfinite(value)) {
        // Non-finite reals would break Oid's total order.
        return Malformed("bad real", start);
      }
      *pos = end + 1;
      return Oid::Real(value);
    }
    case 's': {
      XSQL_ASSIGN_OR_RETURN(std::string payload, DecodePayload(text, pos));
      return Oid::String(std::move(payload));
    }
    case 'a': {
      XSQL_ASSIGN_OR_RETURN(std::string payload, DecodePayload(text, pos));
      return Oid::Atom(std::move(payload));
    }
    case 't': {
      XSQL_ASSIGN_OR_RETURN(std::string fn, DecodePayload(text, pos));
      XSQL_ASSIGN_OR_RETURN(int64_t argc, DecodeInt(text, pos, ';'));
      if (argc < 0 || argc > 1 << 20) return Malformed("bad arity", *pos);
      std::vector<Oid> args;
      args.reserve(static_cast<size_t>(argc));
      for (int64_t i = 0; i < argc; ++i) {
        XSQL_ASSIGN_OR_RETURN(Oid arg, DecodeOid(text, pos));
        args.push_back(std::move(arg));
      }
      return Oid::Term(std::move(fn), std::move(args));
    }
    default:
      return Malformed(std::string("unknown oid tag '") + tag + "'",
                       *pos - 1);
  }
}

int SnapshotVersion(const std::string& text) {
  const std::string first = text.substr(0, text.find('\n'));
  for (int version = 1; version <= kVersion; ++version) {
    if (first == kHeaderPrefix + std::to_string(version)) return version;
  }
  return 0;
}

std::string SaveSnapshot(const Database& db) {
  std::string out = kHeaderPrefix + std::to_string(kVersion);
  out += '\n';
  auto emit_oid = [&out](const Oid& oid) { EncodeOid(oid, &out); };

  for (const Oid& cls : db.graph().classes()) {
    out += "CLASS ";
    emit_oid(cls);
    out += '\n';
  }
  for (const Oid& cls : db.graph().classes()) {
    for (const Oid& super : db.graph().DirectSuperclasses(cls)) {
      out += "ISA ";
      emit_oid(cls);
      out += ' ';
      emit_oid(super);
      out += '\n';
    }
  }
  // SIG/INST/OBJ/ATTR sections come from unordered maps; emit them in
  // sorted order so equal databases produce byte-identical snapshots
  // (CLASS and ISA already iterate stable declaration-order vectors).
  std::vector<Oid> sig_classes = db.signatures().DeclaringClasses();
  std::sort(sig_classes.begin(), sig_classes.end());
  for (const Oid& cls : sig_classes) {
    for (const Oid& method : db.signatures().DeclaredMethods(cls)) {
      for (const Signature& sig : db.signatures().Declared(cls, method)) {
        out += "SIG ";
        emit_oid(cls);
        out += ' ';
        emit_oid(sig.method);
        out += ' ';
        out += std::to_string(sig.args.size());
        for (const Oid& arg : sig.args) {
          out += ' ';
          emit_oid(arg);
        }
        out += ' ';
        emit_oid(sig.result);
        out += sig.set_valued ? " set" : " scalar";
        out += '\n';
      }
    }
  }
  std::vector<std::pair<Oid, Oid>> inst = db.AllInstancePairs();
  std::sort(inst.begin(), inst.end());
  for (const auto& [obj, cls] : inst) {
    out += "INST ";
    emit_oid(obj);
    out += ' ';
    emit_oid(cls);
    out += '\n';
  }
  std::vector<std::pair<const Oid*, const Object*>> object_entries;
  object_entries.reserve(db.object_count());
  db.ForEachObject([&](const Oid& oid, const Object& object) {
    object_entries.emplace_back(&oid, &object);
  });
  std::sort(object_entries.begin(), object_entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [oid_ptr, object_ptr] : object_entries) {
    const Oid& oid = *oid_ptr;
    const Object& object = *object_ptr;
    out += "OBJ ";
    emit_oid(oid);
    out += '\n';
    for (const auto& [attr, value] : object.attrs()) {
      out += "ATTR ";
      emit_oid(oid);
      out += ' ';
      emit_oid(attr);
      if (value.set_valued()) {
        out += " set " + std::to_string(value.set().size());
        for (const Oid& v : value.set()) {
          out += ' ';
          emit_oid(v);
        }
      } else {
        out += " scalar ";
        emit_oid(value.scalar());
      }
      out += '\n';
    }
  }
  // Definitions last, in execution order: recovery re-executes them
  // over the state the records above restore.
  for (const std::string& definition : db.definitions()) {
    out += "DEF ";
    emit_oid(Oid::String(definition));
    out += '\n';
  }
  return out;
}

namespace {

/// Token cursor over one snapshot line. Owns its text: callers pass
/// substr temporaries.
class LineCursor {
 public:
  explicit LineCursor(std::string line) : line_(std::move(line)) {}

  Result<Oid> NextOid() {
    SkipSpace();
    return DecodeOid(line_, &pos_);
  }

  Result<int64_t> NextCount() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    errno = 0;
    char* stop = nullptr;
    std::string digits = line_.substr(start, pos_ - start);
    int64_t value = std::strtoll(digits.c_str(), &stop, 10);
    if (errno != 0 || stop == digits.c_str() || *stop != '\0') {
      return Malformed("bad count", start);
    }
    return value;
  }

  Result<std::string> NextWord() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    if (start == pos_) return Malformed("missing word", start);
    return line_.substr(start, pos_ - start);
  }

  /// A record must consume its whole line: trailing garbage would load
  /// "successfully" while silently dropping data, so reject it.
  Status ExpectEnd() {
    SkipSpace();
    if (pos_ < line_.size()) {
      return Malformed("trailing garbage '" + line_.substr(pos_) + "'",
                       pos_);
    }
    return Status::OK();
  }

 private:
  void SkipSpace() {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
  }

  std::string line_;
  size_t pos_ = 0;
};

}  // namespace

namespace {

/// The raw store writes that replay CLASS, ISA and INST records
/// verbatim (no implied Object superclass or meta-class membership).
/// They are private to Database, so LoadSnapshot, its friend, binds them.
struct RawWrites {
  std::function<Status(const Oid&)> declare_class;
  std::function<Status(const Oid&, const Oid&)> add_subclass;
  std::function<void(const Oid&, const Oid&)> add_instance;
};

/// Parses and applies one snapshot record line (sans the leading record
/// word). Every error is InvalidArgument; the caller stamps the line
/// number on. Class-graph and instance-of records go through `raw`; the
/// caller recounts the active domain afterwards.
Status ApplyLine(const std::string& record, LineCursor* cursor,
                 Database* db, const RawWrites& raw) {
  if (record == "CLASS") {
    XSQL_ASSIGN_OR_RETURN(Oid cls, cursor->NextOid());
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    return raw.declare_class(cls);
  }
  if (record == "ISA") {
    XSQL_ASSIGN_OR_RETURN(Oid sub, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(Oid super, cursor->NextOid());
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    return raw.add_subclass(sub, super);
  }
  if (record == "SIG") {
    XSQL_ASSIGN_OR_RETURN(Oid cls, cursor->NextOid());
    Signature sig;
    XSQL_ASSIGN_OR_RETURN(sig.method, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(int64_t argc, cursor->NextCount());
    if (argc < 0) return Malformed("negative SIG arity", 0);
    for (int64_t i = 0; i < argc; ++i) {
      XSQL_ASSIGN_OR_RETURN(Oid arg, cursor->NextOid());
      sig.args.push_back(std::move(arg));
    }
    XSQL_ASSIGN_OR_RETURN(sig.result, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(std::string kind, cursor->NextWord());
    if (kind != "set" && kind != "scalar") {
      return Malformed("bad SIG kind '" + kind + "'", 0);
    }
    sig.set_valued = kind == "set";
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    return db->DeclareSignature(cls, std::move(sig));
  }
  if (record == "INST") {
    XSQL_ASSIGN_OR_RETURN(Oid obj, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(Oid cls, cursor->NextOid());
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    raw.add_instance(obj, cls);
    return Status::OK();
  }
  if (record == "OBJ") {
    XSQL_ASSIGN_OR_RETURN(Oid oid, cursor->NextOid());
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    return db->NewObject(oid, {});
  }
  if (record == "ATTR") {
    XSQL_ASSIGN_OR_RETURN(Oid oid, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(Oid attr, cursor->NextOid());
    XSQL_ASSIGN_OR_RETURN(std::string kind, cursor->NextWord());
    if (kind == "scalar") {
      XSQL_ASSIGN_OR_RETURN(Oid value, cursor->NextOid());
      XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
      return db->SetScalar(oid, attr, value);
    }
    if (kind == "set") {
      XSQL_ASSIGN_OR_RETURN(int64_t count, cursor->NextCount());
      if (count < 0) return Malformed("negative set count", 0);
      OidSet values;
      for (int64_t i = 0; i < count; ++i) {
        XSQL_ASSIGN_OR_RETURN(Oid value, cursor->NextOid());
        values.Insert(value);
      }
      XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
      return db->SetSet(oid, attr, std::move(values));
    }
    return Malformed("bad ATTR kind '" + kind + "'", 0);
  }
  if (record == "DEF") {
    XSQL_ASSIGN_OR_RETURN(Oid text, cursor->NextOid());
    XSQL_RETURN_IF_ERROR(cursor->ExpectEnd());
    if (!text.is_string()) return Malformed("DEF payload not a string", 0);
    db->AddDefinition(text.str());
    return Status::OK();
  }
  return Malformed("unknown record '" + record + "'", 0);
}

}  // namespace

Status LoadSnapshot(const std::string& text, Database* db) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || SnapshotVersion(line) == 0) {
    return Status::InvalidArgument("not an XSQL snapshot (bad header)");
  }
  const RawWrites raw{
      [db](const Oid& cls) {
        return db->graph_.DeclareClass(cls, db->cow_epoch_);
      },
      [db](const Oid& sub, const Oid& super) {
        return db->graph_.AddSubclass(sub, super, db->cow_epoch_);
      },
      [db](const Oid& obj, const Oid& cls) { db->AddInstanceRaw(obj, cls); }};
  auto apply_records = [&]() -> Status {
    size_t line_no = 1;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      size_t space = line.find(' ');
      if (space == std::string::npos) {
        return Malformed("record '" + line + "' without payload (line " +
                         std::to_string(line_no) + ")", 0);
      }
      std::string record = line.substr(0, space);
      LineCursor cursor(line.substr(space + 1));
      Status st = ApplyLine(record, &cursor, db, raw);
      if (!st.ok()) {
        // Offsets inside messages are relative to the line's payload;
        // stamp the line number so corrupt files pinpoint themselves.
        return Status(st.code(), st.message() + " (line " +
                                     std::to_string(line_no) + ")");
      }
    }
    return Status::OK();
  };
  Status st = apply_records();
  // The raw writes bypassed the domain and default counts: one full
  // recount, on failure too, leaves even a partial load consistent.
  db->Recount();
  return st;
}

Status SaveSnapshotToFile(const Database& db, const std::string& path) {
  // Crash-safe replacement: the snapshot lands in a temp file in the
  // same directory, is fsynced, and only then renamed over the target.
  // A crash at any point leaves either the old or the new snapshot
  // complete — never a truncated hybrid.
  return File::WriteAtomic(path, SaveSnapshot(db));
}

Status LoadSnapshotFromFile(const std::string& path, Database* db) {
  XSQL_ASSIGN_OR_RETURN(std::string text, File::ReadAll(path));
  return LoadSnapshot(text, db);
}

}  // namespace storage
}  // namespace xsql
