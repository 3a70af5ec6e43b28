#include "io/snapshot.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace dbrepair {
namespace {

constexpr char kMagic[4] = {'D', 'B', 'R', 'S'};
constexpr uint32_t kVersion = 1;

enum : uint8_t {
  kTagNull = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagString = 3,
};

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  uint32_t length = 0;
  if (!ReadPod(in, &length)) return false;
  if (length > (1u << 30)) return false;  // corrupt length guard
  s->resize(length);
  in.read(s->data(), length);
  return static_cast<bool>(in);
}

void WriteValue(std::ostream& out, const Value& v) {
  if (v.is_null()) {
    WritePod<uint8_t>(out, kTagNull);
  } else if (v.is_int()) {
    WritePod<uint8_t>(out, kTagInt);
    WritePod<int64_t>(out, v.AsInt());
  } else if (v.is_double()) {
    WritePod<uint8_t>(out, kTagDouble);
    WritePod<double>(out, v.AsDouble());
  } else {
    WritePod<uint8_t>(out, kTagString);
    WriteString(out, v.AsString());
  }
}

Result<Value> ReadValue(std::istream& in) {
  uint8_t tag = 0;
  if (!ReadPod(in, &tag)) {
    return Status::IoError("snapshot truncated inside a value");
  }
  switch (tag) {
    case kTagNull:
      return Value();
    case kTagInt: {
      int64_t v = 0;
      if (!ReadPod(in, &v)) return Status::IoError("snapshot truncated");
      return Value::Int(v);
    }
    case kTagDouble: {
      double v = 0;
      if (!ReadPod(in, &v)) return Status::IoError("snapshot truncated");
      return Value::Double(v);
    }
    case kTagString: {
      std::string s;
      if (!ReadString(in, &s)) return Status::IoError("snapshot truncated");
      return Value::String(std::move(s));
    }
    default:
      return Status::ParseError("snapshot has unknown value tag " +
                                std::to_string(tag));
  }
}

}  // namespace

Status WriteSnapshot(const Database& db, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(out, kVersion);
  WritePod<uint32_t>(out, static_cast<uint32_t>(db.relation_count()));
  for (size_t r = 0; r < db.relation_count(); ++r) {
    const Table& table = db.table(r);
    WriteString(out, table.schema().name());
    WritePod<uint64_t>(out, table.size());
    for (const TupleView row : table.rows()) {
      for (const Value& v : row) WriteValue(out, v);
    }
  }
  if (!out) return Status::IoError("failed writing snapshot stream");
  return Status::OK();
}

Status WriteSnapshotFile(const Database& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  return WriteSnapshot(db, out);
}

Result<Database> ReadSnapshot(std::shared_ptr<const Schema> schema,
                              std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a dbrepair snapshot (bad magic)");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::ParseError("unsupported snapshot version");
  }
  uint32_t relations = 0;
  if (!ReadPod(in, &relations)) {
    return Status::IoError("snapshot truncated in header");
  }
  if (relations != schema->relations().size()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(relations) +
        " relations, schema declares " +
        std::to_string(schema->relations().size()));
  }

  Database db(std::move(schema));
  for (uint32_t r = 0; r < relations; ++r) {
    std::string name;
    if (!ReadString(in, &name)) {
      return Status::IoError("snapshot truncated at relation header");
    }
    Table* table = db.FindMutableTable(name);
    if (table == nullptr) {
      return Status::InvalidArgument("snapshot relation '" + name +
                                     "' not in the schema");
    }
    uint64_t rows = 0;
    if (!ReadPod(in, &rows)) {
      return Status::IoError("snapshot truncated at row count");
    }
    const size_t arity = table->schema().arity();
    for (uint64_t i = 0; i < rows; ++i) {
      std::vector<Value> values;
      values.reserve(arity);
      for (size_t c = 0; c < arity; ++c) {
        DBREPAIR_ASSIGN_OR_RETURN(Value v, ReadValue(in));
        values.push_back(std::move(v));
      }
      DBREPAIR_RETURN_IF_ERROR(
          table->Insert(Tuple(std::move(values))).status());
    }
  }
  return db;
}

Result<Database> ReadSnapshotFile(std::shared_ptr<const Schema> schema,
                                  const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  return ReadSnapshot(std::move(schema), in);
}

}  // namespace dbrepair
