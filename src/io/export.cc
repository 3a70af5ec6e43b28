#include "io/export.h"

#include <fstream>

#include "common/strings.h"

namespace dbrepair {

const char* ExportModeName(ExportMode mode) {
  switch (mode) {
    case ExportMode::kUpdateStatements:
      return "update";
    case ExportMode::kInsertStatements:
      return "insert";
    case ExportMode::kDump:
      return "dump";
  }
  return "unknown";
}

Result<ExportMode> ParseExportMode(std::string_view name) {
  const std::string lower = ToLower(TrimWhitespace(name));
  if (lower == "update") return ExportMode::kUpdateStatements;
  if (lower == "insert") return ExportMode::kInsertStatements;
  if (lower == "dump") return ExportMode::kDump;
  return Status::ParseError("unknown export mode '" + std::string(name) +
                            "' (expected update | insert | dump)");
}

namespace {

std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) {
    std::string out = "'";
    for (const char c : v.AsString()) {
      if (c == '\'') out += '\'';
      out += c;
    }
    out += "'";
    return out;
  }
  return v.is_int() ? std::to_string(v.AsInt()) : FormatDouble(v.AsDouble());
}

std::string KeyPredicate(const RelationSchema& schema, TupleView row) {
  std::string out;
  bool first = true;
  for (const size_t pos : schema.key_positions()) {
    if (!first) out += " AND ";
    out += schema.attribute(pos).name + " = " + SqlLiteral(row.value(pos));
    first = false;
  }
  return out;
}

std::string ExportUpdates(const Database& repaired,
                          const std::vector<AppliedUpdate>& updates) {
  std::string out;
  for (const AppliedUpdate& update : updates) {
    const Table& table = repaired.table(update.tuple.relation);
    const RelationSchema& schema = table.schema();
    out += "UPDATE " + schema.name() + " SET " +
           schema.attribute(update.attribute).name + " = " +
           std::to_string(update.new_value) + " WHERE " +
           KeyPredicate(schema, table.row(update.tuple.row)) + ";\n";
  }
  return out;
}

std::string ExportInserts(const Database& repaired) {
  std::string out;
  for (size_t r = 0; r < repaired.relation_count(); ++r) {
    const Table& table = repaired.table(r);
    const RelationSchema& schema = table.schema();
    std::string columns;
    for (size_t i = 0; i < schema.arity(); ++i) {
      if (i > 0) columns += ", ";
      columns += schema.attribute(i).name;
    }
    for (const TupleView row : table.rows()) {
      out += "INSERT INTO " + schema.name() + " (" + columns + ") VALUES (";
      for (size_t i = 0; i < row.arity(); ++i) {
        if (i > 0) out += ", ";
        out += SqlLiteral(row.value(i));
      }
      out += ");\n";
    }
  }
  return out;
}

std::string ExportDump(const Database& repaired) {
  std::string out;
  for (size_t r = 0; r < repaired.relation_count(); ++r) {
    const Table& table = repaired.table(r);
    const RelationSchema& schema = table.schema();
    out += "-- " + schema.name() + " (" + std::to_string(table.size()) +
           " tuples)\n";
    for (const TupleView row : table.rows()) {
      out += schema.name() + row.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace

Result<std::string> ExportRepair(const Database& repaired,
                                 const std::vector<AppliedUpdate>& updates,
                                 ExportMode mode) {
  switch (mode) {
    case ExportMode::kUpdateStatements:
      return ExportUpdates(repaired, updates);
    case ExportMode::kInsertStatements:
      return ExportInserts(repaired);
    case ExportMode::kDump:
      return ExportDump(repaired);
  }
  return Status::InvalidArgument("unknown export mode");
}

Status WriteTextFile(const std::string& path, std::string_view content) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) return Status::IoError("failed writing '" + path + "'");
  return Status::OK();
}

}  // namespace dbrepair
