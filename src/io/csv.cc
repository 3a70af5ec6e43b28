#include "io/csv.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace dbrepair {

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote in CSV record: '" +
                              std::string(line) + "'");
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<Value> CsvFieldToValue(const std::string& field, Type type) {
  const std::string_view trimmed = TrimWhitespace(field);
  if (trimmed.empty()) return Value();  // NULL
  switch (type) {
    case Type::kInt64: {
      DBREPAIR_ASSIGN_OR_RETURN(const int64_t v, ParseInt64(trimmed));
      return Value::Int(v);
    }
    case Type::kDouble: {
      DBREPAIR_ASSIGN_OR_RETURN(const double v, ParseDouble(trimmed));
      return Value::Double(v);
    }
    case Type::kString:
      return Value::String(std::string(trimmed));
  }
  return Status::Internal("unreachable type");
}

Result<TypedCsvRow> ParseTypedCsvRow(const Database& db,
                                     std::string_view line) {
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<std::string> fields,
                            ParseCsvLine(line, ','));
  const std::string relation(TrimWhitespace(fields[0]));
  const Table* table = db.FindTable(relation);
  if (table == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  const RelationSchema& schema = table->schema();
  if (fields.size() != schema.arity() + 1) {
    return Status::ParseError(
        "row has " + std::to_string(fields.size() - 1) + " values for '" +
        relation + "', expected " + std::to_string(schema.arity()));
  }
  TypedCsvRow row;
  row.relation = relation;
  row.values.reserve(schema.arity());
  for (size_t i = 0; i < schema.arity(); ++i) {
    DBREPAIR_ASSIGN_OR_RETURN(
        Value v, CsvFieldToValue(fields[i + 1], schema.attribute(i).type));
    row.values.push_back(std::move(v));
  }
  return row;
}

namespace {

std::string ValueToField(const Value& v, char delimiter) {
  if (v.is_null()) return "";
  std::string raw;
  if (v.is_string()) {
    raw = v.AsString();
  } else if (v.is_int()) {
    raw = std::to_string(v.AsInt());
  } else {
    raw = FormatDouble(v.AsDouble());
  }
  const bool needs_quoting =
      raw.find_first_of(std::string("\"\n") + delimiter) != std::string::npos;
  if (!needs_quoting) return raw;
  std::string quoted = "\"";
  for (const char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

Result<size_t> LoadCsvString(Database* db, std::string_view relation,
                             std::string_view data,
                             const CsvOptions& options) {
  const Table* table = db->FindTable(relation);
  if (table == nullptr) {
    return Status::NotFound("unknown relation '" + std::string(relation) +
                            "'");
  }
  const RelationSchema& schema = table->schema();
  const std::vector<std::string> lines = Split(data, '\n');
  // At most one row per line; the header and blank lines over-count.
  db->FindMutableTable(relation)->Reserve(table->size() + lines.size());

  size_t inserted = 0;
  bool saw_header = !options.has_header;
  size_t line_number = 0;
  for (const std::string& raw : lines) {
    ++line_number;
    std::string_view line = raw;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (TrimWhitespace(line).empty()) continue;
    DBREPAIR_ASSIGN_OR_RETURN(const std::vector<std::string> fields,
                              ParseCsvLine(line, options.delimiter));
    if (!saw_header) {
      saw_header = true;
      if (fields.size() != schema.arity()) {
        return Status::ParseError(
            "CSV header for '" + schema.name() + "' has " +
            std::to_string(fields.size()) + " columns, expected " +
            std::to_string(schema.arity()));
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        if (std::string(TrimWhitespace(fields[i])) !=
            schema.attribute(i).name) {
          return Status::ParseError("CSV header column " + std::to_string(i) +
                                    " is '" + fields[i] + "', expected '" +
                                    schema.attribute(i).name + "'");
        }
      }
      continue;
    }
    if (fields.size() != schema.arity()) {
      return Status::ParseError(
          "CSV line " + std::to_string(line_number) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.arity()));
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      DBREPAIR_ASSIGN_OR_RETURN(Value v,
                                CsvFieldToValue(fields[i],
                                                schema.attribute(i).type));
      values.push_back(std::move(v));
    }
    DBREPAIR_RETURN_IF_ERROR(db->Insert(relation, std::move(values)).status());
    ++inserted;
  }
  return inserted;
}

Result<size_t> LoadCsvFile(Database* db, std::string_view relation,
                           const std::string& path,
                           const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsvString(db, relation, buffer.str(), options);
}

Result<std::string> WriteCsvString(const Database& db,
                                   std::string_view relation,
                                   const CsvOptions& options) {
  const Table* table = db.FindTable(relation);
  if (table == nullptr) {
    return Status::NotFound("unknown relation '" + std::string(relation) +
                            "'");
  }
  const RelationSchema& schema = table->schema();
  std::string out;
  if (options.has_header) {
    for (size_t i = 0; i < schema.arity(); ++i) {
      if (i > 0) out += options.delimiter;
      out += schema.attribute(i).name;
    }
    out += '\n';
  }
  for (const TupleView row : table->rows()) {
    for (size_t i = 0; i < row.arity(); ++i) {
      if (i > 0) out += options.delimiter;
      out += ValueToField(row.value(i), options.delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Database& db, std::string_view relation,
                    const std::string& path, const CsvOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(const std::string content,
                            WriteCsvString(db, relation, options));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) return Status::IoError("failed writing '" + path + "'");
  return Status::OK();
}

}  // namespace dbrepair
