#include "io/csv.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/strings.h"

namespace dbrepair {

namespace {

// Rows handed to Table::AppendRows at a time: enough that the key pass runs
// long and tight, few enough that the chunk's cells stay in cache.
constexpr size_t kChunkRows = 4096;

// std::isspace in the C locale, less '\n', which ends a record.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// One field of a CSV record: its text (for a quoted field, the text between
// the quotes with each "" read as ") and whether it was quoted.
struct CsvField {
  std::string_view text;
  bool quoted = false;
};

// Walks CSV text record by record without copying it. A field is either
// unquoted, running to the next delimiter or end of record as it stands,
// or quoted: blanks, then a quoted string in which a delimiter or '\n' is
// text and "" is one quote, then blanks. A record ends at a '\n' outside
// quotes or at the end of the data; one '\r' before that end is dropped.
// Field views point into the data, except a quoted field with "" escapes,
// which is unescaped into a scratch buffer the scanner reuses.
class CsvScanner {
 public:
  CsvScanner(std::string_view data, char delimiter)
      : data_(data), delimiter_(delimiter) {}

  // Skips lines that hold only whitespace; false once the data is used up.
  bool SkipBlankLines() {
    size_t p = pos_;
    while (p < data_.size()) {
      if (data_[p] == '\n') {
        pos_ = ++p;
        ++line_;
      } else if (IsBlank(data_[p])) {
        ++p;
      } else {
        return true;
      }
    }
    pos_ = p;
    return false;
  }

  // Reads the record at the current position into `fields` (cleared
  // first). At the end of the data that is one empty field. The views stay
  // valid until the next call or the scanner's end, whichever comes first.
  Status Next(std::vector<CsvField>* fields);

  // Next, for data that must hold exactly one record.
  Status NextOnly(std::vector<CsvField>* fields) {
    DBREPAIR_RETURN_IF_ERROR(Next(fields));
    if (pos_ != data_.size()) {
      return Status::ParseError("CSV line holds more than one record");
    }
    return Status::OK();
  }

  // The physical line (from 1) on which the record Next read last starts.
  size_t line() const { return record_line_; }

 private:
  // A field whose text is scratch_[offset, offset + size).
  struct Unescaped {
    size_t field;
    size_t offset;
    size_t size;
  };

  static const char* FindQuote(const char* p, const char* end) {
    return static_cast<const char*>(
        std::memchr(p, '"', static_cast<size_t>(end - p)));
  }
  bool EndsField(const char* p, const char* end) const {
    return p == end || *p == delimiter_ || *p == '\n';
  }

  std::string_view data_;
  char delimiter_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t record_line_ = 1;
  std::string scratch_;
  std::vector<Unescaped> unescaped_;
};

Status CsvScanner::Next(std::vector<CsvField>* fields) {
  fields->clear();
  scratch_.clear();
  unescaped_.clear();
  record_line_ = line_;
  const char* const end = data_.data() + data_.size();
  const char* p = data_.data() + pos_;
  for (;;) {
    const char* q = p;
    while (q != end && *q != delimiter_ && IsBlank(*q)) ++q;
    CsvField field;
    if (q != end && *q == '"') {
      field.quoted = true;
      const char* text = q + 1;
      const char* close = FindQuote(text, end);
      const size_t offset = scratch_.size();
      bool escaped = false;
      while (close != nullptr && close + 1 != end && close[1] == '"') {
        scratch_.append(text, close + 1);  // the text and one quote
        text = close + 2;
        close = FindQuote(text, end);
        escaped = true;
      }
      if (close == nullptr) {
        return Status::ParseError("unterminated quote in CSV record");
      }
      if (escaped) {
        scratch_.append(text, close);
        unescaped_.push_back(
            {fields->size(), offset, scratch_.size() - offset});
      } else {
        field.text = {text, static_cast<size_t>(close - text)};
      }
      line_ += static_cast<size_t>(std::count(q, close, '\n'));
      p = close + 1;
      while (p != end && *p != delimiter_ && IsBlank(*p)) ++p;
      if (!EndsField(p, end)) {
        return Status::ParseError("text after the closing quote of a field");
      }
    } else {
      const char* text = p;
      while (!EndsField(p, end)) ++p;
      field.text = {text, static_cast<size_t>(p - text)};
    }
    fields->push_back(field);
    if (p == end || *p == '\n') break;
    ++p;  // the delimiter
  }
  CsvField& last = fields->back();
  if (!last.quoted && !last.text.empty() && last.text.back() == '\r') {
    last.text.remove_suffix(1);
  }
  if (p != end) {  // the '\n'
    ++p;
    ++line_;
  }
  pos_ = static_cast<size_t>(p - data_.data());
  for (const Unescaped& u : unescaped_) {
    (*fields)[u.field].text = {scratch_.data() + u.offset, u.size};
  }
  return Status::OK();
}

Status AtLine(size_t line, const Status& status) {
  return Status(status.code(),
                "CSV line " + std::to_string(line) + ": " + status.message());
}

std::string ValueToField(const Value& v, char delimiter) {
  if (v.is_null()) return "";
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_double()) return FormatDouble(v.AsDouble());
  const std::string& raw = v.AsString();
  // Quoted, a string reads back verbatim; unquoted it would be trimmed, and
  // an empty one would read as NULL.
  const bool needs_quoting =
      raw.empty() || TrimWhitespace(raw).size() != raw.size() ||
      raw.find_first_of(std::string("\"\n\r") + delimiter) !=
          std::string::npos;
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

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char delimiter) {
  CsvScanner scanner(line, delimiter);
  std::vector<CsvField> fields;
  DBREPAIR_RETURN_IF_ERROR(scanner.NextOnly(&fields));
  std::vector<std::string> out;
  out.reserve(fields.size());
  for (const CsvField& field : fields) out.emplace_back(field.text);
  return out;
}

Result<Value> CsvFieldToValue(std::string_view field, bool quoted,
                              Type type) {
  if (quoted && type == Type::kString) return Value::String(std::string(field));
  const std::string_view trimmed = TrimWhitespace(field);
  if (trimmed.empty()) return Value();  // NULL
  const char* const end = trimmed.data() + trimmed.size();
  switch (type) {
    case Type::kInt64: {
      int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(trimmed.data(), end, v);
      if (ec == std::errc() && ptr == end) return Value::Int(v);
      DBREPAIR_ASSIGN_OR_RETURN(v, ParseInt64(trimmed));  // for its error
      return Value::Int(v);
    }
    case Type::kDouble: {
      double v = 0;
      const auto [ptr, ec] = std::from_chars(trimmed.data(), end, v);
      if (ec == std::errc() && ptr == end) return Value::Double(v);
      // from_chars rejects what strtod takes ("+1", hex, out-of-range
      // values), so anything it does not read exactly gets ParseDouble.
      DBREPAIR_ASSIGN_OR_RETURN(v, ParseDouble(trimmed));
      return Value::Double(v);
    }
    case Type::kString:
      return Value::String(std::string(trimmed));
  }
  return Status::Internal("unreachable type");
}

Result<TypedCsvRow> ParseTypedCsvRow(const Database& db,
                                     std::string_view line) {
  CsvScanner scanner(line, ',');
  std::vector<CsvField> fields;
  DBREPAIR_RETURN_IF_ERROR(scanner.NextOnly(&fields));
  const std::string relation(TrimWhitespace(fields[0].text));
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
    const CsvField& field = fields[i + 1];
    DBREPAIR_ASSIGN_OR_RETURN(
        Value v,
        CsvFieldToValue(field.text, field.quoted, schema.attribute(i).type));
    row.values.push_back(std::move(v));
  }
  return row;
}

namespace {

// The body of LoadCsvString, which undoes a failed load.
Status AppendCsvRows(Table* table, std::string_view data,
                     const CsvOptions& options) {
  const RelationSchema& schema = table->schema();
  const size_t arity = schema.arity();
  CsvScanner scanner(data, options.delimiter);
  std::vector<CsvField> fields;
  std::vector<Value> chunk;
  chunk.reserve(kChunkRows * arity);
  bool saw_header = !options.has_header;
  while (scanner.SkipBlankLines()) {
    const Status scanned = scanner.Next(&fields);
    if (!scanned.ok()) return AtLine(scanner.line(), scanned);
    if (!saw_header) {
      saw_header = true;
      if (fields.size() != arity) {
        return Status::ParseError(
            "CSV header for '" + schema.name() + "' has " +
            std::to_string(fields.size()) + " columns, expected " +
            std::to_string(arity));
      }
      for (size_t i = 0; i < arity; ++i) {
        const std::string_view name = TrimWhitespace(fields[i].text);
        if (name != schema.attribute(i).name) {
          return Status::ParseError(
              "CSV header column " + std::to_string(i) + " is '" +
              std::string(name) + "', expected '" + schema.attribute(i).name +
              "'");
        }
      }
      continue;
    }
    if (fields.size() != arity) {
      return Status::ParseError(
          "CSV line " + std::to_string(scanner.line()) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(arity));
    }
    for (size_t i = 0; i < arity; ++i) {
      Result<Value> v = CsvFieldToValue(fields[i].text, fields[i].quoted,
                                        schema.attribute(i).type);
      if (!v.ok()) return AtLine(scanner.line(), v.status());
      chunk.push_back(std::move(v).value());
    }
    if (chunk.size() == kChunkRows * arity) {
      DBREPAIR_RETURN_IF_ERROR(table->AppendRows(chunk));
      chunk.clear();
    }
  }
  return table->AppendRows(chunk);
}

}  // namespace

Result<size_t> LoadCsvString(Database* db, std::string_view relation,
                             std::string_view data,
                             const CsvOptions& options) {
  Table* table = db->FindMutableTable(relation);
  if (table == nullptr) {
    return Status::NotFound("unknown relation '" + std::string(relation) +
                            "'");
  }
  const size_t before = table->size();
  // At most one row per line; the header and blank lines over-count.
  const size_t rows = before + std::count(data.begin(), data.end(), '\n') + 1;
  table->Reserve(rows);
  table->ReserveKeys(rows);
  const Status status = AppendCsvRows(table, data, options);
  if (!status.ok()) {
    table->Truncate(before);
    return status;
  }
  return table->size() - before;
}

Result<size_t> LoadCsvFile(Database* db, std::string_view relation,
                           const std::string& path,
                           const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::string data;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size >= 0) {
    in.seekg(0);
    data.resize(static_cast<size_t>(size));
    in.read(data.data(), size);
  } else {  // a pipe or another stream that cannot be sized
    in.clear();
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  if (in.bad() || (size >= 0 && !in)) {
    return Status::IoError("failed reading '" + path + "'");
  }
  return LoadCsvString(db, relation, data, options);
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
