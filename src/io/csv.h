#ifndef DBREPAIR_IO_CSV_H_
#define DBREPAIR_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/database.h"

namespace dbrepair {

struct CsvOptions {
  char delimiter = ',';
  /// When true the first row is a header and must name the relation's
  /// attributes in order.
  bool has_header = true;
};

// Reading CSV. One scanner reads every record, for files and for single
// lines alike:
//  - A record ends at a '\n' outside quotes or at the end of the data; one
//    '\r' before that end is dropped, so CRLF files read as LF files. The
//    loaders skip lines that hold only whitespace.
//  - A field is unquoted, taken as it stands up to the next delimiter, or
//    quoted: optional blanks, a string in double quotes in which "" is one
//    quote and a delimiter, '\r' or '\n' is text, then optional blanks.
//    Anything else after the closing quote is a parse error.
//  - An unquoted field, or any field of a non-STRING column, is trimmed,
//    and empty means NULL. A quoted field of a STRING column is taken
//    verbatim: `" a "` is " a " and `""` is the empty string.
// Error messages of the loaders count physical lines, so a record with a
// quoted '\n' spans several.

/// Parses one CSV record into its fields' text (quotes removed, "" read as
/// one quote, nothing trimmed). `line` must hold exactly one record.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char delimiter);

/// Converts one CSV field to a Value of the given column type, by the rules
/// above: a quoted field of a STRING column verbatim, anything else trimmed
/// with empty = NULL.
Result<Value> CsvFieldToValue(std::string_view field, bool quoted,
                              Type type);

/// One data row parsed from a `relation,v1,v2,...` line: the target
/// relation plus one typed value per attribute.
struct TypedCsvRow {
  std::string relation;
  std::vector<Value> values;
};

/// Parses one `relation,v1,v2,...` line against `db`'s schema: resolves
/// the relation by name, checks the field count against its arity, and
/// converts each field to the declared column type by the rules above (so
/// `""` is the empty string in a STRING column, NULL elsewhere). This is the row
/// framing shared by the CLI's --batch-file reader and the repair server's
/// BATCH payload; callers prepend their own location (line number, frame
/// index) to the returned error message.
Result<TypedCsvRow> ParseTypedCsvRow(const Database& db,
                                     std::string_view line);

/// Loads CSV `data` into relation `relation` of `db`, converting each field
/// to the column type. Returns the number of inserted rows. Rows go into
/// the table in chunks through Table::AppendRows. All or nothing: if any
/// record fails (quoting, field count, type, duplicate key), the table is
/// truncated back to the rows it had before the call.
Result<size_t> LoadCsvString(Database* db, std::string_view relation,
                             std::string_view data,
                             const CsvOptions& options = {});

/// Loads a CSV file (see LoadCsvString), read whole in one sized read.
Result<size_t> LoadCsvFile(Database* db, std::string_view relation,
                           const std::string& path,
                           const CsvOptions& options = {});

/// Serialises one relation as CSV (header + rows). A string is quoted when
/// reading it back unquoted would change it: when it is empty, starts or
/// ends with whitespace, or holds the delimiter, '"', '\n' or '\r'.
Result<std::string> WriteCsvString(const Database& db,
                                   std::string_view relation,
                                   const CsvOptions& options = {});

/// Writes one relation to a CSV file.
Status WriteCsvFile(const Database& db, std::string_view relation,
                    const std::string& path, const CsvOptions& options = {});

}  // namespace dbrepair

#endif  // DBREPAIR_IO_CSV_H_
