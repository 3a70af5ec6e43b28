#ifndef DBREPAIR_SERVER_PROTOCOL_H_
#define DBREPAIR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "gen/scenario.h"
#include "repair/api.h"

namespace dbrepair::server {

/// The dbrepaird wire protocol: line-oriented text frames over TCP, one
/// request in flight per connection (replies come back in request order).
///
///   command        = verb [SP token]* LF        ; LF or CRLF
///   OPEN t source  = OPEN t (CONFIG path | GEN scenario rows seed)
///                    [key=value]*               ; solver=, distance=,
///                                               ; threads=, ratio=,
///                                               ; skew=, degree=
///   BATCH t n      ; followed by n payload lines `relation,v1,v2,...`
///   STATS [t]      ; tenant (or server-wide) metrics snapshot as JSON
///   SNAPSHOT t     ; tenant database as a binary io/snapshot dump
///   MEASURE t      ; one-line inconsistency measure of the stream so far
///   CLOSE t        ; drop the tenant
///   PING           ; liveness probe, answered inline (never queued)
///   QUIT           ; close this connection
///
/// Replies:
///   OK [detail...] LF                           ; single line
///   DATA n LF <n bytes> LF                      ; length-prefixed payload
///   ERR <wire-code> <message> LF                ; StatusCodeToWireCode
///
/// Tenant names are [A-Za-z0-9_.-]{1,64}: they appear in replies, metric
/// labels, and log lines, so the charset is locked down at parse time.
enum class Verb {
  kOpen,
  kBatch,
  kStats,
  kSnapshot,
  kMeasure,
  kClose,
  kPing,
  kQuit,
};

/// Frame-size and admission limits, enforced by the connection loop before
/// any request is queued.
struct WireLimits {
  /// Longest accepted command or payload line.
  size_t max_line_bytes = 64 * 1024;
  /// Most rows one BATCH may carry.
  size_t max_batch_rows = 65536;
  /// Cap on one BATCH's total payload bytes.
  size_t max_payload_bytes = 16 * 1024 * 1024;
};

/// One parsed command line (BATCH payload lines are read separately by the
/// connection loop, using `batch_rows` for the frame count).
struct Command {
  Verb verb = Verb::kPing;
  std::string tenant;  ///< empty for PING/QUIT and bare STATS
  std::vector<std::string> args;  ///< verb tail (OPEN's source spec)
  size_t batch_rows = 0;          ///< BATCH row count
};

/// Parses one command line. InvalidArgument/ParseError on malformed input;
/// the connection loop turns these into ERR replies without dropping the
/// connection.
Result<Command> ParseCommand(std::string_view line);

/// True when `name` is a legal tenant name (see grammar above).
bool IsValidTenantName(std::string_view name);

/// The parsed tail of an OPEN command: where the tenant's data comes from
/// and the repair options to open its session with.
struct OpenSpec {
  enum class Source { kConfig, kGen };
  Source source = Source::kGen;
  /// kConfig: server-side path of a dbrepair config file.
  std::string config_path;
  /// kGen: the scenario request (name/rows/seed plus ratio/skew/degree
  /// from key=value args).
  ScenarioSpec scenario;
  /// Session options. Defaults to one build thread per session — the
  /// server scales across tenants, not within one — overridable with
  /// threads=N.
  RepairOptions options;
  /// Whether solver=/distance= appeared explicitly; when absent a CONFIG
  /// source falls back to the config file's own choices.
  bool solver_set = false;
  bool distance_set = false;
};

/// Parses OPEN's argument tail (everything after the tenant name).
Result<OpenSpec> ParseOpenSpec(const std::vector<std::string>& args);

/// "OK <detail>\n" (or "OK\n" when detail is empty).
std::string FormatOk(std::string_view detail);

/// "DATA <n>\n<payload>\n".
std::string FormatData(std::string_view payload);

/// "ERR <wire-code> <message>\n" with the message flattened to one line.
/// `status` must not be OK.
std::string FormatError(const Status& status);

}  // namespace dbrepair::server

#endif  // DBREPAIR_SERVER_PROTOCOL_H_
