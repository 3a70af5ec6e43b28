#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/strings.h"
#include "io/config.h"

namespace dbrepair::server {

namespace {

// Splits on runs of spaces/tabs; no quoting (tenant names and OPEN args
// have no whitespace by construction).
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

Status ExpectArgCount(const std::vector<std::string>& tokens, size_t count,
                      const char* usage) {
  if (tokens.size() != count) {
    return Status::InvalidArgument(std::string("usage: ") + usage);
  }
  return Status::OK();
}

Status CheckTenant(const std::string& name) {
  if (!IsValidTenantName(name)) {
    return Status::InvalidArgument(
        "invalid tenant name '" + name +
        "' (want [A-Za-z0-9_.-], at most 64 chars)");
  }
  return Status::OK();
}

}  // namespace

bool IsValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Result<Command> ParseCommand(std::string_view line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty command");
  }
  const std::string& verb = tokens[0];
  Command command;
  if (verb == "OPEN") {
    command.verb = Verb::kOpen;
    if (tokens.size() < 3) {
      return Status::InvalidArgument(
          "usage: OPEN <tenant> (CONFIG <path> | GEN <scenario> <rows> "
          "<seed>) [key=value...]");
    }
    command.tenant = tokens[1];
    DBREPAIR_RETURN_IF_ERROR(CheckTenant(command.tenant));
    command.args.assign(tokens.begin() + 2, tokens.end());
    return command;
  }
  if (verb == "BATCH") {
    command.verb = Verb::kBatch;
    DBREPAIR_RETURN_IF_ERROR(
        ExpectArgCount(tokens, 3, "BATCH <tenant> <n-rows>"));
    command.tenant = tokens[1];
    DBREPAIR_RETURN_IF_ERROR(CheckTenant(command.tenant));
    DBREPAIR_ASSIGN_OR_RETURN(const int64_t rows, ParseInt64(tokens[2]));
    if (rows < 0) {
      return Status::InvalidArgument("BATCH row count must be >= 0");
    }
    command.batch_rows = static_cast<size_t>(rows);
    return command;
  }
  if (verb == "STATS") {
    command.verb = Verb::kStats;
    if (tokens.size() > 2) {
      return Status::InvalidArgument("usage: STATS [tenant]");
    }
    if (tokens.size() == 2) {
      command.tenant = tokens[1];
      DBREPAIR_RETURN_IF_ERROR(CheckTenant(command.tenant));
    }
    return command;
  }
  if (verb == "SNAPSHOT" || verb == "MEASURE" || verb == "CLOSE") {
    command.verb = verb == "SNAPSHOT" ? Verb::kSnapshot
                   : verb == "MEASURE" ? Verb::kMeasure
                                       : Verb::kClose;
    DBREPAIR_RETURN_IF_ERROR(
        ExpectArgCount(tokens, 2, "SNAPSHOT|MEASURE|CLOSE <tenant>"));
    command.tenant = tokens[1];
    DBREPAIR_RETURN_IF_ERROR(CheckTenant(command.tenant));
    return command;
  }
  if (verb == "PING" || verb == "QUIT") {
    command.verb = verb == "PING" ? Verb::kPing : Verb::kQuit;
    DBREPAIR_RETURN_IF_ERROR(ExpectArgCount(tokens, 1, "PING | QUIT"));
    return command;
  }
  return Status::InvalidArgument(
      "unknown command '" + verb +
      "' (want OPEN, BATCH, STATS, SNAPSHOT, MEASURE, CLOSE, PING, or QUIT)");
}

Result<OpenSpec> ParseOpenSpec(const std::vector<std::string>& args) {
  OpenSpec spec;
  spec.options.num_threads = 1;  // scale across tenants, not within one
  size_t next = 0;
  if (args.empty()) {
    return Status::InvalidArgument("OPEN needs CONFIG <path> or GEN "
                                   "<scenario> <rows> <seed>");
  }
  if (args[0] == "CONFIG") {
    if (args.size() < 2) {
      return Status::InvalidArgument("usage: OPEN <tenant> CONFIG <path>");
    }
    spec.source = OpenSpec::Source::kConfig;
    spec.config_path = args[1];
    next = 2;
  } else if (args[0] == "GEN") {
    if (args.size() < 4) {
      return Status::InvalidArgument(
          "usage: OPEN <tenant> GEN <scenario> <rows> <seed>");
    }
    spec.source = OpenSpec::Source::kGen;
    spec.scenario.name = args[1];
    DBREPAIR_ASSIGN_OR_RETURN(const int64_t rows, ParseInt64(args[2]));
    DBREPAIR_ASSIGN_OR_RETURN(const int64_t seed, ParseInt64(args[3]));
    if (rows <= 0) {
      return Status::InvalidArgument("GEN rows must be > 0");
    }
    spec.scenario.rows = static_cast<size_t>(rows);
    spec.scenario.seed = static_cast<uint64_t>(seed);
    next = 4;
  } else {
    return Status::InvalidArgument("unknown OPEN source '" + args[0] +
                                   "' (want CONFIG or GEN)");
  }

  for (; next < args.size(); ++next) {
    const std::string& arg = args[next];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "solver") {
      DBREPAIR_ASSIGN_OR_RETURN(spec.options.solver, ParseSolverKind(value));
      spec.solver_set = true;
    } else if (key == "distance") {
      DBREPAIR_ASSIGN_OR_RETURN(spec.options.distance,
                                ParseDistanceKind(value));
      spec.distance_set = true;
    } else if (key == "threads") {
      DBREPAIR_ASSIGN_OR_RETURN(const int64_t threads, ParseInt64(value));
      if (threads < 0) {
        return Status::InvalidArgument("threads must be >= 0");
      }
      spec.options.num_threads = static_cast<size_t>(threads);
    } else if (key == "ratio") {
      DBREPAIR_ASSIGN_OR_RETURN(spec.scenario.ratio, ParseDouble(value));
    } else if (key == "skew") {
      DBREPAIR_ASSIGN_OR_RETURN(spec.scenario.skew, ParseDouble(value));
    } else if (key == "degree") {
      DBREPAIR_ASSIGN_OR_RETURN(const int64_t degree, ParseInt64(value));
      if (degree <= 0) {
        return Status::InvalidArgument("degree must be > 0");
      }
      spec.scenario.degree = static_cast<size_t>(degree);
    } else {
      return Status::InvalidArgument(
          "unknown OPEN option '" + key +
          "' (want solver, distance, threads, ratio, skew, or degree)");
    }
  }
  return spec;
}

std::string FormatOk(std::string_view detail) {
  std::string reply = "OK";
  if (!detail.empty()) {
    reply += ' ';
    reply += detail;
  }
  reply += '\n';
  return reply;
}

std::string FormatData(std::string_view payload) {
  std::string reply = "DATA " + std::to_string(payload.size()) + "\n";
  reply += payload;
  reply += '\n';
  return reply;
}

std::string FormatError(const Status& status) {
  std::string message = status.message().empty()
                            ? std::string(StatusCodeName(status.code()))
                            : status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  std::replace(message.begin(), message.end(), '\r', ' ');
  return std::string("ERR ") + StatusCodeToWireCode(status.code()) + " " +
         message + "\n";
}

}  // namespace dbrepair::server
