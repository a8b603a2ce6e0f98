// Wire protocol of the sweep service: line-delimited text over a
// stream socket, one request per line, the ExperimentSpec "key=value"
// grammar as the payload (items separated by ';').
//
//   RUN <items>      execute a sweep; replies one RESULT line per point
//                    (canonical hash, source tag, then the exact
//                    ResultWriter CSV row) and a closing DONE line.
//   STREAM <items>   like RUN, but per-interval SAMPLE lines are
//                    interleaved while points simulate.
//   HASH <items>     expand + canonicalize without running: one HASH
//                    line per point, then DONE.
//   STATS            one STATS line of service counters.
//   PING / QUIT      liveness / orderly close (PONG / BYE).
//   SHUTDOWN         BYE, then the whole server begins shutdown.
//
// Errors answer with a single "ERR <message>" line; the connection
// stays usable. See DESIGN.md "Sweep service".
#pragma once

#include <string>
#include <vector>

#include "service/engine.hpp"

namespace dragonfly {
namespace protocol {

enum class Verb {
  kRun,
  kStream,
  kHash,
  kStats,
  kPing,
  kQuit,
  kShutdown,
  kInvalid,
};

struct Request {
  Verb verb = Verb::kInvalid;
  std::vector<std::string> items;  ///< "key=value" payload items
  std::string error;               ///< parse diagnostic when kInvalid
};

/// Parse one request line (no trailing newline). Unknown verbs and
/// missing payloads produce kInvalid with a diagnostic.
Request parse_request(const std::string& line);

/// Split "a=1; b=2" into trimmed non-empty items.
std::vector<std::string> split_items(const std::string& text);

// --- response formatting (no trailing newlines) -----------------------------

/// "RESULT <hash> <source> <ResultWriter csv row>". The row is the
/// byte-identical output of ResultWriter::csv_row, so a cached reply
/// matches a freshly simulated one byte for byte.
std::string format_result(const PointReport& point);

/// "SAMPLE <label>,<point>,<seed>,<csv_fields(sample)>" — the CLI
/// --stream row (kStreamSampleColumns) with the point coordinates
/// prepended. The label is one RFC 4180 field (csv_cell), quoted as in
/// RESULT.
std::string format_sample(const std::string& label, std::size_t point,
                          std::size_t seed, const StreamSample& sample);

/// "HASH <hash> <warm_hash> <offered> <label>".
std::string format_hash(const PointReport& point);

/// "STATS key=value ..." over every ServiceStats counter.
std::string format_stats(const ServiceStats& stats);

/// "DONE <points> hits=<n> warm=<n>" — request trailer.
std::string format_done(const RequestReport& report);

/// "ERR <message>" with newlines flattened to spaces.
std::string format_error(const std::string& message);

}  // namespace protocol
}  // namespace dragonfly
