#include "service/protocol.hpp"

#include <cstdio>

#include "core/report.hpp"

namespace dragonfly {
namespace protocol {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::vector<std::string> split_items(const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(';', begin);
    const std::string item =
        trim(text.substr(begin, end == std::string::npos ? std::string::npos
                                                         : end - begin));
    if (!item.empty()) items.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return items;
}

Request parse_request(const std::string& line) {
  Request req;
  const std::string text = trim(line);
  const std::size_t space = text.find(' ');
  const std::string verb = text.substr(0, space);
  const std::string payload =
      space == std::string::npos ? "" : text.substr(space + 1);

  if (verb == "RUN") {
    req.verb = Verb::kRun;
  } else if (verb == "STREAM") {
    req.verb = Verb::kStream;
  } else if (verb == "HASH") {
    req.verb = Verb::kHash;
  } else if (verb == "STATS") {
    req.verb = Verb::kStats;
  } else if (verb == "PING") {
    req.verb = Verb::kPing;
  } else if (verb == "QUIT") {
    req.verb = Verb::kQuit;
  } else if (verb == "SHUTDOWN") {
    req.verb = Verb::kShutdown;
  } else {
    req.error = "unknown verb \"" + verb +
                "\"; expected RUN | STREAM | HASH | STATS | PING | QUIT | "
                "SHUTDOWN";
    return req;
  }

  if (req.verb == Verb::kRun || req.verb == Verb::kStream ||
      req.verb == Verb::kHash) {
    req.items = split_items(payload);
    if (req.items.empty()) {
      req.error = verb + " needs \"key=value\" items separated by ';'";
      req.verb = Verb::kInvalid;
    }
  }
  return req;
}

std::string format_result(const PointReport& point) {
  return "RESULT " + point.hash + " " + std::string(to_string(point.source)) +
         " " + ResultWriter::csv_row(point.label, point.result);
}

std::string format_sample(const std::string& label, std::size_t point,
                          std::size_t seed, const StreamSample& s) {
  return "SAMPLE " + csv_cell(label) + "," + std::to_string(point) + "," +
         std::to_string(seed) + "," + csv_fields(s);
}

std::string format_hash(const PointReport& point) {
  return "HASH " + point.hash + " " + point.warm_hash + " " +
         num(point.offered_load) + " " + point.label;
}

std::string format_stats(const ServiceStats& st) {
  std::string line = "STATS";
  const auto add = [&line](const char* key, std::int64_t v) {
    line.append(" ").append(key).append("=").append(std::to_string(v));
  };
  add("requests", st.requests);
  add("points", st.points);
  add("result_hits", st.result_hits);
  add("coalesced", st.coalesced);
  add("warm_starts", st.warm_starts);
  add("cold_runs", st.cold_runs);
  add("cycles_simulated", st.cycles_simulated);
  add("errors", st.errors);
  add("result_entries", static_cast<std::int64_t>(st.result_cache.entries));
  add("result_evictions", st.result_cache.evictions);
  add("warm_entries", static_cast<std::int64_t>(st.warm_cache.entries));
  add("warm_bytes", static_cast<std::int64_t>(st.warm_cache.bytes));
  add("topologies", static_cast<std::int64_t>(st.topologies.live));
  add("topology_hits", st.topologies.hits);
  return line;
}

std::string format_done(const RequestReport& report) {
  std::int64_t hits = 0;
  std::int64_t warm = 0;
  for (const PointReport& p : report.points) {
    if (p.source == PointSource::kHit || p.source == PointSource::kCoalesced) {
      ++hits;
    }
    if (p.source == PointSource::kWarm) ++warm;
  }
  return "DONE " + std::to_string(report.points.size()) +
         " hits=" + std::to_string(hits) + " warm=" + std::to_string(warm);
}

std::string format_error(const std::string& message) {
  std::string flat = message;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "ERR " + flat;
}

}  // namespace protocol
}  // namespace dragonfly
