#include "core/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"

namespace dragonfly {

namespace {

double parse_load_value(const std::string& text) {
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || text.empty() || !std::isfinite(out)) {
    throw std::invalid_argument("loads: expected a finite number, got \"" +
                                text + "\"");
  }
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, sep)) {
    const auto from = item.find_first_not_of(" \t");
    const auto to = item.find_last_not_of(" \t");
    out.push_back(from == std::string::npos
                      ? std::string()
                      : item.substr(from, to - from + 1));
  }
  return out;
}

int parse_positive_int(const std::string& key, const std::string& value,
                       int min_value) {
  std::size_t pos = 0;
  int out = 0;
  try {
    out = std::stoi(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty() || out < min_value) {
    throw std::invalid_argument(key + ": expected an integer >= " +
                                std::to_string(min_value) + ", got \"" +
                                value + "\"");
  }
  return out;
}

struct SpecKeyDesc {
  const char* key;
  const char* desc;
};

constexpr SpecKeyDesc kSpecKeys[] = {
    {"label", "experiment label printed in the output"},
    {"loads", "offered-load sweep: a:b:step (inclusive) or x,y,z"},
    {"out", "output encoding: table | csv | json"},
    {"out_path", "also write the results to this file"},
    {"seeds", "replicas averaged per sweep point"},
    {"threads", "worker threads (0 = hardware concurrency)"},
};

}  // namespace

std::vector<double> parse_loads(const std::string& text) {
  // Range form start:stop:step, inclusive of both endpoints (within half
  // a step of rounding — 0.1:1.0:0.1 lands exactly on 1.0).
  if (text.find(':') != std::string::npos) {
    const std::vector<std::string> parts = split(text, ':');
    if (parts.size() != 3) {
      throw std::invalid_argument(
          "loads: range must be start:stop:step, got \"" + text + "\"");
    }
    const double start = parse_load_value(parts[0]);
    const double stop = parse_load_value(parts[1]);
    const double step = parse_load_value(parts[2]);
    if (step <= 0.0 || stop < start) {
      throw std::invalid_argument(
          "loads: need step > 0 and stop >= start in \"" + text + "\"");
    }
    std::vector<double> out;
    const int points = static_cast<int>((stop - start) / step + 0.5) + 1;
    for (int i = 0; i < points; ++i) {
      const double v = start + step * i;
      if (v > stop + step * 0.5) break;
      out.push_back(v);
    }
    return out;
  }
  std::vector<double> out;
  for (const std::string& item : split(text, ',')) {
    out.push_back(parse_load_value(item));
  }
  if (out.empty()) throw std::invalid_argument("loads: empty list");
  return out;
}

void ExperimentSpec::apply_kv(const std::string& key,
                              const std::string& value) {
  if (key == "loads") {
    loads = parse_loads(value);
    base.load = loads.front();
    return;
  }
  if (key == "seeds") {
    seeds = parse_positive_int(key, value, 1);
    return;
  }
  if (key == "threads") {
    threads = parse_positive_int(key, value, 0);
    return;
  }
  if (key == "out") {
    format = output_format_from_string(value);
    return;
  }
  if (key == "out_path") {
    out_path = value;
    return;
  }
  if (key == "label") {
    label = value;
    return;
  }
  if (key == "load") {
    // The singular key accepts the sweep syntax too (the CLI's
    // --load 0.1:1.0:0.1); the last load/loads line wins outright.
    apply_kv("loads", value);
    return;
  }
  if (!base.try_apply_kv(key, value)) {
    std::string keys;
    for (const std::string& k : kv_keys()) {
      if (!keys.empty()) keys += " ";
      keys += k;
    }
    throw std::invalid_argument("unknown spec key \"" + key +
                                "\"; valid keys: " + keys);
  }
}

void ExperimentSpec::apply_kv_line(const std::string& item) {
  const auto [key, value] = split_kv(item);
  apply_kv(key, value);
}

void ExperimentSpec::apply_lines(std::istream& is,
                                 const std::string& origin) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // '#' starts a comment at line start or after whitespace, so values
    // like out_path = run#1.csv survive intact.
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' &&
          (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
        line.erase(i);
        break;
      }
    }
    const auto from = line.find_first_not_of(" \t\r");
    if (from == std::string::npos) continue;
    const auto to = line.find_last_not_of(" \t\r");
    try {
      apply_kv_line(line.substr(from, to - from + 1));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(origin + ":" + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
}

void ExperimentSpec::apply_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::invalid_argument("cannot open spec file " + path);
  apply_lines(is, path);
}

ExperimentSpec ExperimentSpec::parse(std::istream& is,
                                     const std::string& origin) {
  ExperimentSpec spec;
  spec.apply_lines(is, origin);
  return spec;
}

ExperimentSpec ExperimentSpec::parse_file(const std::string& path) {
  ExperimentSpec spec;
  spec.apply_file(path);
  return spec;
}

std::vector<std::string> ExperimentSpec::kv_keys() {
  std::vector<std::string> keys = SimConfig::kv_keys();
  for (const SpecKeyDesc& key : kSpecKeys) keys.emplace_back(key.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::pair<std::string, std::string>>
ExperimentSpec::kv_key_descriptions() {
  std::vector<std::pair<std::string, std::string>> out =
      SimConfig::kv_key_descriptions();
  for (const SpecKeyDesc& key : kSpecKeys) out.emplace_back(key.key, key.desc);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> ExperimentSpec::effective_loads() const {
  return loads.empty() ? std::vector<double>{base.load} : loads;
}

void ExperimentSpec::finalize() {
  if (!base.vcs_explicit) base.apply_vc_defaults();
  base.validate();
  if (seeds < 1) throw std::invalid_argument("spec: seeds must be >= 1");
  for (const double load : effective_loads()) {
    if (!(load >= 0.0 && load <= static_cast<double>(base.packet_size))) {
      throw std::invalid_argument("spec: load " + std::to_string(load) +
                                  " out of range");
    }
  }
}

std::vector<AveragedResult> run_spec(const ExperimentSpec& spec,
                                     RunObserver* observer) {
  const std::vector<double> loads = spec.effective_loads();
  // Never spawn more workers than jobs: a 3-job sweep on a 64-core box
  // should not park 61 idle threads.
  const std::size_t jobs =
      loads.size() * static_cast<std::size_t>(std::max(spec.seeds, 1));
  PoolRunner pool(static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(PoolRunner::resolve(spec.threads)), jobs)));
  return run_sweep(spec.base, loads, spec.seeds, pool, observer);
}

void ProgressPrinter::on_start(std::size_t total_jobs,
                               std::size_t num_configs) {
  std::lock_guard<std::mutex> lock(mu_);
  print_locked(0, total_jobs, num_configs);
}

void ProgressPrinter::on_job_done(std::size_t finished,
                                  std::size_t total_jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  // Workers may deliver counts out of order (the counter increments
  // outside this mutex): keep the display monotone.
  if (finished <= last_finished_) return;
  last_finished_ = finished;
  print_locked(finished, total_jobs, 0);
  if (finished == total_jobs) os_ << "\n" << std::flush;
}

void ProgressPrinter::print_locked(std::size_t finished,
                                   std::size_t total_jobs,
                                   std::size_t num_configs) {
  std::ostringstream line;
  line << "[" << finished << "/" << total_jobs << " jobs";
  if (num_configs > 0) line << ", " << num_configs << " configs";
  line << "] "
       << (total_jobs == 0 ? 100 : finished * 100 / total_jobs) << "%";
  std::string text = line.str();
  const std::size_t width = text.size();
  // Pad over any longer previous line before \r-rewriting it.
  while (text.size() < last_width_) text += ' ';
  last_width_ = width;
  os_ << "\r" << text << std::flush;
}

}  // namespace dragonfly
