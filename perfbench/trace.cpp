// Order statistics, digests and the span recorder (see bench.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why, std::int64_t n) {
  failed += n;
  std::cerr << "perfbench: FAILED (" << n << " op): " << why << "\n";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<std::size_t> fastest(const std::vector<double>& unit_s,
                                 double share) {
  std::vector<std::size_t> idx(unit_s.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return unit_s[a] < unit_s[b];
  });
  const auto keep = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(unit_s.size())));
  idx.resize(std::min(idx.size(), std::max<std::size_t>(1, keep)));
  return idx;
}

std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) out.push_back(v[i]);
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Digest::add(std::string_view text) {
  for (unsigned char c : text) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  h_ ^= '\n';
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local std::int64_t t_current_span = 0;
}

Tracer::Span::Span(Tracer* tracer, const char* name, const char* cat)
    : tracer_(tracer), name_(name), cat_(cat) {
  if (!tracer_->enabled()) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  parent_ = t_current_span;
  t_current_span = id_;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (!tracer_->enabled()) return;
  const Clock::time_point end = Clock::now();
  t_current_span = parent_;
  Event ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.ph = 'X';
  ev.ts_us =
      std::chrono::duration<double, std::micro>(start_ - tracer_->origin_).count();
  ev.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  ev.id = id_;
  ev.parent = parent_;
  ev.args = std::move(args_);
  tracer_->record(std::move(ev));
}

void Tracer::Span::arg(const char* key, double value) {
  if (tracer_->enabled()) args_.emplace_back(key, value);
}

void Tracer::counter(const char* name, double value) {
  if (!enabled_) return;
  Event ev;
  ev.name = name;
  ev.cat = "counter";
  ev.ph = 'C';
  ev.ts_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  ev.args.emplace_back("value", value);
  record(std::move(ev));
}

int Tracer::thread_index() {
  const std::size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = tids_.emplace(key, static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

void Tracer::record(Event ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ev.tid = thread_index();
  events_.push_back(std::move(ev));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char num[64];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << json_escape(ev.cat) << "\",\"ph\":\"" << ev.ph
       << "\",\"pid\":1,\"tid\":" << ev.tid;
    std::snprintf(num, sizeof num, "%.3f", ev.ts_us);
    os << ",\"ts\":" << num;
    if (ev.ph == 'X') {
      std::snprintf(num, sizeof num, "%.3f", ev.dur_us);
      os << ",\"dur\":" << num;
    }
    os << ",\"args\":{";
    bool first = true;
    if (ev.ph == 'X') {
      os << "\"span_id\":" << ev.id << ",\"parent\":" << ev.parent;
      first = false;
    }
    for (const auto& [key, value] : ev.args) {
      std::snprintf(num, sizeof num, "%.9g", std::isfinite(value) ? value : 0.0);
      os << (first ? "" : ",") << "\"" << json_escape(key) << "\":" << num;
      first = false;
    }
    os << "}}" << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
