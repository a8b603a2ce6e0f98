#include "sim/session.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/checkpoint.hpp"
#include "common/stats.hpp"

namespace dragonfly {

namespace {

/// Cycles between watchdog checks. Must exceed the largest round-trip
/// (global link latency + serialization + pipeline) by a wide margin so a
/// stalled-but-alive network is never misdiagnosed.
constexpr Cycle kWatchdogPeriod = 4096;

/// Drain-phase polling granularity: live() is sampled every this many
/// cycles while waiting for the network to empty.
constexpr Cycle kDrainPoll = 64;

constexpr const char* kCheckpointMagic = "dragonfly-session-checkpoint";
/// Bump whenever the serialized layout changes so stale files fail with
/// the version diagnostic instead of a garbled read. v2: SimConfig
/// gained topology / topo.g / arrangement_explicit / sim.paranoid.
/// v3: data-oriented kernel — the hot counters (credits, queue/FIFO
/// occupancy, link deadlines) moved into one contiguous HotState block,
/// per-router statistics into the collector, SimConfig gained
/// sim.kernel; streams are kernel-independent (the transmit calendar
/// and activation sets are re-derived on load).
/// v4: sharded kernel — packet references are canonical traversal
/// indices and pending events are sorted into a canonical order, so a
/// stream is partition-independent: a checkpoint taken at sim.shards=K
/// restores bit-exactly at any other shard count (Session::restore's
/// shards_override); SimConfig gained sim.shards.
/// v5: workload subsystem — Packet carries a job id, Node gained the
/// workload gate (workload_on_/job_), the collector appends the p99.9
/// estimator and the per-job battery, and a Workload driver section
/// sits between the router and node sections; SimConfig gained the
/// workload.* table.
/// v6: the SimConfig section is text — a (key, raw value) string pair
/// for every knob of the config's knob table, in table order, then the
/// *_explicit flags — instead of positional binary fields; restore
/// parses each value through its knob's own parser, so a corrupt value
/// fails with a diagnostic naming the knob.
constexpr std::uint32_t kCheckpointVersion = 6;

/// Jain fairness over per-job accepted loads: delivered phits divided
/// by job-nodes times the overlap of the job's lifetime with
/// [win_begin, win_end). Jobs with no overlap contribute 0 (they
/// depress fairness, which is the point — a tenant that got nothing
/// through is maximally unfair).
double jobs_jain(const MetricsCollector& col, Cycle win_begin,
                 Cycle win_end) {
  std::vector<double> loads;
  loads.reserve(col.jobs().size());
  for (const JobRecord& job : col.jobs()) {
    const Cycle e = job.end < 0 ? win_end : std::min(job.end, win_end);
    const Cycle b = std::max(job.start, win_begin);
    const Cycle overlap = e > b ? e - b : 0;
    loads.push_back(
        overlap > 0 && job.nodes > 0
            ? static_cast<double>(job.delivered_phits) /
                  (static_cast<double>(job.nodes) *
                   static_cast<double>(overlap))
            : 0.0);
  }
  if (loads.empty()) return 0.0;
  return summarize(loads).jain;
}

}  // namespace

const char* to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kWarmup: return "warmup";
    case SessionPhase::kMeasure: return "measure";
    case SessionPhase::kDrain: return "drain";
    case SessionPhase::kDone: return "done";
  }
  return "?";
}

Session::Session(const SimConfig& cfg) : cfg_(cfg), net_(cfg) {}

Session::Session(const SimConfig& cfg, std::shared_ptr<const Topology> topo)
    : cfg_(cfg), net_(cfg_, std::move(topo)) {}

const std::string& Session::segment() const {
  static const std::string kEmpty;
  if (phase_ != SessionPhase::kMeasure || cfg_.phase_script.empty() ||
      seg_index_ >= cfg_.phase_script.size()) {
    return kEmpty;
  }
  return cfg_.phase_script[seg_index_].name;
}

void Session::check_progress() {
  // Cheap path: any dispatched link event since the last check implies
  // grants happened (events only arise from granted packets and their
  // credits), so the O(num_routers) counter sum below is skipped. The
  // exact check still runs whenever the event counter stalls, so a true
  // deadlock is detected within at most one extra watchdog period.
  const std::int64_t events = net_.dispatched_events();
  if (events != last_events_) {
    last_events_ = events;
    last_progress_ = -1;
    last_live_ = 0;
    return;
  }
  const std::int64_t progress = net_.total_forward_progress();
  const std::size_t live = net_.packets().live();
  if (live > 0 && progress == last_progress_ && live == last_live_) {
    throw std::runtime_error(
        "deadlock watchdog: no forward progress with " +
        std::to_string(live) + " live packets at cycle " +
        std::to_string(net_.now()) + " (router " + cfg_.routing_key() +
        ", traffic " + net_.config().traffic_key() + ", phase " +
        to_string(phase_) + ")");
  }
  last_progress_ = progress;
  last_live_ = live;
}

void Session::step_raw(Cycle cycles) {
  const Cycle end = net_.now() + cycles;
  while (net_.now() < end) {
    net_.step();
    if (net_.now() - last_watchdog_check_ >= kWatchdogPeriod) {
      last_watchdog_check_ = net_.now();
      check_progress();
    }
  }
}

void Session::set_tap(MetricTap* tap) {
  tap_ = tap;
  // Streaming mode (the per-delivery P² updates) tracks tap presence
  // exactly: detaching restores the fixed-window hot path.
  net_.collector().set_streaming(tap_ != nullptr);
  if (tap_ == nullptr) return;
  const auto& col = net_.collector();
  next_sample_ = net_.now() + cfg_.stream_interval;
  sample_begin_ = net_.now();
  sample_start_packets_ = col.delivered_packets_total();
  sample_start_phits_ = col.delivered_phits_total();
  sample_start_lat_sum_ = col.latency_sum_total();
}

void Session::emit_sample() {
  const auto& col = net_.collector();
  StreamSample s;
  s.t_begin = sample_begin_;
  s.t_end = net_.now();
  s.phase = phase_;
  s.segment = segment();
  s.offered_load = net_.config().load;
  const Cycle span = s.t_end - s.t_begin;
  const std::int64_t phits = col.delivered_phits_total() - sample_start_phits_;
  const std::int64_t packets =
      col.delivered_packets_total() - sample_start_packets_;
  const double lat_sum = col.latency_sum_total() - sample_start_lat_sum_;
  if (span > 0 && net_.generating_nodes() > 0) {
    s.accepted_load = static_cast<double>(phits) /
                      (static_cast<double>(net_.generating_nodes()) *
                       static_cast<double>(span));
  }
  s.avg_latency = packets > 0 ? lat_sum / static_cast<double>(packets) : 0.0;
  s.p50_latency = col.p50_estimate();
  s.p99_latency = col.p99_estimate();
  s.delivered_packets = packets;
  s.live_packets = static_cast<std::int64_t>(net_.packets().live());
  const std::vector<double> counts = net_.measured_injection_counts();
  const Summary fairness = summarize(counts);
  s.fairness_cov = fairness.cov;
  s.fairness_jain = fairness.jain;
  s.live_jobs = col.live_jobs();
  if (col.measurement_begun()) {
    const Cycle end =
        col.measurement_closed() ? col.measure_end() : net_.now();
    s.jain_jobs = jobs_jain(col, col.measure_start(), end);
  }
  tap_->on_sample(s);

  sample_begin_ = net_.now();
  sample_start_packets_ = col.delivered_packets_total();
  sample_start_phits_ = col.delivered_phits_total();
  sample_start_lat_sum_ = col.latency_sum_total();
  next_sample_ = net_.now() + cfg_.stream_interval;
}

void Session::enter_segment(std::size_t index) {
  seg_index_ = index;
  const ScriptedSegment& seg = cfg_.phase_script[index];
  if (seg.load >= 0.0) net_.set_offered_load(seg.load);
  if (!seg.traffic.empty()) net_.set_traffic(seg.traffic);
  seg_end_ = net_.now() + seg.cycles;
}

void Session::enter_measure() {
  net_.begin_measurement();
  measure_begin_ = net_.now();
  converged_ = false;
  if (!cfg_.phase_script.empty()) {
    Cycle total = 0;
    for (const ScriptedSegment& seg : cfg_.phase_script) total += seg.cycles;
    phase_end_ = net_.now() + total;
    enter_segment(0);
    return;
  }
  phase_end_ = net_.now() + cfg_.measure_cycles;
  if (cfg_.stop.mode == StopMode::kCi) {
    batch_accepted_.clear();
    batch_latency_.clear();
    batch_end_ = net_.now() + cfg_.stop.batch_cycles;
    const auto& col = net_.collector();
    batch_start_phits_ = col.delivered_phits_total();
    batch_start_packets_ = col.delivered_packets_total();
    batch_start_lat_sum_ = col.latency_sum_total();
  }
}

bool Session::intervals_converged() const {
  const std::size_t k = batch_accepted_.size();
  if (k < static_cast<std::size_t>(cfg_.stop.batches)) return false;
  const double t = student_t_975(k - 1);
  for (const std::vector<double>* series : {&batch_accepted_, &batch_latency_}) {
    RunningStats stats;
    for (const double x : *series) stats.add(x);
    const double mean = stats.mean();
    if (mean <= 0.0) return false;  // empty batches: nothing converged
    // Sample (not population) variance for the CI over k batch means.
    const double var =
        stats.variance() * static_cast<double>(k) / static_cast<double>(k - 1);
    const double half_width = t * std::sqrt(var / static_cast<double>(k));
    if (half_width / mean > cfg_.stop.rel_hw) return false;
  }
  return true;
}

void Session::close_batch() {
  const auto& col = net_.collector();
  const std::int64_t phits = col.delivered_phits_total() - batch_start_phits_;
  const std::int64_t packets =
      col.delivered_packets_total() - batch_start_packets_;
  const double lat_sum = col.latency_sum_total() - batch_start_lat_sum_;
  const double span = static_cast<double>(cfg_.stop.batch_cycles) *
                      static_cast<double>(std::max(net_.generating_nodes(), 1));
  batch_accepted_.push_back(static_cast<double>(phits) / span);
  batch_latency_.push_back(
      packets > 0 ? lat_sum / static_cast<double>(packets) : 0.0);
  batch_start_phits_ = col.delivered_phits_total();
  batch_start_packets_ = col.delivered_packets_total();
  batch_start_lat_sum_ = col.latency_sum_total();
  batch_end_ = net_.now() + cfg_.stop.batch_cycles;

  if (intervals_converged()) {
    converged_ = true;
    transition(SessionPhase::kDrain);
  }
}

void Session::arm_phase() {
  switch (phase_) {
    case SessionPhase::kWarmup:
      phase_end_ = net_.now() + cfg_.warmup_cycles;
      break;
    case SessionPhase::kMeasure:
      enter_measure();
      break;
    case SessionPhase::kDrain:
      phase_end_ = net_.now() + cfg_.drain_max_cycles;
      // Flush in-flight traffic without admitting new packets; a
      // zero-length drain (the default) never reaches a step, so the
      // paper's fixed-window behaviour is untouched.
      if (cfg_.drain_max_cycles > 0) net_.set_generation_enabled(false);
      break;
    case SessionPhase::kDone:
      break;
  }
  phase_armed_ = true;
}

void Session::transition(SessionPhase to) {
  if (phase_ == SessionPhase::kMeasure) net_.end_measurement();
  const SessionPhase from = phase_;
  phase_ = to;
  phase_armed_ = false;
  if (tap_ != nullptr) tap_->on_phase_change(from, to, net_.now());
}

void Session::step(Cycle n) { step_impl(n, /*stop_on_transition=*/false); }

void Session::step_impl(Cycle n, bool stop_on_transition) {
  // The `!phase_armed_` clause lets zero-length phases (the default
  // 0-cycle Drain, a 0-cycle warmup) resolve without any cycle budget:
  // a step that lands exactly on a boundary finishes the transition
  // chain instead of parking one phase behind.
  while (phase_ != SessionPhase::kDone && (n > 0 || !phase_armed_)) {
    const SessionPhase entered = phase_;
    if (!phase_armed_) arm_phase();

    // The next interesting cycle: caller budget, phase deadline, then
    // whichever of batch boundary / segment boundary / stream sample /
    // drain poll comes first.
    Cycle bound = std::min(net_.now() + n, phase_end_);
    if (phase_ == SessionPhase::kMeasure) {
      if (!cfg_.phase_script.empty()) {
        bound = std::min(bound, seg_end_);
      } else if (cfg_.stop.mode == StopMode::kCi) {
        bound = std::min(bound, batch_end_);
      }
    }
    if (phase_ == SessionPhase::kDrain) {
      if (net_.packets().live() == 0) {
        transition(SessionPhase::kDone);
        continue;
      }
      bound = std::min(bound, net_.now() + kDrainPoll);
    }
    if (tap_ != nullptr) bound = std::min(bound, next_sample_);

    const Cycle chunk = bound - net_.now();
    if (chunk > 0) {
      step_raw(chunk);
      n -= chunk;
    }

    // Boundary handling, in a fixed order so coinciding boundaries are
    // deterministic: sample first (it only reads), then batch / segment
    // logic (may end the phase), then the phase deadline.
    if (tap_ != nullptr && net_.now() == next_sample_) emit_sample();
    if (phase_ == SessionPhase::kMeasure) {
      if (!cfg_.phase_script.empty()) {
        if (net_.now() == seg_end_ && net_.now() != phase_end_) {
          enter_segment(seg_index_ + 1);
        }
      } else if (cfg_.stop.mode == StopMode::kCi &&
                 net_.now() == batch_end_) {
        close_batch();  // may transition to kDrain
      }
    }
    if (phase_ != SessionPhase::kDone && phase_armed_ &&
        net_.now() == phase_end_) {
      switch (phase_) {
        case SessionPhase::kWarmup:
          transition(SessionPhase::kMeasure);
          break;
        case SessionPhase::kMeasure:
          transition(SessionPhase::kDrain);
          break;
        case SessionPhase::kDrain:
          transition(SessionPhase::kDone);
          break;
        case SessionPhase::kDone:
          break;
      }
    }
    if (stop_on_transition && phase_ != entered) return;
  }
}

void Session::advance_to(SessionPhase target) {
  while (static_cast<int>(phase_) < static_cast<int>(target)) {
    // One phase entry per pass: step_impl returns the moment the
    // machine transitions, so advancing to kMeasure stops exactly at
    // the Warmup boundary instead of consuming the whole budget.
    step_impl(std::numeric_limits<Cycle>::max() / 4,
              /*stop_on_transition=*/true);
    if (phase_ == SessionPhase::kDone) break;
  }
}

SimResult Session::run() {
  advance_to(SessionPhase::kDone);
  return collect();
}

SimResult run_simulation(const SimConfig& cfg) { return Session(cfg).run(); }

SimResult Session::collect() const {
  SimResult r;
  r.offered_load = cfg_.load;
  r.injections_per_router = net_.injections_per_router();
  const auto& col = net_.collector();
  if (!col.measurement_begun()) {
    // No measurement ever started (e.g. collect() right after
    // construction): a well-defined empty result, not uninitialized
    // aggregates over an empty window.
    return r;
  }
  r.accepted_load = col.accepted_load(net_.generating_nodes());
  r.avg_latency = col.latency().mean_latency();
  r.p50_latency = col.latency().latency_quantile(0.5);
  r.p99_latency = col.latency().latency_quantile(0.99);
  r.max_latency = col.latency().max_latency();
  r.components = col.latency().components();
  r.avg_local_hops = col.latency().mean_local_hops();
  r.avg_global_hops = col.latency().mean_global_hops();
  r.delivered_packets = col.delivered_packets_measured();
  r.generated_packets = net_.generated_packets_measured();
  r.fairness = fairness_report(
      std::span<const double>(net_.measured_injection_counts()));
  r.measured_cycles = col.measured_cycles();
  r.converged = converged_;

  // --- workload metrics battery -----------------------------------------
  // Empty-window semantics (pinned by test_session): a window with no
  // samples reports p999 = 0, sat_margin = 0 (offered 0 means nothing
  // was asked for, so nothing is "missing"), jain_jobs = 0 without
  // jobs. None of these may emit NaN/inf into the CSV.
  r.p999_latency = col.p999_estimate();
  if (r.offered_load > 0.0) {
    r.saturation_margin = std::max(
        0.0, (r.offered_load - r.accepted_load) / r.offered_load);
  }
  const Topology& topo = net_.topology();
  std::vector<double> group_sums(
      static_cast<std::size_t>(topo.num_groups()), 0.0);
  const std::vector<double> counts = net_.measured_injection_counts();
  for (std::size_t rtr = 0; rtr < counts.size(); ++rtr) {
    group_sums[static_cast<std::size_t>(
        topo.group_of_router(static_cast<RouterId>(rtr)))] += counts[rtr];
  }
  r.jain_groups = summarize(group_sums).jain;
  const Cycle win_begin = col.measure_start();
  const Cycle win_end =
      col.measurement_closed() ? col.measure_end() : net_.now();
  std::vector<double> job_loads;
  for (const JobRecord& job : col.jobs()) {
    JobResult jr;
    jr.id = job.id;
    jr.label = job.label;
    jr.nodes = job.nodes;
    jr.start = job.start;
    jr.end = job.end;
    jr.delivered_packets = job.delivered_packets;
    const Cycle e = job.end < 0 ? win_end : std::min(job.end, win_end);
    const Cycle b = std::max(job.start, win_begin);
    const Cycle overlap = e > b ? e - b : 0;
    if (overlap > 0 && job.nodes > 0) {
      jr.accepted_load = static_cast<double>(job.delivered_phits) /
                         (static_cast<double>(job.nodes) *
                          static_cast<double>(overlap));
    }
    jr.avg_latency = job.delivered_packets > 0
                         ? job.latency_sum /
                               static_cast<double>(job.delivered_packets)
                         : 0.0;
    jr.p99_latency = job.p99.value();
    jr.max_latency = job.max_latency;
    jr.iterations = job.iterations;
    jr.mean_iteration_cycles =
        job.iterations > 0
            ? job.iteration_cycles / static_cast<double>(job.iterations)
            : 0.0;
    job_loads.push_back(jr.accepted_load);
    r.jobs.push_back(std::move(jr));
  }
  if (!r.jobs.empty()) r.jain_jobs = summarize(job_loads).jain;
  return r;
}

// --- checkpoint / restore ---------------------------------------------------

void Session::checkpoint(std::ostream& os) const {
  CheckpointWriter ck(os);
  ck.str(kCheckpointMagic);
  ck.u32(kCheckpointVersion);
  cfg_.write_to(ck);
  ck.tag("Session");
  ck.u8(static_cast<std::uint8_t>(phase_));
  ck.boolean(phase_armed_);
  ck.i64(phase_end_);
  ck.u64(seg_index_);
  ck.i64(seg_end_);
  ck.i64(measure_begin_);
  ck.boolean(converged_);
  ck.i64(batch_end_);
  ck.i64(batch_start_phits_);
  ck.i64(batch_start_packets_);
  ck.f64(batch_start_lat_sum_);
  ck.vec(batch_accepted_, [&](double v) { ck.f64(v); });
  ck.vec(batch_latency_, [&](double v) { ck.f64(v); });
  ck.i64(next_sample_);
  ck.i64(sample_begin_);
  ck.i64(sample_start_packets_);
  ck.i64(sample_start_phits_);
  ck.f64(sample_start_lat_sum_);
  ck.i64(last_watchdog_check_);
  ck.i64(last_events_);
  ck.i64(last_progress_);
  ck.u64(last_live_);
  net_.save(ck);
}

std::unique_ptr<Session> Session::restore(std::istream& is,
                                          int shards_override,
                                          const SimConfig* refine,
                                          std::shared_ptr<const Topology> topo) {
  CheckpointReader ck(is);
  if (ck.str() != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: not a session checkpoint stream");
  }
  const std::uint32_t version = ck.u32();
  if (version != kCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  }
  SimConfig cfg;
  cfg.read_from(ck);
  // Warm-start refinement: the caller wants this checkpoint's state but
  // a different measurement window / stop rule. Anything beyond the
  // refinement keys would make the resumed run a physically different
  // experiment wearing a cached network's state, so re-validate the
  // request against the embedded config and refuse loudly on mismatch.
  if (refine != nullptr) {
    const std::string why = cfg.warm_incompatibility(*refine);
    if (!why.empty()) {
      throw std::runtime_error("checkpoint: warm start rejected: " + why);
    }
    cfg.apply_refinements(*refine);
  }
  // The v4 stream is partition-independent, so the restoring side may
  // pick any shard count (0 keeps the one embedded at save time).
  if (shards_override > 0) cfg.shards = shards_override;
  // Reject a corrupt config section *before* sizing a network from it:
  // a bit-flipped topology field must surface as a loud error, not an
  // OOM-scale allocation in the Network constructor.
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string("checkpoint: embedded config invalid: ") + e.what());
  }
  auto session = std::make_unique<Session>(cfg, std::move(topo));
  ck.tag("Session");
  session->phase_ = static_cast<SessionPhase>(ck.u8());
  session->phase_armed_ = ck.boolean();
  session->phase_end_ = ck.i64();
  session->seg_index_ = static_cast<std::size_t>(ck.u64());
  session->seg_end_ = ck.i64();
  session->measure_begin_ = ck.i64();
  session->converged_ = ck.boolean();
  session->batch_end_ = ck.i64();
  session->batch_start_phits_ = ck.i64();
  session->batch_start_packets_ = ck.i64();
  session->batch_start_lat_sum_ = ck.f64();
  ck.vec(session->batch_accepted_, [&] { return ck.f64(); });
  ck.vec(session->batch_latency_, [&] { return ck.f64(); });
  session->next_sample_ = ck.i64();
  session->sample_begin_ = ck.i64();
  session->sample_start_packets_ = ck.i64();
  session->sample_start_phits_ = ck.i64();
  session->sample_start_lat_sum_ = ck.f64();
  session->last_watchdog_check_ = ck.i64();
  session->last_events_ = ck.i64();
  session->last_progress_ = ck.i64();
  session->last_live_ = static_cast<std::size_t>(ck.u64());
  session->net_.load(ck);
  // The stream carries the collector's streaming flag from save time,
  // but a restored session starts with no tap attached; re-attaching
  // one re-enables the P² updates.
  session->net_.collector().set_streaming(false);
  return session;
}

void Session::checkpoint_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open checkpoint file " + path);
  checkpoint(os);
}

std::unique_ptr<Session> Session::restore_file(const std::string& path,
                                               int shards_override) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open checkpoint file " + path);
  return restore(is, shards_override);
}

}  // namespace dragonfly
