// The simulation workload table2_advc (seven mechanisms fanned out over
// run_configs on two workers), plus the two sessions its traced run
// probes for layers Table II does not reach: a sharded paper-scale h=6
// session under ADVc and a mostly idle h=6 network under job churn.
//
// Untraced runs repeat whole iterations (what a user runs: parse the
// spec, build, simulate, collect, write the CSV) until the time budget
// is spent and report medians. Traced runs do a warm-up and a reference
// iteration untraced, then the same iteration stepped cycle by cycle
// with spans and counters, check both give the same bytes, and report
// per-layer numbers.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/api.hpp"
#include "topology/topology_cache.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace dragonfly;

constexpr int kPoolWorkers = 2;
constexpr int kTopologySamples = 31;
constexpr int kSlicesPerIteration = 5;  ///< host calibration (bench.hpp)
constexpr int kSetupsBefore = 7;
constexpr int kSetupsPerIteration = 2;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One workload instance: the spec text of every session, parsed.
struct SimWorkload {
  std::string name;
  std::vector<std::string> labels;
  std::vector<std::string> spec_texts;
  std::vector<SimConfig> configs;
  bool pooled = false;  ///< run through run_configs on kPoolWorkers
  std::vector<double> parse_us;
};

ExperimentSpec parse_spec(const std::string& text) {
  std::istringstream is(text);
  ExperimentSpec spec = ExperimentSpec::parse(is, "perfbench");
  spec.finalize();
  return spec;
}

void add_session(SimWorkload& w, const std::string& label,
                 const std::string& text) {
  const Clock::time_point t = Clock::now();
  const ExperimentSpec spec = parse_spec(text);
  w.parse_us.push_back(us_between(t, Clock::now()));
  w.labels.push_back(label);
  w.spec_texts.push_back(text);
  w.configs.push_back(spec.base);
}

/// Simulation seed of a workload: derived from the benchmark seed only.
std::uint64_t sim_seed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed * 0x100000001b3ull + salt) % 1'000'000'007ull + 1;
}

SimWorkload make_table2(const Args& args) {
  SimWorkload w;
  w.name = "table2_advc";
  w.pooled = true;
  const std::string seed = std::to_string(sim_seed(args.seed, 2));
  for (const std::string& routing : paper_routing_names()) {
    std::string text = std::string("h = ") + (args.toy ? "2" : "4") +
                       "\nrouting = " + routing +
                       "\ntraffic = advc\nload = 0.3\ntransit_priority = on\n"
                       "sim.shards = 1\n";
    text += args.toy ? "warmup_cycles = 200\nmeasure_cycles = 300\n"
                     : "warmup_cycles = 1000\nmeasure_cycles = 1500\n";
    text += "seed = " + seed + "\n";
    add_session(w, routing, text);
  }
  return w;
}

SimWorkload make_paper_h6(const Args& args) {
  SimWorkload w;
  w.name = "paper_advc_h6";
  std::string text = std::string("h = ") + (args.toy ? "2" : "6") +
                     "\nrouting = par-mm\ntraffic = advc\nload = 0.4\n"
                     "sim.shards = 2\n";
  text += args.toy ? "warmup_cycles = 200\nmeasure_cycles = 300\n"
                   : "warmup_cycles = 500\nmeasure_cycles = 800\n";
  text += "seed = " + std::to_string(sim_seed(args.seed, 6)) + "\n";
  add_session(w, "par-mm/advc", text);
  return w;
}

SimWorkload make_churn_h6(const Args& args) {
  SimWorkload w;
  w.name = "churn_h6";
  std::string text = std::string("h = ") + (args.toy ? "2" : "6") +
                     "\nrouting = par-mm\ntraffic = uniform\nload = 0.3\n"
                     "sim.shards = 1\n"
                     "workload.mode = churn\n"
                     "workload.placement = contiguous\n"
                     "workload.mix = uniform,ring\n"
                     "workload.arrival_cycles = 300\n"
                     "workload.job_cycles = 1500\n";
  text += args.toy ? "workload.jobs = 2\nwarmup_cycles = 500\n"
                     "measure_cycles = 3000\n"
                   : "workload.jobs = 4\nwarmup_cycles = 5000\n"
                     "measure_cycles = 250000\n";
  text += "seed = " + std::to_string(sim_seed(args.seed, 7)) + "\n";
  add_session(w, "par-mm/churn", text);
  return w;
}

/// The exact result bytes of one session: the ResultWriter CSV row, the
/// per-router injection counts and every job's battery.
void digest_result(Digest& d, const std::string& label,
                   const AveragedResult& r) {
  d.add(ResultWriter::csv_row(label, r));
  std::string inj;
  for (double v : r.injections_per_router) inj += num(v) + ",";
  d.add(inj);
  for (const JobResult& j : r.jobs) {
    d.add(std::to_string(j.id) + "," + j.label + "," +
          std::to_string(j.nodes) + "," + std::to_string(j.start) + "," +
          std::to_string(j.end) + "," + std::to_string(j.delivered_packets) +
          "," + num(j.accepted_load) + "," + num(j.avg_latency) + "," +
          num(j.p99_latency) + "," + num(j.max_latency) + "," +
          std::to_string(j.iterations) + "," +
          num(j.mean_iteration_cycles));
  }
}

bool result_sane(const AveragedResult& r) {
  return std::isfinite(r.accepted_load) && r.accepted_load > 0.0 &&
         std::isfinite(r.avg_latency) && r.avg_latency > 0.0;
}

/// ParallelRunner wrapper that times every job it runs (index i writes
/// its own slot, so the wrapped runner's determinism is unchanged).
class TimedRunner final : public ParallelRunner {
 public:
  explicit TimedRunner(ParallelRunner& inner) : inner_(inner) {}
  int concurrency() const override { return inner_.concurrency(); }
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override {
    job_s.assign(n, 0.0);
    inner_.run(n, [&](std::size_t i) {
      const Clock::time_point t = Clock::now();
      body(i);
      job_s[i] = seconds_since(t);
    });
  }
  std::vector<double> job_s;

 private:
  ParallelRunner& inner_;
};

/// One untraced iteration of a workload.
struct Iteration {
  double wall_s = 0.0;
  /// Host seconds of session work, summed. Pooled: each run_configs job
  /// whole (construction, stepping, collect), which run_configs does not
  /// split. Single: stepping only.
  double step_s = 0.0;
  double cycles = 0.0;     ///< simulated cycles, summed over sessions
  double warmup_s = 0.0;   ///< single-session workloads only
  double measure_s = 0.0;  ///< single-session workloads only
  double fanout_s = 0.0;   ///< run_configs wall (pooled workloads)
  double report_s = 0.0;
  std::vector<double> session_s;
  std::vector<AveragedResult> results;
  std::string digest;
};

void finish_iteration(const SimWorkload& w, Iteration& it) {
  const Clock::time_point t = Clock::now();
  ResultWriter writer(w.name);
  for (std::size_t i = 0; i < it.results.size(); ++i) {
    writer.add(w.labels[i], it.results[i]);
  }
  std::ostringstream csv;
  writer.write(csv, OutputFormat::kCsv);
  it.report_s = seconds_since(t);
  Digest d;
  for (std::size_t i = 0; i < it.results.size(); ++i) {
    digest_result(d, w.labels[i], it.results[i]);
  }
  it.digest = d.hex();
}

Iteration run_pooled(const SimWorkload& w) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();
  PoolRunner pool(kPoolWorkers);
  TimedRunner runner(pool);
  const Clock::time_point tf = Clock::now();
  it.results = run_configs(w.configs, 1, runner);
  it.fanout_s = seconds_since(tf);
  it.session_s = runner.job_s;
  for (std::size_t i = 0; i < w.configs.size(); ++i) {
    it.step_s += runner.job_s[i];
    it.cycles += static_cast<double>(w.configs[i].warmup_cycles) +
                 it.results[i].measured_cycles;
  }
  finish_iteration(w, it);
  it.wall_s = seconds_since(t0);
  return it;
}

/// One session on a freshly built topology: setup, warmup, measure.
Iteration run_single(const SimWorkload& w, const SimConfig& cfg) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();
  TopologyCache cache;
  Session session(cfg, cache.acquire(cfg));
  Clock::time_point t = Clock::now();
  session.advance_to(SessionPhase::kMeasure);
  it.warmup_s = seconds_since(t);
  t = Clock::now();
  const SimResult r = session.run();
  it.measure_s = seconds_since(t);
  it.step_s = it.warmup_s + it.measure_s;
  it.cycles = static_cast<double>(session.now());
  it.results.push_back(average_results(std::span<const SimResult>(&r, 1)));
  finish_iteration(w, it);
  it.wall_s = seconds_since(t0);
  it.session_s.push_back(it.wall_s);
  return it;
}

Iteration run_iteration(const SimWorkload& w) {
  return w.pooled ? run_pooled(w) : run_single(w, w.configs.front());
}

/// Set-up as run_configs pays it: every session builds its own topology,
/// summed over the workload's sessions.
double setup_sample(const SimWorkload& w) {
  double total = 0.0;
  for (const SimConfig& cfg : w.configs) {
    const Clock::time_point t = Clock::now();
    auto session = std::make_unique<Session>(cfg);
    total += seconds_since(t);
  }
  return total;
}

/// Compare an iteration's bytes with the expected digest and sanity-check
/// every row; failures count against the iteration's sessions.
void check_iteration(const SimWorkload& w, const Iteration& it,
                     const std::string& expected, Outcome& out) {
  const auto sessions = static_cast<std::int64_t>(w.configs.size());
  out.attempted += sessions;
  if (it.digest != expected) {
    out.fail(w.name + ": result digest " + it.digest + " != expected " +
                 expected,
             sessions);
    return;
  }
  for (std::size_t i = 0; i < it.results.size(); ++i) {
    if (!result_sane(it.results[i])) {
      out.fail(w.name + ": " + w.labels[i] + " produced no traffic");
    }
  }
}

// --- traced stepping --------------------------------------------------------

struct SessionTrace {
  double build_s = 0.0, warmup_s = 0.0, measure_s = 0.0, collect_s = 0.0;
  double cycles = 0.0, measure_cycles = 0.0;
  double events = 0.0, forwards = 0.0, generated = 0.0, injected = 0.0;
  std::vector<double> step_us, churn_step_us, steady_step_us;
  std::vector<double> live_packets, backlog, live_jobs;
  SimResult result;
};

constexpr Cycle kSampleEvery = 64;

/// Drive one session with per-cycle Session::step(1), timing each cycle
/// and sampling occupancy through public accessors.
SessionTrace traced_session(const SimConfig& cfg,
                            std::shared_ptr<const Topology> topo,
                            Tracer& tracer) {
  SessionTrace st;
  auto span = tracer.span("session", "sim");
  std::unique_ptr<Session> s;
  {
    auto b = tracer.span("Session::Session", "sim");
    const Clock::time_point t = Clock::now();
    s = std::make_unique<Session>(cfg, std::move(topo));
    st.build_s = seconds_since(t);
  }
  Network& net = s->network();
  const WorkloadDriver* wl = net.workload();
  const int nodes = net.num_nodes();
  Cycle stepped = 0;
  auto sample = [&] {
    const double live = static_cast<double>(net.packets().live());
    double queued = 0.0;
    for (NodeId n = 0; n < nodes; ++n) {
      queued += static_cast<double>(net.node(n).queue_length());
    }
    st.live_packets.push_back(live);
    st.backlog.push_back(queued / nodes);
    tracer.counter("sim.live_packets", live);
  };
  auto step_one = [&] {
    const std::size_t jobs_before = wl != nullptr ? wl->live_jobs() : 0;
    const Clock::time_point t = Clock::now();
    s->step(1);
    const double us = us_between(t, Clock::now());
    st.step_us.push_back(us);
    if (wl != nullptr) {
      const std::size_t jobs = wl->live_jobs();
      (jobs != jobs_before ? st.churn_step_us : st.steady_step_us)
          .push_back(us);
      st.live_jobs.push_back(static_cast<double>(jobs));
    }
    if (++stepped % kSampleEvery == 0) sample();
  };
  {
    auto p = tracer.span("advance_to(Measure)", "sim");
    const Clock::time_point t = Clock::now();
    while (s->phase() == SessionPhase::kWarmup) step_one();
    st.warmup_s = seconds_since(t);
  }
  const double ev0 = static_cast<double>(net.dispatched_events());
  const double fw0 = static_cast<double>(net.total_forward_progress());
  const double gen0 = static_cast<double>(net.generated_packets_total());
  const Cycle m0 = s->now();
  {
    auto p = tracer.span("run(Measure)", "sim");
    const Clock::time_point t = Clock::now();
    while (s->phase() == SessionPhase::kMeasure) step_one();
    st.measure_s = seconds_since(t);
    st.measure_cycles = static_cast<double>(s->now() - m0);
    st.events = static_cast<double>(net.dispatched_events()) - ev0;
    st.forwards = static_cast<double>(net.total_forward_progress()) - fw0;
    st.generated = static_cast<double>(net.generated_packets_total()) - gen0;
    p.arg("cycles", st.measure_cycles);
    p.arg("events", st.events);
  }
  while (s->phase() != SessionPhase::kDone) step_one();
  st.cycles = static_cast<double>(s->now());
  {
    auto c = tracer.span("Session::collect", "metrics");
    const Clock::time_point t = Clock::now();
    st.result = s->collect();
    st.collect_s = seconds_since(t);
  }
  for (std::int64_t v : st.result.injections_per_router) {
    st.injected += static_cast<double>(v);
  }
  return st;
}

/// Traced counterpart of run_iteration: same sessions, same results.
struct TracedIteration {
  double wall_s = 0.0;
  std::vector<SessionTrace> sessions;
  std::string digest;
};

TracedIteration traced_iteration(const SimWorkload& w, Tracer& tracer) {
  TracedIteration ti;
  auto span = tracer.span(w.name.c_str(), "bench");
  const Clock::time_point t0 = Clock::now();
  ti.sessions.resize(w.configs.size());
  if (w.pooled) {
    // run_configs' job body, with each session stepped cycle by cycle
    // (replica 0 of each config runs under derive_seed(seed, 0)). Each
    // job builds its own topology, as run_configs does, but outside the
    // session build timer.
    PoolRunner pool(kPoolWorkers);
    auto f = tracer.span("run_configs", "core");
    pool.run(w.configs.size(), [&](std::size_t i) {
      SimConfig cfg = w.configs[i];
      cfg.seed = derive_seed(cfg.seed, 0);
      std::shared_ptr<const Topology> topo;
      {
        auto b = tracer.span("TopologyCache::acquire", "topology");
        topo = TopologyCache().acquire(cfg);
      }
      ti.sessions[i] = traced_session(cfg, std::move(topo), tracer);
    });
  } else {
    std::shared_ptr<const Topology> topo;
    {
      auto b = tracer.span("TopologyCache::acquire", "topology");
      TopologyCache cache;
      topo = cache.acquire(w.configs.front());
    }
    ti.sessions[0] = traced_session(w.configs.front(), topo, tracer);
  }
  Iteration it;
  for (const SessionTrace& st : ti.sessions) {
    it.results.push_back(
        average_results(std::span<const SimResult>(&st.result, 1)));
  }
  {
    auto r = tracer.span("ResultWriter::write", "core");
    finish_iteration(w, it);
  }
  ti.digest = it.digest;
  ti.wall_s = seconds_since(t0);
  return ti;
}

// --- the untraced run -------------------------------------------------------

void report_untraced(const SimWorkload& w, const Args& args,
                     const std::string& expected, Outcome& out) {
  // Set-up is sampled before the first iteration and after every one,
  // so that its samples span the run as the calibration slices do.
  HostCalibration calib;
  std::vector<double> setups;
  for (int k = 0; k < kSetupsBefore; ++k) setups.push_back(setup_sample(w));

  std::vector<Iteration> its;
  const Clock::time_point t0 = Clock::now();
  do {
    its.push_back(run_iteration(w));
    for (int k = 0; k < kSlicesPerIteration; ++k) calib.slice();
    for (int k = 0; k < kSetupsPerIteration; ++k) {
      setups.push_back(setup_sample(w));
    }
    std::cerr << "perfbench: iteration " << its.size() << ": "
              << its.back().wall_s << " s\n";
  } while (seconds_since(t0) < args.seconds);

  std::vector<double> wall;
  for (const Iteration& it : its) {
    check_iteration(w, it, expected.empty() ? its.front().digest : expected,
                    out);
    wall.push_back(it.wall_s);
  }
  // Every iteration does the same work; keep the fastest (bench.hpp).
  const std::vector<std::size_t> quiet = fastest(wall, kQuietShare);
  std::vector<double> rate;
  std::vector<std::vector<double>> by_session(w.configs.size());
  double sessions = 0.0, wall_sum = 0.0;
  for (std::size_t i : quiet) {
    const Iteration& it = its[i];
    rate.push_back(it.cycles / it.step_s);
    for (std::size_t j = 0; j < it.session_s.size(); ++j) {
      by_session[j].push_back(it.session_s[j]);
    }
    sessions += static_cast<double>(it.session_s.size());
    wall_sum += it.wall_s;
  }
  // Latency of each mechanism's session: its median over the kept
  // iterations. The max over single sessions would be a noisy p99.
  std::vector<double> lat;
  for (const std::vector<double>& v : by_session) lat.push_back(median(v));
  const double wall_raw = median(pick(wall, quiet));
  const double k = calib.time_scale();
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ": "
            << its.size() << " iteration(s) (" << quiet.size()
            << " fastest kept), " << sessions << " sessions in "
            << lat.size() << " latency samples, digest " << its.front().digest
            << "\nperfbench: host wall_s " << wall_raw << ", calibration slice "
            << calib.median_slice_s() * 1e3 << " ms over " << calib.slices()
            << " slices, time scale " << k << "\n";

  out.set("wall_s", wall_raw * k, "s");
  out.set("setup_s", median(pick(setups, fastest(setups, kQuietShare))) * k,
          "s");
  out.set("sim_cycles_per_s", median(rate) / k, "cycles/s");
  out.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  // A simulation workload's request is a session. The library path has
  // no result cache and no warm start, so new, repeat and refine
  // requests all cost a full session: every kind reports the session
  // latency distribution, one value per mechanism (p99 = the slowest).
  out.set("req_per_s", sessions / wall_sum / k, "1/s");
  const double p50 = percentile(lat, 0.50) * k, p99 = percentile(lat, 0.99) * k;
  out.set("new_p50_ms", p50 * 1e3, "ms");
  out.set("new_p99_ms", p99 * 1e3, "ms");
  out.set("refine_p50_ms", p50 * 1e3, "ms");
  out.set("refine_p99_ms", p99 * 1e3, "ms");
  out.set("repeat_p50_us", p50 * 1e6, "us");
}

// --- the traced run ---------------------------------------------------------

/// Returns the untraced reference iteration.
Iteration report_traced(const SimWorkload& w, const std::string& expected,
                        Tracer& tracer, Outcome& out) {
  // Untraced reference first, after one warm-up iteration so that
  // neither pass pays the process's first-touch costs: its bytes must
  // match the traced pass.
  const Iteration first = run_iteration(w);
  const std::string& reference = expected.empty() ? first.digest : expected;
  check_iteration(w, first, reference, out);
  const Iteration plain = run_iteration(w);
  check_iteration(w, plain, reference, out);

  const TracedIteration traced = traced_iteration(w, tracer);
  out.attempted += static_cast<std::int64_t>(w.configs.size());
  if (traced.digest != plain.digest) {
    out.fail(w.name + ": traced digest " + traced.digest +
                 " != untraced digest " + plain.digest,
             static_cast<std::int64_t>(w.configs.size()));
  }
  out.set("bench.trace_overhead_frac", traced.wall_s / plain.wall_s - 1.0,
          "ratio");

  // Layer counters, summed over the traced sessions.
  double build = 0, warm = 0, meas = 0, coll = 0, mcyc = 0, events = 0;
  double fwd = 0, gen = 0, inj = 0, lhops = 0, ghops = 0, jobs_total = 0;
  std::vector<double> steps, churn, steady, live, backlog, live_jobs;
  for (const SessionTrace& st : traced.sessions) {
    build += st.build_s;
    warm += st.warmup_s;
    meas += st.measure_s;
    coll += st.collect_s;
    mcyc += st.measure_cycles;
    events += st.events;
    fwd += st.forwards;
    gen += st.generated;
    inj += st.injected;
    lhops += st.result.avg_local_hops;
    ghops += st.result.avg_global_hops;
    jobs_total += static_cast<double>(st.result.jobs.size());
    steps.insert(steps.end(), st.step_us.begin(), st.step_us.end());
    churn.insert(churn.end(), st.churn_step_us.begin(), st.churn_step_us.end());
    steady.insert(steady.end(), st.steady_step_us.begin(),
                  st.steady_step_us.end());
    live.insert(live.end(), st.live_packets.begin(), st.live_packets.end());
    backlog.insert(backlog.end(), st.backlog.begin(), st.backlog.end());
    live_jobs.insert(live_jobs.end(), st.live_jobs.begin(), st.live_jobs.end());
  }
  const double n = static_cast<double>(traced.sessions.size());
  out.set("sim.session_build_ms", build / n * 1e3, "ms");
  out.set("sim.warmup_s", warm, "s");
  out.set("sim.measure_s", meas, "s");
  out.set("sim.step_us_p50", percentile(steps, 0.50), "us");
  out.set("sim.step_us_p99", percentile(steps, 0.99), "us");
  out.set("sim.events_per_cycle", events / mcyc, "events");
  out.set("sim.ns_per_event", meas * 1e9 / events, "ns");
  out.set("sim.live_packets_mean", mean(live), "packets");
  out.set("router.forwarded_per_cycle", fwd / mcyc, "packets");
  out.set("router.ns_per_forward", meas * 1e9 / fwd, "ns");
  out.set("router.injected_per_cycle", inj / mcyc, "packets");
  out.set("routing.local_hops", lhops / n, "hops");
  out.set("routing.global_hops", ghops / n, "hops");
  if (w.configs.front().traffic_key() == "advc") {
    // Every ADVc packet leaves its group: a minimal path takes one
    // global hop and a Valiant/in-transit misroute two.
    out.set("routing.misroute_share",
            std::max(0.0, std::min(1.0, ghops / n - 1.0)), "ratio");
  }
  out.set("traffic.generated_per_cycle", gen / mcyc, "packets");
  out.set("traffic.source_backlog_mean", mean(backlog), "packets");
  out.set("metrics.collect_ms", coll / n * 1e3, "ms");
  if (!live_jobs.empty()) {
    out.set("workload.live_jobs_mean", mean(live_jobs), "jobs");
    out.set("workload.jobs_total", jobs_total, "jobs");
    out.set("workload.churn_step_us_p50", median(churn), "us");
    out.set("workload.steady_step_us_p50", median(steady), "us");
  }
  std::cerr << "perfbench: traced " << steps.size() << " cycles ("
            << churn.size() << " with job arrivals/departures)\n";

  // Per-job (per-mechanism) times from the untraced fan-out.
  const std::vector<double>& jobs = plain.session_s;
  double busy = 0.0;
  for (std::size_t i = 0; i < w.configs.size(); ++i) {
    out.set("routing." + w.configs[i].routing_key() + ".job_s", jobs[i], "s");
    busy += jobs[i];
  }
  out.set("core.job_s_p50", median(jobs), "s");
  out.set("core.job_s_max", percentile(jobs, 1.0), "s");
  if (w.pooled) {
    out.set("core.pool_idle_frac",
            1.0 - busy / (kPoolWorkers * plain.fanout_s), "ratio");
  }
  out.set("core.report_ms", plain.report_s * 1e3, "ms");

  // Parse and cold topology build, timed in isolation.
  std::vector<double> parse_us = w.parse_us, topo_ms;
  for (int k = 0; k < 20; ++k) {
    auto p = tracer.span("ExperimentSpec::parse", "core");
    const Clock::time_point t = Clock::now();
    parse_spec(w.spec_texts[static_cast<std::size_t>(k) % w.spec_texts.size()]);
    parse_us.push_back(us_between(t, Clock::now()));
  }
  for (int k = 0; k < kTopologySamples; ++k) {
    auto b = tracer.span("TopologyCache::acquire(cold)", "topology");
    TopologyCache cache;
    const Clock::time_point t = Clock::now();
    cache.acquire(w.configs.front());
    topo_ms.push_back(seconds_since(t) * 1e3);
  }
  out.set("core.spec_parse_us", median(parse_us), "us");
  out.set("topology.build_ms", median(topo_ms), "ms");
  return plain;
}

/// The untraced reference iteration of a traced run (empty otherwise).
Iteration run_sim_workload(const SimWorkload& w, const Args& args,
                           Tracer& tracer, Outcome& out) {
  if (!args.trace) {
    report_untraced(w, args, args.expect_digest, out);
    return {};
  }
  return report_traced(w, args.expect_digest, tracer, out);
}

/// Layer probe: the sharded paper-scale session (see run_table2_advc).
void sharded_probe(const Args& args, Tracer& tracer, Outcome& out) {
  const SimWorkload w = make_paper_h6(args);
  const Iteration two = run_sim_workload(w, args, tracer, out);
  // Shard speed-up: the same session at sim.shards=1, untraced, against
  // the untraced sharded reference. Bytes must not depend on shards.
  SimConfig serial = w.configs.front();
  serial.shards = 1;
  const Iteration one = run_single(w, serial);
  out.attempted += 1;
  if (one.digest != two.digest) {
    out.fail("paper_advc_h6: shards=1 digest " + one.digest +
             " != shards=2 digest " + two.digest);
  }
  out.set("sim.shard_speedup", one.measure_s / two.measure_s, "ratio");
}

}  // namespace

void run_table2_advc(const Args& args, Tracer& tracer, Outcome& out) {
  run_sim_workload(make_table2(args), args, tracer, out);
  if (!args.trace) return;
  // Layer probes. Table II exercises neither the workload driver nor the
  // sharded kernel, and the paper-scale workloads that do were too noisy
  // on a shared host for end-to-end bounds (perfbench/NOTES.md). So the
  // traced run also steps a churn session and the sharded h=6 session
  // and reports their layer metrics; their bytes are checked against
  // their own untraced runs.
  Args probe_args = args;
  probe_args.expect_digest.clear();
  Outcome churn, sharded;
  run_sim_workload(make_churn_h6(probe_args), probe_args, tracer, churn);
  sharded_probe(probe_args, tracer, sharded);
  for (const Outcome* probe : {&churn, &sharded}) {
    out.attempted += probe->attempted;
    out.failed += probe->failed;
  }
  for (const char* name :
       {"workload.live_jobs_mean", "workload.jobs_total",
        "workload.churn_step_us_p50", "workload.steady_step_us_p50"}) {
    out.metrics[name] = churn.metrics.at(name);
  }
  out.metrics["sim.shard_speedup"] = sharded.metrics.at("sim.shard_speedup");
}

}  // namespace perfbench
