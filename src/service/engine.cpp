#include "service/engine.hpp"

#include <condition_variable>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/spec.hpp"
#include "sim/session.hpp"

namespace dragonfly {

const char* to_string(PointSource source) {
  switch (source) {
    case PointSource::kMiss: return "miss";
    case PointSource::kWarm: return "warm";
    case PointSource::kHit: return "hit";
    case PointSource::kCoalesced: return "join";
  }
  return "?";
}

bool RequestReport::ok() const {
  if (!error.empty()) return false;
  for (const PointReport& p : points) {
    if (!p.error.empty()) return false;
  }
  return true;
}

/// One point being simulated right now. The owner request's worker
/// fills `report`; every waiting request (owner + coalesced joiners)
/// blocks on `cv`. Stream subscribers live in `subs` and receive
/// samples tagged with *their* request's point index.
struct SweepService::InFlight {
  SimConfig cfg;
  int seeds = 1;
  std::string hash;
  std::string warm_key;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  PointReport report;
  std::vector<std::pair<RunObserver*, std::size_t>> subs;

  void emit(std::size_t seed, const StreamSample& sample) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [observer, index] : subs) {
      observer->on_sample(index, seed, sample);
    }
  }

  void subscribe(RunObserver* observer, std::size_t index) {
    std::lock_guard<std::mutex> lock(mu);
    subs.emplace_back(observer, index);
  }

  /// Session tap of one (point, replica) job: forwards interval
  /// samples into the subscriber fan-out with the replica attached.
  class Tap final : public MetricTap {
   public:
    Tap(InFlight* flight, std::size_t seed) : flight_(flight), seed_(seed) {}

    void on_sample(const StreamSample& sample) override {
      flight_->emit(seed_, sample);
    }

   private:
    InFlight* flight_;
    std::size_t seed_;
  };
};

namespace {

ExperimentSpec parse_items(const std::vector<std::string>& items) {
  ExperimentSpec spec;
  for (const std::string& item : items) spec.apply_kv_line(item);
  spec.finalize();
  return spec;
}

}  // namespace

SweepService::SweepService(ServiceOptions opts)
    : opts_(opts),
      results_(opts.result_entries),
      warm_(opts.warm_entries, opts.warm_bytes),
      pool_(opts.workers) {}

SweepService::~SweepService() = default;

std::string SweepService::point_hash(const SimConfig& cfg, int seeds) {
  return cfg.canonical_hash() + ":s" + std::to_string(seeds);
}

std::string SweepService::point_warm_hash(const SimConfig& cfg, int seeds) {
  return cfg.warm_hash() + ":s" + std::to_string(seeds);
}

RequestReport SweepService::describe(
    const std::vector<std::string>& items) const {
  RequestReport rep;
  ExperimentSpec spec;
  try {
    spec = parse_items(items);
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
  for (const double load : spec.effective_loads()) {
    SimConfig cfg = spec.base;
    cfg.load = load;
    PointReport pr;
    pr.label = spec.label;
    pr.offered_load = load;
    pr.hash = point_hash(cfg, spec.seeds);
    pr.warm_hash = point_warm_hash(cfg, spec.seeds);
    rep.points.push_back(std::move(pr));
  }
  return rep;
}

RequestReport SweepService::execute(const std::vector<std::string>& items,
                                    RunObserver* observer) {
  RequestReport rep;
  ExperimentSpec spec;
  try {
    spec = parse_items(items);
  } catch (const std::exception& e) {
    rep.error = e.what();
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
    ++counters_.errors;
    return rep;
  }

  const std::vector<double> loads = spec.effective_loads();
  rep.points.resize(loads.size());

  struct Pending {
    std::shared_ptr<InFlight> flight;
    std::size_t index = 0;
    bool owner = false;
  };
  std::vector<Pending> pending;

  for (std::size_t i = 0; i < loads.size(); ++i) {
    SimConfig cfg = spec.base;
    cfg.load = loads[i];
    PointReport& pr = rep.points[i];
    pr.label = spec.label;
    pr.offered_load = loads[i];
    pr.hash = point_hash(cfg, spec.seeds);
    pr.warm_hash = point_warm_hash(cfg, spec.seeds);

    if (const auto cached = results_.get(pr.hash)) {
      pr.source = PointSource::kHit;
      pr.result = *cached;
      continue;
    }

    std::unique_lock<std::mutex> lock(mu_);
    const auto it = inflight_.find(pr.hash);
    if (it != inflight_.end()) {
      std::shared_ptr<InFlight> flight = it->second;
      lock.unlock();
      if (observer != nullptr) flight->subscribe(observer, i);
      pending.push_back(Pending{std::move(flight), i, /*owner=*/false});
      continue;
    }
    // A finished run publishes to the result cache *before* leaving
    // inflight_, so re-checking the cache under mu_ closes the window
    // between the lock-free miss above and the inflight miss here.
    if (const auto cached = results_.get(pr.hash)) {
      pr.source = PointSource::kHit;
      pr.result = *cached;
      continue;
    }
    auto flight = std::make_shared<InFlight>();
    flight->cfg = cfg;
    flight->seeds = spec.seeds;
    flight->hash = pr.hash;
    flight->warm_key = pr.warm_hash;
    flight->report.label = pr.label;
    flight->report.offered_load = pr.offered_load;
    flight->report.hash = pr.hash;
    flight->report.warm_hash = pr.warm_hash;
    inflight_[pr.hash] = flight;
    lock.unlock();
    if (observer != nullptr) flight->subscribe(observer, i);
    pool_.submit([this, flight] { run_point(flight.get()); });
    pending.push_back(Pending{std::move(flight), i, /*owner=*/true});
  }

  for (Pending& p : pending) {
    std::unique_lock<std::mutex> lock(p.flight->mu);
    p.flight->cv.wait(lock, [&] { return p.flight->done; });
    PointReport& pr = rep.points[p.index];
    const PointReport& fr = p.flight->report;
    pr.result = fr.result;
    pr.error = fr.error;
    if (p.owner) {
      pr.source = fr.source;
      pr.cycles_simulated = fr.cycles_simulated;
    } else {
      pr.source = PointSource::kCoalesced;
      pr.cycles_simulated = 0;
    }
    if (observer != nullptr) {
      auto& subs = p.flight->subs;
      for (auto it = subs.begin(); it != subs.end(); ++it) {
        if (it->first == observer && it->second == p.index) {
          subs.erase(it);
          break;
        }
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.requests;
  counters_.points += static_cast<std::int64_t>(rep.points.size());
  for (const PointReport& pr : rep.points) {
    if (!pr.error.empty()) ++counters_.errors;
    switch (pr.source) {
      case PointSource::kHit: ++counters_.result_hits; break;
      case PointSource::kCoalesced: ++counters_.coalesced; break;
      case PointSource::kWarm:
        ++counters_.warm_starts;
        counters_.cycles_simulated += pr.cycles_simulated;
        break;
      case PointSource::kMiss:
        ++counters_.cold_runs;
        counters_.cycles_simulated += pr.cycles_simulated;
        break;
    }
  }
  return rep;
}

void SweepService::run_point(InFlight* flight) {
  PointReport& pr = flight->report;
  try {
    std::shared_ptr<const Topology> topo;
    if (opts_.share_topologies) topo = topologies_.acquire(flight->cfg);

    // Only a fixed, unscripted window has a deadline a refinement can
    // move: such a point warm-starts from a cached window that is no
    // longer than its own, and its cold run (re)captures one.
    const std::size_t seeds = static_cast<std::size_t>(flight->seeds);
    const bool warmable = opts_.capture_warm_checkpoints &&
                          flight->cfg.stop.mode == StopMode::kFixed &&
                          flight->cfg.phase_script.empty();
    std::shared_ptr<const WarmEntry> warm;
    if (warmable) warm = warm_.get(flight->warm_key);
    if (warm != nullptr &&
        (warm->checkpoints.size() != seeds ||
         warm->measure_cycles > flight->cfg.measure_cycles)) {
      warm = nullptr;
    }

    std::vector<SimResult> runs(seeds);
    auto fresh = std::make_shared<WarmEntry>();
    fresh->measure_cycles = flight->cfg.measure_cycles;
    std::int64_t cycles = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      SimConfig rcfg = flight->cfg;
      rcfg.seed = derive_seed(flight->cfg.seed, s);
      InFlight::Tap tap(flight, s);
      if (warm != nullptr) {
        // Warm start: resume the cached window one cycle before it
        // closed; restore() re-validates that rcfg only differs in
        // refinement keys and moves the deadline to the refined window.
        std::unique_ptr<Session> session = Session::restore(
            warm->checkpoints[s], /*shards_override=*/0, &rcfg, topo);
        const Cycle resumed_at = session->now();
        session->set_tap(&tap);
        runs[s] = session->run();
        cycles += session->now() - resumed_at;
      } else {
        Session session(rcfg, topo);
        session.set_tap(&tap);
        if (warmable && session.advance_to_measure_close()) {
          fresh->checkpoints.push_back(session.checkpoint());
        }
        runs[s] = session.run();
        cycles += session.now();
      }
    }
    pr.result = average_results(runs);
    pr.cycles_simulated = cycles;
    pr.source = warm != nullptr ? PointSource::kWarm : PointSource::kMiss;

    auto value = std::make_shared<AveragedResult>(pr.result);
    const std::size_t bytes =
        sizeof(AveragedResult) +
        value->injections_per_router.size() * sizeof(double);
    results_.put(flight->hash, std::move(value), bytes);
    if (warm == nullptr && fresh->checkpoints.size() == seeds) {
      std::size_t warm_bytes = 0;
      for (const std::string& ck : fresh->checkpoints) warm_bytes += ck.size();
      warm_.put(flight->warm_key, std::move(fresh), warm_bytes);
    }
  } catch (const std::exception& e) {
    pr.error = e.what();
  }
  finish_point(flight);
}

void SweepService::finish_point(InFlight* flight) {
  {
    // Publish-then-retire ordering: the result is already in the cache
    // (run_point), so once the flight leaves the map every future
    // request resolves as a hit.
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(flight->hash);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
  }
  flight->cv.notify_all();
}

ServiceStats SweepService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  out.result_cache = results_.stats();
  out.warm_cache = warm_.stats();
  out.topologies = topologies_.stats();
  return out;
}

}  // namespace dragonfly
