#include "metrics/collector.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace dragonfly {

void MetricsCollector::on_delivered(const Packet& pkt, Cycle when) {
  ++delivered_packets_total_;
  delivered_phits_total_ += pkt.size_phits;
  const auto latency = static_cast<double>(when - pkt.t_net);
  latency_sum_total_ += latency;
  if (streaming_) {
    p2_p50_.add(latency);
    p2_p99_.add(latency);
  }
  if (!measuring_) return;
  ++delivered_packets_measured_;
  delivered_phits_measured_ += pkt.size_phits;
  p2_p999_.add(latency);
  if (pkt.job >= 0) {
    const auto it = job_index_.find(pkt.job);
    if (it != job_index_.end()) {
      JobRecord& job = jobs_[it->second];
      ++job.delivered_packets;
      job.delivered_phits += pkt.size_phits;
      job.latency_sum += latency;
      job.max_latency = std::max(job.max_latency, latency);
      job.p99.add(latency);
    }
  }
  const Cycle base = base_latency(topo_, cfg_, pkt.src, pkt.dst);
  // Exact decomposition invariant (see metrics/latency.hpp). A violation
  // means the structural/wait bookkeeping in Router drifted.
  const Cycle structural = pkt.structural + pkt.size_phits;
  const Cycle reconstructed = structural + pkt.wait_injection +
                              pkt.wait_local + pkt.wait_global;
  if (reconstructed != when - pkt.t_net) {
    throw std::logic_error("latency decomposition identity violated");
  }
  latency_.add(pkt, when, base);
}

void MetricsCollector::on_job_start(std::int32_t id, const std::string& label,
                                    int nodes, Cycle now) {
  JobRecord job;
  job.id = id;
  job.label = label;
  job.nodes = nodes;
  job.start = now;
  job_index_[id] = jobs_.size();
  jobs_.push_back(std::move(job));
}

void MetricsCollector::on_job_end(std::int32_t id, Cycle now) {
  const auto it = job_index_.find(id);
  if (it != job_index_.end()) jobs_[it->second].end = now;
}

void MetricsCollector::on_iteration(std::int32_t id, Cycle duration) {
  if (!measuring_) return;
  const auto it = job_index_.find(id);
  if (it == job_index_.end()) return;
  JobRecord& job = jobs_[it->second];
  ++job.iterations;
  job.iteration_cycles += static_cast<double>(duration);
}

std::int64_t MetricsCollector::live_jobs() const {
  std::int64_t n = 0;
  for (const JobRecord& job : jobs_) {
    if (job.end < 0) ++n;
  }
  return n;
}

void MetricsCollector::attach_routers(int num_routers) {
  injected_total_.assign(static_cast<std::size_t>(num_routers), 0);
  injected_measured_.assign(static_cast<std::size_t>(num_routers), 0);
  forwarded_total_.assign(static_cast<std::size_t>(num_routers), 0);
}

std::int64_t MetricsCollector::forwarded_total_sum() const {
  std::int64_t sum = 0;
  for (const std::int64_t v : forwarded_total_) sum += v;
  return sum;
}

void MetricsCollector::reset_measured_router_counters() {
  std::fill(injected_measured_.begin(), injected_measured_.end(), 0);
}

double MetricsCollector::accepted_load(int generating_nodes) const {
  const Cycle window = measure_end_ - measure_start_;
  if (measuring_ || window <= 0 || generating_nodes <= 0) return 0.0;
  return static_cast<double>(delivered_phits_measured_) /
         (static_cast<double>(generating_nodes) *
          static_cast<double>(window));
}

template <class Self, class Archive>
void MetricsCollector::walk(Self& self, Archive& ck) {
  ck.tag("Collector");
  ck.field(self.measuring_);
  ck.field(self.begun_);
  ck.field(self.ended_);
  ck.field(self.streaming_);
  ck.field(self.measure_start_);
  ck.field(self.measure_end_);
  ck.field(self.latency_);
  ck.field(self.delivered_packets_measured_);
  ck.field(self.delivered_phits_measured_);
  ck.field(self.delivered_packets_total_);
  ck.field(self.delivered_phits_total_);
  ck.field(self.latency_sum_total_);
  ck.field(self.p2_p50_);
  ck.field(self.p2_p99_);
  ck.fixed(self.injected_total_, "per-router counter size");
  ck.fixed(self.injected_measured_, "per-router counter size");
  ck.fixed(self.forwarded_total_, "per-router counter size");
  // appended in checkpoint format v5: per-job battery
  ck.field(self.p2_p999_);
  ck.seq(
      self.jobs_,
      [&](auto& job) {
        ck.field(job.id);
        ck.field(job.label);
        ck.field(job.nodes);
        ck.field(job.start);
        ck.field(job.end);
        ck.field(job.delivered_packets);
        ck.field(job.delivered_phits);
        ck.field(job.latency_sum);
        ck.field(job.max_latency);
        ck.field(job.p99);
        ck.field(job.iterations);
        ck.field(job.iteration_cycles);
      },
      wire<std::uint32_t>);
}

void MetricsCollector::save(CheckpointWriter& ck) const { walk(*this, ck); }

void MetricsCollector::load(CheckpointReader& ck) {
  walk(*this, ck);
  job_index_.clear();
  for (std::size_t i = 0; i < jobs_.size(); ++i) job_index_[jobs_[i].id] = i;
}

}  // namespace dragonfly
