#include "metrics/latency.hpp"

#include "common/checkpoint.hpp"

namespace dragonfly {

Cycle base_latency(const Topology& topo, const SimConfig& cfg,
                   NodeId src, NodeId dst) {
  const PathLengths len = topo.minimal_lengths(src, dst);
  return static_cast<Cycle>(cfg.pipeline_latency) * (len.total() + 1) +
         cfg.local_latency * len.local + cfg.global_latency * len.global +
         cfg.packet_size;
}

LatencyAccumulator::LatencyAccumulator() : histogram_(0.0, 16'384.0, 2'048) {}

void LatencyAccumulator::reset() {
  histogram_.reset();
  total_.reset();
  base_.reset();
  misroute_.reset();
  local_q_.reset();
  global_q_.reset();
  injection_q_.reset();
  local_hops_.reset();
  global_hops_.reset();
}

void LatencyAccumulator::add(const Packet& pkt, Cycle delivered, Cycle base) {
  const auto latency = static_cast<double>(delivered - pkt.t_net);
  histogram_.add(latency);
  // Final serialization at the ejection port completes the structural
  // delay of the traversed path.
  const Cycle structural = pkt.structural + pkt.size_phits;
  total_.add(latency);
  base_.add(static_cast<double>(base));
  misroute_.add(static_cast<double>(structural - base));
  local_q_.add(static_cast<double>(pkt.wait_local));
  global_q_.add(static_cast<double>(pkt.wait_global));
  injection_q_.add(static_cast<double>(pkt.wait_injection));
  local_hops_.add(static_cast<double>(pkt.local_hops));
  global_hops_.add(static_cast<double>(pkt.global_hops));
}

LatencyComponents LatencyAccumulator::components() const {
  LatencyComponents c;
  c.base = base_.mean();
  c.misroute = misroute_.mean();
  c.local_queue = local_q_.mean();
  c.global_queue = global_q_.mean();
  c.injection_queue = injection_q_.mean();
  return c;
}

void LatencyAccumulator::merge(const LatencyAccumulator& other) {
  histogram_.merge(other.histogram_);
  total_.merge(other.total_);
  base_.merge(other.base_);
  misroute_.merge(other.misroute_);
  local_q_.merge(other.local_q_);
  global_q_.merge(other.global_q_);
  injection_q_.merge(other.injection_q_);
  local_hops_.merge(other.local_hops_);
  global_hops_.merge(other.global_hops_);
}

template <class Self, class Archive>
void LatencyAccumulator::walk(Self& self, Archive& ck) {
  ck.tag("Latency");
  ck.field(self.histogram_);
  ck.field(self.total_);
  ck.field(self.base_);
  ck.field(self.misroute_);
  ck.field(self.local_q_);
  ck.field(self.global_q_);
  ck.field(self.injection_q_);
  ck.field(self.local_hops_);
  ck.field(self.global_hops_);
}

void LatencyAccumulator::save(CheckpointWriter& ck) const { walk(*this, ck); }
void LatencyAccumulator::load(CheckpointReader& ck) { walk(*this, ck); }

}  // namespace dragonfly
