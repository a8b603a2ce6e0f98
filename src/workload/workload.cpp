#include "workload/workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/checkpoint.hpp"
#include "sim/network.hpp"

namespace dragonfly {

// --- JobPattern -------------------------------------------------------------

JobPattern::JobPattern(std::string mix, std::vector<NodeId> nodes)
    : mix_(std::move(mix)), nodes_(std::move(nodes)) {
  std::sort(nodes_.begin(), nodes_.end());
}

std::int32_t JobPattern::rank_of(NodeId src) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), src);
  if (it == nodes_.end() || *it != src) return -1;
  return static_cast<std::int32_t>(it - nodes_.begin());
}

bool JobPattern::generates(NodeId src) const { return rank_of(src) >= 0; }

NodeId JobPattern::destination(NodeId src, Rng& rng) const {
  const std::int32_t r = rank_of(src);
  const auto P = static_cast<std::int32_t>(nodes_.size());
  if (r < 0 || P < 2) return kInvalidNode;
  if (mix_ == "ring") {
    return nodes_[static_cast<std::size_t>((r + 1) % P)];
  }
  if (mix_ == "shift") {
    return nodes_[static_cast<std::size_t>((r + P / 2) % P)];
  }
  if (mix_ == "hotspot" && r != 0 && rng.bernoulli(0.2)) {
    return nodes_.front();
  }
  // Uniform over the other job nodes (also the hotspot background and
  // the rank-0 hotspot source).
  auto j = static_cast<std::int32_t>(
      rng.below(static_cast<std::uint64_t>(P - 1)));
  if (j >= r) ++j;
  return nodes_[static_cast<std::size_t>(j)];
}

// --- WorkloadDriver ---------------------------------------------------------

namespace {
/// Child-stream index bases, disjoint from nodes (n) and routers
/// (0x1000000 + r).
constexpr std::uint64_t kBurstyStreamBase = 0x2000000ull;
constexpr std::uint64_t kChurnStream = 0x3000000ull;
}  // namespace

WorkloadDriver::WorkloadDriver(Network& net, Rng root)
    : net_(net), root_(root) {
  const std::string& m = net_.config().workload.mode;
  mode_ = m == "collective" ? Mode::kCollective
          : m == "bursty"   ? Mode::kBursty
                            : Mode::kChurn;
}

WorkloadDriver::~WorkloadDriver() = default;

Cycle WorkloadDriver::sample_dwell(Rng& rng, Cycle mean) {
  if (mean <= 1) return 1;
  const double u = rng.uniform();
  const double p = 1.0 / static_cast<double>(mean);
  // Geometric number of trials (support {1, 2, ...}, mean `mean`).
  const double g = std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
  if (!(g >= 1.0)) return 1;
  if (g >= 1e15) return static_cast<Cycle>(1e15);
  return static_cast<Cycle>(g);
}

void WorkloadDriver::initialize() {
  switch (mode_) {
    case Mode::kCollective: init_collective(); break;
    case Mode::kBursty: init_bursty(); break;
    case Mode::kChurn: init_churn(); break;
  }
}

void WorkloadDriver::on_cycle(Cycle now, bool measuring) {
  switch (mode_) {
    case Mode::kCollective: step_collective(now, measuring); break;
    case Mode::kBursty: step_bursty(now); break;
    case Mode::kChurn: step_churn(now); break;
  }
}

void WorkloadDriver::on_delivered(const Packet& pkt, Cycle /*when*/) {
  if (mode_ != Mode::kCollective || pkt.job != 0) return;
  if (pkt.dst >= 0 && pkt.dst < participants_) {
    ++recv_count_[static_cast<std::size_t>(pkt.dst)];
    ++iter_delivered_;
  }
}

// --- collective -------------------------------------------------------------

void WorkloadDriver::init_collective() {
  const WorkloadConfig& w = net_.config().workload;
  participants_ = w.participants == 0 ? net_.num_nodes() : w.participants;
  denominator_ = participants_;
  // The communicator is ranks 0..P-1 mapped onto the first P nodes;
  // every node's Bernoulli source is parked (collective sends are the
  // only traffic, so completion times are unpolluted).
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    Node& node = net_.node(n);
    node.set_workload_on(false);
    node.set_job(n < participants_ ? 0 : -1);
  }
  build_send_lists();
  next_send_.assign(static_cast<std::size_t>(participants_), 0);
  recv_count_.assign(static_cast<std::size_t>(participants_), 0);
  iter_delivered_ = 0;
  iter_start_ = 0;
  net_.collector().on_job_start(0, w.collective, participants_, 0);
  net_.rebuild_node_masks();
}

void WorkloadDriver::build_send_lists() {
  const int P = participants_;
  sends_.assign(static_cast<std::size_t>(P), {});
  expected_per_iter_ = 0;
  if (P < 2) return;
  const std::string& kind = net_.config().workload.collective;
  if (kind == "ring") {
    // Ring allreduce: 2(P-1) steps around the ring; rank r issues its
    // step-s packet to the right neighbour once it has received s
    // packets from the left (the data dependency of reduce-scatter +
    // allgather).
    const int steps = 2 * (P - 1);
    for (int r = 0; r < P; ++r) {
      auto& list = sends_[static_cast<std::size_t>(r)];
      list.reserve(static_cast<std::size_t>(steps));
      for (int s = 0; s < steps; ++s) {
        list.push_back({static_cast<NodeId>((r + 1) % P), s});
      }
    }
  } else if (kind == "tree") {
    // Binary-tree allreduce: reduce to the root (send to parent after
    // hearing from both children), then broadcast back down (after
    // additionally hearing from the parent).
    for (int r = 0; r < P; ++r) {
      auto& list = sends_[static_cast<std::size_t>(r)];
      const int c1 = 2 * r + 1;
      const int c2 = 2 * r + 2;
      const int nc = (c1 < P ? 1 : 0) + (c2 < P ? 1 : 0);
      if (r != 0) list.push_back({static_cast<NodeId>((r - 1) / 2), nc});
      const int bt = r == 0 ? nc : nc + 1;
      if (c1 < P) list.push_back({static_cast<NodeId>(c1), bt});
      if (c2 < P) list.push_back({static_cast<NodeId>(c2), bt});
    }
  } else if (kind == "alltoall") {
    // Personalized all-to-all: P-1 sends per rank in the classic
    // rotated order (step j targets rank r+j), paced one per cycle and
    // by source-queue backpressure.
    for (int r = 0; r < P; ++r) {
      auto& list = sends_[static_cast<std::size_t>(r)];
      list.reserve(static_cast<std::size_t>(P - 1));
      for (int j = 1; j < P; ++j) {
        list.push_back({static_cast<NodeId>((r + j) % P), 0});
      }
    }
  } else {  // halo
    // Halo exchange on a periodic rows x cols grid (rows = largest
    // divisor of P below sqrt(P)): each rank sends one halo to each
    // distinct grid neighbour per iteration.
    int rows = 1;
    for (int d = 1; d * d <= P; ++d) {
      if (P % d == 0) rows = d;
    }
    const int cols = P / rows;
    for (int r = 0; r < P; ++r) {
      const int x = r % cols;
      const int y = r / cols;
      const std::array<int, 4> neighbours = {
          y * cols + (x + 1) % cols, y * cols + (x - 1 + cols) % cols,
          ((y + 1) % rows) * cols + x, ((y - 1 + rows) % rows) * cols + x};
      auto& list = sends_[static_cast<std::size_t>(r)];
      for (const int nb : neighbours) {
        if (nb == r) continue;
        const auto dst = static_cast<NodeId>(nb);
        const bool dup =
            std::any_of(list.begin(), list.end(),
                        [dst](const CollectiveSend& s) { return s.dst == dst; });
        if (!dup) list.push_back({dst, 0});
      }
    }
  }
  for (const auto& list : sends_) {
    expected_per_iter_ += static_cast<std::int64_t>(list.size());
  }
}

void WorkloadDriver::step_collective(Cycle now, bool measuring) {
  // Iteration boundary first: the deliveries drained just before this
  // hook may have completed the iteration, and the new iteration's
  // step-0 sends should go out this very cycle.
  if (expected_per_iter_ > 0 && iter_delivered_ >= expected_per_iter_) {
    net_.collector().on_iteration(0, now - iter_start_);
    ++iterations_completed_;
    std::fill(next_send_.begin(), next_send_.end(), 0);
    std::fill(recv_count_.begin(), recv_count_.end(), 0);
    iter_delivered_ = 0;
    iter_start_ = now;
  }
  // One send attempt per rank per cycle, ascending rank order (the
  // canonical order). A full source queue is backpressure: the same
  // send retries next cycle.
  for (int r = 0; r < participants_; ++r) {
    const auto& list = sends_[static_cast<std::size_t>(r)];
    std::int32_t& next = next_send_[static_cast<std::size_t>(r)];
    if (next >= static_cast<std::int32_t>(list.size())) continue;
    const CollectiveSend& s = list[static_cast<std::size_t>(next)];
    if (recv_count_[static_cast<std::size_t>(r)] < s.threshold) continue;
    if (net_.workload_post_send(static_cast<NodeId>(r), s.dst, measuring, 0)) {
      ++next;
    }
  }
}

// --- bursty -----------------------------------------------------------------

void WorkloadDriver::init_bursty() {
  const WorkloadConfig& w = net_.config().workload;
  const int N = net_.num_nodes();
  node_rng_.reserve(static_cast<std::size_t>(N));
  node_on_.reserve(static_cast<std::size_t>(N));
  next_toggle_.reserve(static_cast<std::size_t>(N));
  denominator_ = 0;
  const double duty = static_cast<double>(w.burst_cycles) /
                      static_cast<double>(w.burst_cycles + w.idle_cycles);
  for (NodeId n = 0; n < N; ++n) {
    if (net_.node(n).generates()) ++denominator_;
    node_rng_.push_back(root_.child(kBurstyStreamBase +
                                    static_cast<std::uint64_t>(n)));
    Rng& rng = node_rng_.back();
    // Stationary initial phase: ON with probability burst/(burst+idle),
    // then a full dwell of the initial state.
    const bool on = rng.bernoulli(duty);
    node_on_.push_back(on ? 1 : 0);
    next_toggle_.push_back(
        sample_dwell(rng, on ? w.burst_cycles : w.idle_cycles));
    if (!on) net_.node(n).set_workload_on(false);
  }
  net_.rebuild_node_masks();
}

void WorkloadDriver::step_bursty(Cycle now) {
  const WorkloadConfig& w = net_.config().workload;
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (next_toggle_[i] != now) continue;
    node_on_[i] ^= 1u;
    const bool on = node_on_[i] != 0;
    net_.node(n).set_workload_on(on);
    net_.refresh_node_activation(n);
    next_toggle_[i] =
        now + sample_dwell(node_rng_[i], on ? w.burst_cycles : w.idle_cycles);
  }
}

// --- churn ------------------------------------------------------------------

void WorkloadDriver::init_churn() {
  const WorkloadConfig& w = net_.config().workload;
  const Topology& topo = net_.topology();
  churn_rng_ = root_.child(kChurnStream);
  mixes_ = workload_mix_entries(w.mix);
  job_routers_ = w.job_routers > 0
                     ? w.job_routers
                     : topo.num_routers() / topo.num_groups();
  router_job_.assign(static_cast<std::size_t>(topo.num_routers()), -1);
  denominator_ = net_.num_nodes();
  // Everything idle until a job claims it.
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    Node& node = net_.node(n);
    node.set_pattern(&null_pattern_);
    node.set_job(-1);
    node.set_workload_on(false);
  }
  next_arrival_ = sample_dwell(churn_rng_, w.arrival_cycles);
  net_.rebuild_node_masks();
}

void WorkloadDriver::bind_job_nodes(Job& job) {
  const Topology& topo = net_.topology();
  std::sort(job.routers.begin(), job.routers.end());
  job.nodes.clear();
  for (const RouterId r : job.routers) {
    for (int i = 0; i < topo.concentration(); ++i) {
      job.nodes.push_back(topo.node_id(r, i));
    }
    router_job_[static_cast<std::size_t>(r)] = job.id;
  }
  std::sort(job.nodes.begin(), job.nodes.end());
  job.pattern = std::make_unique<JobPattern>(
      mixes_[static_cast<std::size_t>(job.mix)], job.nodes);
  for (const NodeId n : job.nodes) {
    net_.node(n).set_pattern(job.pattern.get());
  }
}

bool WorkloadDriver::admit_job(Cycle now) {
  const WorkloadConfig& w = net_.config().workload;
  const int R = net_.num_routers();
  const int need = std::min(job_routers_, R);
  Job job;
  job.id = next_job_id_;
  job.mix = static_cast<std::int32_t>(
      static_cast<std::size_t>(next_job_id_) % mixes_.size());
  if (w.placement == "contiguous") {
    // First-fit run of `need` consecutive free routers. No RNG draw on
    // the placement, and none at all when fragmentation defers the
    // job — the retry next cycle sees the identical stream.
    int run = 0;
    for (RouterId r = 0; r < R; ++r) {
      run = router_job_[static_cast<std::size_t>(r)] < 0 ? run + 1 : 0;
      if (run == need) {
        for (RouterId k = r - need + 1; k <= r; ++k) job.routers.push_back(k);
        break;
      }
    }
    if (job.routers.empty()) return false;
  } else {  // random
    std::vector<RouterId> free;
    for (RouterId r = 0; r < R; ++r) {
      if (router_job_[static_cast<std::size_t>(r)] < 0) free.push_back(r);
    }
    if (static_cast<int>(free.size()) < need) return false;
    // Partial Fisher-Yates over the free list (ascending, so the draw
    // sequence is placement-history independent).
    for (int k = 0; k < need; ++k) {
      const auto j = static_cast<std::size_t>(k) +
                     static_cast<std::size_t>(churn_rng_.below(
                         free.size() - static_cast<std::size_t>(k)));
      std::swap(free[static_cast<std::size_t>(k)], free[j]);
      job.routers.push_back(free[static_cast<std::size_t>(k)]);
    }
  }
  job.start = now;
  job.end = now + sample_dwell(churn_rng_, w.job_cycles);
  bind_job_nodes(job);
  for (const NodeId n : job.nodes) {
    Node& node = net_.node(n);
    node.set_job(job.id);
    node.set_workload_on(true);
    net_.refresh_node_activation(n);
  }
  net_.collector().on_job_start(
      job.id, mixes_[static_cast<std::size_t>(job.mix)],
      static_cast<int>(job.nodes.size()), now);
  ++next_job_id_;
  jobs_.push_back(std::move(job));
  return true;
}

void WorkloadDriver::retire_job(std::size_t index, Cycle now) {
  Job& job = jobs_[index];
  net_.collector().on_job_end(job.id, now);
  for (const NodeId n : job.nodes) {
    Node& node = net_.node(n);
    node.set_workload_on(false);
    node.set_job(-1);
    node.set_pattern(&null_pattern_);
    net_.refresh_node_activation(n);
  }
  for (const RouterId r : job.routers) {
    router_job_[static_cast<std::size_t>(r)] = -1;
  }
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(index));
}

void WorkloadDriver::step_churn(Cycle now) {
  const WorkloadConfig& w = net_.config().workload;
  // Departures first so a same-cycle arrival can reuse the routers.
  for (std::size_t i = 0; i < jobs_.size();) {
    if (now >= jobs_[i].end) {
      retire_job(i, now);
    } else {
      ++i;
    }
  }
  // At most one pending arrival: when the cluster is full (or too
  // fragmented for a contiguous placement) the job waits at the door
  // and admission retries every cycle.
  if (now >= next_arrival_ &&
      jobs_.size() < static_cast<std::size_t>(w.jobs)) {
    if (admit_job(now)) {
      next_arrival_ = now + sample_dwell(churn_rng_, w.arrival_cycles);
    }
  }
}

// --- checkpoint -------------------------------------------------------------

template <class Self, class Archive>
void WorkloadDriver::walk(Self& self, Archive& ck) {
  ck.tag("Workload");
  ck.field(self.iterations_completed_);
  switch (self.mode_) {
    case Mode::kCollective:
      // Send lists are derived from the config; only progress state is
      // mutable.
      ck.seq(self.next_send_);
      ck.seq(self.recv_count_);
      ck.field(self.iter_delivered_);
      ck.field(self.iter_start_);
      break;
    case Mode::kBursty:
      for (std::size_t i = 0; i < self.node_rng_.size(); ++i) {
        ck.rng(self.node_rng_[i]);
        ck.field(self.node_on_[i]);
        ck.field(self.next_toggle_[i]);
      }
      break;
    case Mode::kChurn:
      ck.rng(self.churn_rng_);
      ck.field(self.next_arrival_);
      ck.field(self.next_job_id_);
      ck.seq(
          self.jobs_,
          [&](auto& job) {
            ck.field(job.id);
            ck.field(job.mix);
            ck.seq(job.routers);
            ck.field(job.start);
            ck.field(job.end);
          },
          wire<std::uint32_t>);
      break;
  }
}

void WorkloadDriver::save(CheckpointWriter& ck) const { walk(*this, ck); }

void WorkloadDriver::load(CheckpointReader& ck) {
  walk(*this, ck);
  // The collective progress indexes the send lists, and a job's mix and
  // routers index the mix list and the router table.
  const auto reject = [](const std::string& what) {
    throw std::runtime_error("checkpoint: " + what);
  };
  if (mode_ == Mode::kCollective) {
    const auto ranks = static_cast<std::size_t>(participants_);
    if (next_send_.size() != ranks || recv_count_.size() != ranks) {
      reject("collective progress lists of " +
             std::to_string(next_send_.size()) + " and " +
             std::to_string(recv_count_.size()) + " ranks for " +
             std::to_string(ranks) + " participants");
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      if (next_send_[r] < 0 ||
          static_cast<std::size_t>(next_send_[r]) > sends_[r].size()) {
        reject("collective rank " + std::to_string(r) + " at send " +
               std::to_string(next_send_[r]) + " of " +
               std::to_string(sends_[r].size()));
      }
    }
  }
  if (mode_ == Mode::kChurn) {
    for (const Job& job : jobs_) {
      if (job.mix < 0 || static_cast<std::size_t>(job.mix) >= mixes_.size()) {
        reject("job " + std::to_string(job.id) + " has mix " +
               std::to_string(job.mix) + " of " +
               std::to_string(mixes_.size()));
      }
      for (const RouterId r : job.routers) {
        if (r < 0 || r >= net_.num_routers()) {
          reject("job " + std::to_string(job.id) + " on router " +
                 std::to_string(r) + ", which does not exist");
        }
      }
    }
    // Rebind each job's pattern to its nodes: this is why the driver
    // section precedes the node section in the v5 stream, as Node::load
    // re-derives generates() against these pointers.
    std::fill(router_job_.begin(), router_job_.end(), -1);
    for (Job& job : jobs_) bind_job_nodes(job);
  }
}

}  // namespace dragonfly
