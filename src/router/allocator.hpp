// Iterative separable batch allocator (Table I: "iterative separable
// batch allocator", 2x internal frequency speedup).
//
// Each cycle the router presents one request per non-empty input VC.
// The allocator runs a configurable number of input-first/output-second
// iterations; the 2x speedup is modelled as up to two grants per input
// port and per output port per link-clock cycle.
//
// Output arbitration supports three modes, in priority order:
//   1. transit-over-injection priority (Sec. V-A of the paper),
//   2. age arbitration (oldest generation timestamp first; the explicit
//      fairness mechanism the paper's Sec. VI points to), and
//   3. round-robin with persistent pointers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// One allocation request: input VC head packet -> (output port, VC).
struct AllocRequest {
  PortId in_port = kInvalidPort;
  VcId in_vc = kInvalidVc;
  PortId out_port = kInvalidPort;
  VcId out_vc = kInvalidVc;
  bool is_injection = false;  ///< request comes from an injection port
  Cycle age = 0;              ///< packet generation time (age arbitration)
  bool granted = false;
};

struct AllocatorConfig {
  int iterations = 3;
  int max_grants_per_input = 2;
  int max_grants_per_output = 2;
  bool transit_priority = true;
  bool age_arbitration = false;
};

/// The working arrays of SeparableAllocator::allocate for one router
/// shape, carved out of one block. Nothing in them outlives a call (every
/// count is back at zero when allocate() returns), so all the routers
/// one thread steps share an instance. Ports are touched *sparsely* via
/// the touched lists: a cycle with a handful of requests costs a handful
/// of operations, not a full-radix scan.
class AllocatorScratch {
 public:
  /// Room for `num_inputs` x `num_outputs` ports and at most
  /// `max_requests` requests per call (a router's input-VC count: one
  /// request per non-empty VC).
  AllocatorScratch(int num_inputs, int num_outputs, int max_requests);
  AllocatorScratch(const AllocatorScratch&) = delete;
  AllocatorScratch& operator=(const AllocatorScratch&) = delete;

 private:
  friend class SeparableAllocator;

  int num_inputs_;
  int num_outputs_;
  int max_requests_;
  std::vector<int> block_;
  int* by_input_;      ///< [max_requests] request ids grouped by input
  int* in_begin_;      ///< [num_inputs] an input's first by_input_ entry
  int* in_count_;      ///< [num_inputs] its request count
  int* grants_in_;     ///< [num_inputs]
  int* touched_ins_;   ///< [num_inputs]
  int* proposals_;     ///< [num_outputs * num_inputs] per-output proposals
  int* prop_count_;    ///< [num_outputs]
  int* grants_out_;    ///< [num_outputs]
  int* touched_outs_;  ///< [num_outputs]
};

/// Persistent arbiter state (one instance per router).
class SeparableAllocator {
 public:
  SeparableAllocator(int num_inputs, int num_outputs, AllocatorConfig cfg);

  /// Marks granted requests in place, working in `scratch`. Guarantees:
  ///  - at most one grant per (in_port, in_vc) — requests are unique per VC,
  ///  - at most cfg.max_grants_per_input grants per input port,
  ///  - at most cfg.max_grants_per_output grants per output port,
  ///  - with transit_priority, an injection request is granted on an
  ///    output only in iterations where no transit request asked for it.
  /// A scratch with fewer ports, or fewer requests than `requests`
  /// holds, is a logic error.
  void allocate(std::vector<AllocRequest>& requests,
                AllocatorScratch& scratch);

  const AllocatorConfig& config() const { return cfg_; }

  /// Checkpoint the persistent arbiter state (round-robin pointers);
  /// the scratch carries nothing across cycles.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  int num_inputs_;
  int num_outputs_;
  AllocatorConfig cfg_;
  // Persistent round-robin pointers.
  std::vector<std::uint32_t> input_rr_;
  std::vector<std::uint32_t> output_rr_;
};

}  // namespace dragonfly
