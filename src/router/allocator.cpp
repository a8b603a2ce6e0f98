#include "router/allocator.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace dragonfly {

void SeparableAllocator::save(CheckpointWriter& ck) const {
  ck.vec(input_rr_, [&](std::uint32_t v) { ck.u32(v); });
  ck.vec(output_rr_, [&](std::uint32_t v) { ck.u32(v); });
}

void SeparableAllocator::load(CheckpointReader& ck) {
  const std::size_t in = input_rr_.size();
  const std::size_t out = output_rr_.size();
  ck.vec(input_rr_, [&] { return ck.u32(); });
  ck.vec(output_rr_, [&] { return ck.u32(); });
  if (input_rr_.size() != in || output_rr_.size() != out) {
    throw std::runtime_error(
        "checkpoint: allocator port count mismatch (config drift)");
  }
}

SeparableAllocator::SeparableAllocator(int num_inputs, int num_outputs,
                                       AllocatorConfig cfg)
    : num_inputs_(num_inputs),
      num_outputs_(num_outputs),
      cfg_(cfg),
      input_rr_(static_cast<std::size_t>(num_inputs), 0),
      output_rr_(static_cast<std::size_t>(num_outputs), 0) {}

AllocatorScratch::AllocatorScratch(int num_inputs, int num_outputs,
                                   int max_requests)
    : num_inputs_(num_inputs),
      num_outputs_(num_outputs),
      max_requests_(max_requests),
      block_(static_cast<std::size_t>(max_requests + 4 * num_inputs +
                                      (3 + num_inputs) * num_outputs),
             0) {
  int* next = block_.data();
  auto carve = [&next](int n) {
    int* slice = next;
    next += n;
    return slice;
  };
  by_input_ = carve(max_requests);
  in_begin_ = carve(num_inputs);
  in_count_ = carve(num_inputs);
  grants_in_ = carve(num_inputs);
  touched_ins_ = carve(num_inputs);
  proposals_ = carve(num_outputs * num_inputs);
  prop_count_ = carve(num_outputs);
  grants_out_ = carve(num_outputs);
  touched_outs_ = carve(num_outputs);
}

void SeparableAllocator::allocate(std::vector<AllocRequest>& requests,
                                  AllocatorScratch& scratch) {
  if (requests.empty()) return;  // persistent pointers untouched

  // A lone request short-circuits the whole iterate/propose/arbitrate
  // machinery: with grant budgets >= 1 the full algorithm always grants
  // it on the first iteration (it is its input's only proposal and its
  // output's only proposer, and neither the transit-priority filter nor
  // either arbitration flavour can reject a sole candidate), and the
  // scratch is left as a full pass leaves it (all counts zero). Only the
  // round-robin pointers move, in the same way the grant path moves
  // them — so this is bit-identical, and it covers the majority of
  // saturated-load calls (most active routers arbitrate one head).
  if (requests.size() == 1 && cfg_.iterations >= 1 &&
      cfg_.max_grants_per_input >= 1 && cfg_.max_grants_per_output >= 1) {
    AllocRequest& req = requests[0];
    req.granted = true;
    input_rr_[static_cast<std::size_t>(req.in_port)] += 1;
    if (!cfg_.age_arbitration) {
      output_rr_[static_cast<std::size_t>(req.out_port)] =
          (static_cast<std::uint32_t>(req.in_port) + 1) %
          static_cast<std::uint32_t>(num_inputs_);
    }
    return;
  }

  if (scratch.num_inputs_ < num_inputs_ ||
      scratch.num_outputs_ < num_outputs_ ||
      static_cast<int>(requests.size()) > scratch.max_requests_) {
    throw std::logic_error("SeparableAllocator: scratch too small");
  }
  int* const by_input = scratch.by_input_;
  int* const in_begin = scratch.in_begin_;
  int* const in_count = scratch.in_count_;
  int* const grants_in = scratch.grants_in_;
  int* const touched_ins = scratch.touched_ins_;
  int* const proposals = scratch.proposals_;
  int* const prop_count = scratch.prop_count_;
  int* const grants_out = scratch.grants_out_;
  int* const touched_outs = scratch.touched_outs_;
  const int stride = scratch.num_inputs_;  // proposals per output

  // Sparse request indexing: only the input/output ports that actually
  // appear in `requests` are cleared, reset and iterated below. The
  // touched lists are sorted so both stages visit ports in ascending
  // id order — the order the old dense 0..radix scans produced — which
  // keeps proposal order (and hence age-arbitration tie-breaks and
  // round-robin updates) bit-identical. Each input's requests are
  // grouped by a stable counting sort, so they keep request order.
  int n_ins = 0;
  for (const AllocRequest& req : requests) {
    if (in_count[req.in_port]++ == 0) {
      touched_ins[n_ins++] = req.in_port;
      grants_in[req.in_port] = 0;
    }
    grants_out[req.out_port] = 0;
  }
  std::sort(touched_ins, touched_ins + n_ins);
  int next = 0;
  for (int k = 0; k < n_ins; ++k) {
    const int in = touched_ins[k];
    in_begin[in] = next;
    next += in_count[in];
    in_count[in] = 0;
  }
  for (int i = 0; i < static_cast<int>(requests.size()); ++i) {
    const int in = requests[static_cast<std::size_t>(i)].in_port;
    by_input[in_begin[in] + in_count[in]++] = i;
  }

  int n_outs = 0;
  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    for (int k = 0; k < n_outs; ++k) prop_count[touched_outs[k]] = 0;
    n_outs = 0;

    // Input stage: each requesting input port proposes one still-valid
    // request, chosen by a persistent round-robin pointer over its VCs.
    for (int k = 0; k < n_ins; ++k) {
      const int in = touched_ins[k];
      if (grants_in[in] >= cfg_.max_grants_per_input) continue;
      const int* cand = by_input + in_begin[in];
      const auto n = static_cast<std::uint32_t>(in_count[in]);
      const std::uint32_t start = input_rr_[static_cast<std::size_t>(in)];
      for (std::uint32_t step = 0; step < n; ++step) {
        const int idx = cand[(start + step) % n];
        const auto& req = requests[static_cast<std::size_t>(idx)];
        if (req.granted) continue;
        const int out = req.out_port;
        if (grants_out[out] >= cfg_.max_grants_per_output) continue;
        if (prop_count[out] == 0) touched_outs[n_outs++] = out;
        proposals[out * stride + prop_count[out]++] = idx;
        break;  // one proposal per input port per iteration
      }
    }
    std::sort(touched_outs, touched_outs + n_outs);

    // Output stage: each proposed-to output port picks one winner.
    for (int k = 0; k < n_outs; ++k) {
      const int out = touched_outs[k];
      int* props = proposals + out * stride;
      int* props_end = props + prop_count[out];

      if (cfg_.transit_priority && !cfg_.age_arbitration) {
        // Age arbitration supersedes the priority classes: it *is* the
        // explicit fairness mechanism (oldest packet wins regardless of
        // transit/injection class), per Abts & Weisser.
        // If any transit (non-injection) request wants this output,
        // injection requests are not eligible this iteration.
        const auto injection = [&](int idx) {
          return requests[static_cast<std::size_t>(idx)].is_injection;
        };
        if (!std::all_of(props, props_end, injection)) {
          props_end = std::remove_if(props, props_end, injection);
        }
      }

      int winner = -1;
      if (cfg_.age_arbitration) {
        // Oldest packet first (minimum generation timestamp).
        for (const int* it = props; it != props_end; ++it) {
          if (winner < 0 || requests[static_cast<std::size_t>(*it)].age <
                                requests[static_cast<std::size_t>(winner)].age) {
            winner = *it;
          }
        }
      } else {
        // Round-robin over input-port index with a persistent pointer.
        const std::uint32_t ptr = output_rr_[static_cast<std::size_t>(out)];
        std::uint32_t best_dist = ~0u;
        for (const int* it = props; it != props_end; ++it) {
          const auto in = static_cast<std::uint32_t>(
              requests[static_cast<std::size_t>(*it)].in_port);
          const std::uint32_t dist =
              (in + static_cast<std::uint32_t>(num_inputs_) - ptr) %
              static_cast<std::uint32_t>(num_inputs_);
          if (dist < best_dist) {
            best_dist = dist;
            winner = *it;
          }
        }
      }
      if (winner < 0) continue;

      auto& req = requests[static_cast<std::size_t>(winner)];
      req.granted = true;
      ++grants_in[req.in_port];
      ++grants_out[out];
      input_rr_[static_cast<std::size_t>(req.in_port)] += 1;
      if (!cfg_.age_arbitration) {
        output_rr_[static_cast<std::size_t>(out)] =
            (static_cast<std::uint32_t>(req.in_port) + 1) %
            static_cast<std::uint32_t>(num_inputs_);
      }
    }
  }

  // Leave every count at zero for the next call, whichever router
  // makes it.
  for (int k = 0; k < n_ins; ++k) in_count[touched_ins[k]] = 0;
  for (int k = 0; k < n_outs; ++k) prop_count[touched_outs[k]] = 0;
}

}  // namespace dragonfly
