// Calendar queue of the cycle kernel: a power-of-two ring of FIFO
// buckets indexed by due cycle.
//
// Every delay the model schedules with is bounded by the config (link
// and credit latencies, packet serialization, the router pipeline), so
// a calendar is sized once at build time from the largest delay it will
// see and has no growth path. Its window is
// [next(), next() + horizon()]: next() is the earliest cycle not yet
// drained, and a push due outside the window throws std::logic_error —
// a due cycle in the past would be skipped and one past the horizon
// would alias an earlier bucket. Within a bucket, items keep push order,
// which is the kernel's deterministic tie-break. Buckets are reused, so
// steady-state scheduling allocates only while a bucket first grows.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dragonfly {

template <typename T>
class Calendar {
 public:
  /// Accepts items due up to `horizon` cycles past next().
  explicit Calendar(Cycle horizon = 0)
      : buckets_(std::bit_ceil(static_cast<std::size_t>(horizon) + 1)),
        mask_(buckets_.size() - 1),
        horizon_(horizon) {}

  Cycle next() const { return next_; }
  Cycle horizon() const { return horizon_; }
  bool in_window(Cycle due) const {
    // Unsigned, so a due cycle before next() wraps past any horizon and
    // no input can overflow.
    return offset(due) <= static_cast<std::uint64_t>(horizon_);
  }

  void push(Cycle due, const T& item) {
    if (!in_window(due)) [[unlikely]] {
      throw std::logic_error("calendar push due @" + std::to_string(due) +
                             " outside the window of " +
                             std::to_string(horizon_) + " cycles from @" +
                             std::to_string(next_));
    }
    bucket(due).push_back(item);
  }

  /// Hands the items due at next() to `fn` in push order, then moves the
  /// window on by one cycle. Returns how many items were handed over.
  /// `fn` may push (an item due at next() joins this drain).
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    std::vector<T>& due = bucket(next_);
    std::size_t i = 0;
    for (; i < due.size(); ++i) {
      const T item = due[i];  // a push from fn may reallocate the bucket
      fn(item);
    }
    due.clear();
    ++next_;
    return i;
  }

  /// Visits every pending item as fn(due, item): due cycles ascending,
  /// push order within a cycle.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t k = 0; k <= static_cast<std::uint64_t>(horizon_);
         ++k) {
      const auto due =
          static_cast<Cycle>(static_cast<std::uint64_t>(next_) + k);
      for (const T& item : bucket(due)) fn(due, item);
    }
  }

  /// Visits the items due at `due` in push order (none when `due` is
  /// outside the window).
  template <class Fn>
  void for_each_due(Cycle due, Fn&& fn) const {
    if (!in_window(due)) return;
    for (const T& item : bucket(due)) fn(item);
  }

  /// Drops every pending item; the window restarts at `next`.
  void reset(Cycle next) {
    for (std::vector<T>& b : buckets_) b.clear();
    next_ = next;
  }

 private:
  std::uint64_t offset(Cycle due) const {
    return static_cast<std::uint64_t>(due) - static_cast<std::uint64_t>(next_);
  }
  std::vector<T>& bucket(Cycle t) {
    return buckets_[static_cast<std::size_t>(t) & mask_];
  }
  const std::vector<T>& bucket(Cycle t) const {
    return buckets_[static_cast<std::size_t>(t) & mask_];
  }

  std::vector<std::vector<T>> buckets_;
  std::size_t mask_ = 0;
  Cycle horizon_ = 0;
  Cycle next_ = 0;
};

}  // namespace dragonfly
