// Fixed-capacity FIFO ring over caller-owned power-of-two storage.
//
// The three hottest queues in the cycle kernel — input-VC FIFOs, output
// transmit queues and node source queues — are strict FIFOs of small
// trivially-copyable records whose depth the config bounds (buffer
// capacity in packets, the source-queue cap). std::deque pays block-map
// indirection and boundary branches on every push/pop; this ring is an
// index increment and a mask. It never allocates: the owner carves
// `slots(capacity)` elements for it out of one array at build time (see
// DESIGN.md "Memory layout"), and a push past `capacity` is a logic
// error, like the credit overflow the owners already check for.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>

namespace dragonfly {

template <typename T>
class Ring {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Ring* ring, std::uint32_t pos)
        : ring_(ring), pos_(pos) {}
    reference operator*() const {
      return ring_->buf_[(ring_->head_ + pos_) & ring_->mask_];
    }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++pos_;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    const Ring* ring_ = nullptr;
    std::uint32_t pos_ = 0;
  };

  /// Storage elements a ring of `capacity` needs: the next power of two.
  static std::size_t slots(std::size_t capacity) {
    return std::bit_ceil(capacity);
  }

  /// A ring that holds nothing (every push throws).
  Ring() = default;
  /// A view over `slots(capacity)` elements at `storage`, holding at most
  /// `capacity` of them.
  Ring(T* storage, std::size_t capacity)
      : buf_(storage),
        cap_(static_cast<std::uint32_t>(capacity)),
        mask_(static_cast<std::uint32_t>(slots(capacity) - 1)) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  const T& front() const { return buf_[head_]; }
  T& front() { return buf_[head_]; }
  /// Element `i` positions behind the head (0 == front).
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& v) {
    if (size_ == cap_) [[unlikely]] {
      throw std::logic_error("Ring overflow: push past the configured bound");
    }
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  T* buf_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace dragonfly
