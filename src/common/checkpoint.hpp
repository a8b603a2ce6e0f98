// Binary checkpoint streams for Session::checkpoint()/restore().
//
// The format is a flat little-endian byte stream: fixed-width integers,
// IEEE doubles, length-prefixed strings, and section tags. Only *mutable*
// simulation state is serialized — wiring, topology and capacities are
// reconstructed deterministically from the SimConfig embedded in the
// stream, so the format stays small and a version bump invalidates old
// files loudly instead of misreading them.
//
// Both ends work on an in-memory byte buffer: the writer appends to a
// std::string and the reader walks a std::string_view, so a primitive
// costs a bounds check and a few byte stores instead of a stream call.
// Files and std::streams are touched once per checkpoint, by
// Session::checkpoint()/restore().
//
// Each checkpointed type lists its fields once, in a static
// `walk(self, ck)` template in its own .cpp that save() and load() both
// run: the writer and the reader offer the same verbs (field, pkt, rng,
// seq, bounded, fixed), so one list of calls writes the stream on one
// and reads it back on the other. load() does its load-only work
// (bounds, re-derived state) after the walk.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ring.hpp"

namespace dragonfly {

/// Translates a packet reference while a checkpoint stream is written or
/// read. Since format v4, packet references are serialized as *canonical
/// indices* (the packet's position in the arena's canonical traversal
/// order) instead of raw arena slots, making streams independent of the
/// arena partition (sim.shards) and of free-list history. The Network
/// installs the translator on the writer/reader before serializing the
/// structures that hold references; negative refs (kNoPacket) pass
/// through untranslated.
using PacketRefXlat = std::function<std::int32_t(std::int32_t)>;

/// The field types whose declaration fixes their wire width: bool and
/// uint8 (u8), 32- and 64-bit integers (i32/u32/i64/u64), double (f64).
/// Any other field (a 16-bit counter, an enum) names its width with
/// `ck.field(v, wire<W>)`.
template <class T>
inline constexpr bool kNativeWire =
    std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
    std::is_same_v<T, double> ||
    (std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
template <class W>
struct Wire {};
template <class W>
inline constexpr Wire<W> wire{};

/// Appends primitives to an in-memory byte buffer.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put<4>(v); }
  void u64(std::uint64_t v) { put<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    // Bit-exact round trip: transport the IEEE-754 representation.
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view v) {
    u64(v.size());
    buf_.append(v);
  }

  /// Section tag: a small string marker checked on read, so a drifted
  /// save/load pair fails at the section boundary, not megabytes later.
  void tag(const char* name) { str(name); }

  /// Serialize a packet reference through the installed translator (raw
  /// when none is installed — standalone fixtures).
  void pkt(std::int32_t ref) {
    i32(pkt_xlat_ && ref >= 0 ? pkt_xlat_(ref) : ref);
  }
  void set_packet_xlat(PacketRefXlat fn) { pkt_xlat_ = std::move(fn); }

  /// One field at the wire width its declared type names (kNativeWire),
  /// a length-prefixed string, or any type with save()/load().
  template <class T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(kNativeWire<T>, "name this field's width: wire<W>");
      put<sizeof(T)>(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else {
      v.save(*this);
    }
  }
  template <class T, class W>
  void field(const T& v, Wire<W>) {
    field(static_cast<W>(v));
  }

  /// A generator's four xoshiro state words.
  template <class R>
  void rng(const R& r) {
    for (const std::uint64_t word : r.state()) u64(word);
  }

  /// A sequence: its length (u64 unless `len` names a width), then each
  /// element through `each` (field() when omitted).
  template <class C, class Each, class N = std::uint64_t>
  void seq(const C& c, Each&& each, Wire<N> len = {}) {
    field(c.size(), len);
    for (const auto& item : c) each(item);
  }
  template <class C>
  void seq(const C& c) {
    seq(c, [this](const auto& item) { field(item); });
  }
  /// Sequences whose stored length the reader checks (see there).
  template <class C, class Each>
  void bounded(const C& c, std::uint64_t, const char*, Each&& each) {
    seq(c, each);
  }
  template <class C>
  void fixed(const C& c, const char*) {
    seq(c);
  }

  /// The bytes written so far.
  const std::string& bytes() const { return buf_; }
  /// Hand the buffer over (the writer is left empty).
  std::string take() { return std::exchange(buf_, {}); }

 private:
  template <int N, class U>
  void put(U v) {
    char b[N];
    for (int i = 0; i < N; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, N);
  }

  std::string buf_;
  PacketRefXlat pkt_xlat_;
};

/// Reads primitives written by CheckpointWriter from a byte buffer the
/// caller keeps alive. Throws std::runtime_error when a read runs past
/// the end, on an implausible string length, or on a tag mismatch.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() { return get<4, std::uint32_t>(); }
  std::uint64_t u64() { return get<8, std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() { return std::string(str_view()); }

  void tag(const char* name);

  /// An element count (u64) that may not exceed `bound`: a fixed-size
  /// container refuses a longer stored length before reading any entry.
  /// `what` names the container in the error.
  std::uint64_t count(std::uint64_t bound, const char* what);

  /// Read a packet reference through the installed translator (raw when
  /// none is installed — standalone fixtures).
  std::int32_t pkt() {
    const std::int32_t ref = i32();
    return pkt_xlat_ && ref >= 0 ? pkt_xlat_(ref) : ref;
  }
  void pkt(std::int32_t& ref) { ref = pkt(); }
  void set_packet_xlat(PacketRefXlat fn) { pkt_xlat_ = std::move(fn); }

  /// The CheckpointWriter verbs' readers: same names, same wire.
  template <class T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(kNativeWire<T>, "name this field's width: wire<W>");
      v = static_cast<T>(get<sizeof(T), std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = str();
    } else {
      v.load(*this);
    }
  }
  template <class T, class W>
  void field(T& v, Wire<W>) {
    W stored{};
    field(stored);
    v = static_cast<T>(stored);
  }

  template <class R>
  void rng(R& r) {
    std::array<std::uint64_t, 4> state;
    for (std::uint64_t& word : state) word = u64();
    r.set_state(state);
  }

  template <class T, class Each, class N = std::uint64_t>
  void seq(std::vector<T>& v, Each&& each, Wire<N> = {}) {
    N stored{};
    field(stored);
    const std::uint64_t n = stored;
    v.clear();
    // Cap the up-front reservation: a corrupt length field must fail as
    // a truncated-stream error a few reads later, not as an OOM-scale
    // allocation attempt here. Genuine oversized vectors still grow.
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
    for (std::uint64_t i = 0; i < n; ++i) each(v.emplace_back());
  }
  template <class T>
  void seq(std::vector<T>& v) {
    seq(v, [this](T& item) { field(item); });
  }
  /// A queue of at most `bound` entries (count() refuses more).
  template <class T, class Each>
  void bounded(Ring<T>& r, std::uint64_t bound, const char* what,
               Each&& each) {
    const std::uint64_t n = count(bound, what);
    r.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T item{};
      each(item);
      r.push_back(item);
    }
  }
  /// A sequence whose length the config fixes, read in place; any other
  /// stored length is config drift (`what` names it).
  template <class C>
  void fixed(C&& c, const char* what) {
    if (u64() != std::size(c)) drift(what);
    for (auto& item : c) field(item);
  }

  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

 private:
  const char* take(std::size_t n) {
    if (n > data_.size() - pos_) truncated();
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  template <int N, class U>
  U get() {
    const char* b = take(N);
    U v = 0;
    for (int i = 0; i < N; ++i) {
      v |= static_cast<U>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
  }
  [[noreturn]] static void truncated();
  [[noreturn]] static void drift(const char* what);
  /// A length-prefixed string, viewed in place.
  std::string_view str_view();

  std::string_view data_;
  std::size_t pos_ = 0;
  PacketRefXlat pkt_xlat_;
};

}  // namespace dragonfly
