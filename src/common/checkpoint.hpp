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
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

  template <class T, class Fn>
  void vec(const std::vector<T>& v, Fn&& write_one) {
    u64(v.size());
    for (const T& item : v) write_one(item);
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

  /// Read a packet reference through the installed translator (raw when
  /// none is installed — standalone fixtures).
  std::int32_t pkt() {
    const std::int32_t ref = i32();
    return pkt_xlat_ && ref >= 0 ? pkt_xlat_(ref) : ref;
  }
  void set_packet_xlat(PacketRefXlat fn) { pkt_xlat_ = std::move(fn); }

  template <class T, class Fn>
  void vec(std::vector<T>& v, Fn&& read_one) {
    const std::uint64_t n = u64();
    v.clear();
    // Cap the up-front reservation: a corrupt length field must fail as
    // a truncated-stream error a few reads later, not as an OOM-scale
    // allocation attempt here. Genuine oversized vectors still grow.
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_one());
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
  /// A length-prefixed string, viewed in place.
  std::string_view str_view();

  std::string_view data_;
  std::size_t pos_ = 0;
  PacketRefXlat pkt_xlat_;
};

}  // namespace dragonfly
