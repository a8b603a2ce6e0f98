// Binary checkpoint streams for Session::checkpoint()/restore().
//
// The format (v8) is a flat byte stream: integers as LEB128 varints
// (zigzag-mapped when signed), IEEE doubles and RNG state words as 8 raw
// little-endian bytes (they are full-entropy, a varint would only grow
// them), length-prefixed strings, and section tags. Only *mutable*
// simulation state is serialized — wiring, topology and capacities are
// reconstructed deterministically from the SimConfig embedded in the
// stream, so the format stays small and a version bump invalidates old
// files loudly instead of misreading them. The reader accepts exactly
// what the writer emits: a varint longer than 10 bytes, a non-minimal
// encoding or a value wider than the field's declared type is refused
// as `checkpoint: ...`, and so is a bool byte other than 0 or 1, so a
// restore followed by a save writes the same bytes.
//
// Both ends work on an in-memory byte buffer: the writer appends to a
// std::string and the reader walks a std::string_view, so a primitive
// costs a bounds check and a few byte stores instead of a stream call.
// Files and std::streams are touched once per checkpoint, by
// Session::checkpoint()/restore(). A finished stream ends in an
// integrity trailer (seal()/unseal()): its length and its
// checkpoint_digest().
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
#include <limits>
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

/// The field types whose declaration fixes their wire form: bool and
/// uint8 (one raw byte), 32- and 64-bit integers (varints, zigzag when
/// signed; the reader refuses a value wider than the type), double (8
/// raw bytes). Any other field (a 16-bit counter, an enum) names its
/// wire type with `ck.field(v, wire<W>)`.
template <class T>
inline constexpr bool kNativeWire =
    std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
    std::is_same_v<T, double> ||
    (std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
template <class W>
struct Wire {};
template <class W>
inline constexpr Wire<W> wire{};

/// Bytes of the integrity trailer a sealed stream ends with: the length
/// of everything before it, then the checkpoint_digest() of everything
/// before the digest (the body and that length), each as 8 raw
/// little-endian bytes.
inline constexpr std::size_t kTrailerBytes = 16;

/// The trailer's 64-bit digest of `bytes`, in one pass. Four chains
/// `lane = (lane ^ w) * P` take consecutive little-endian 8-byte words
/// in turn (word k feeds lane k % 4); the bytes after the last whole
/// word fold into the next lane one at a time; the lanes are then
/// combined with the length and the result avalanched. Every step is a
/// bijection of the value it updates, so a change confined to one
/// aligned word (or one tail byte) always changes the digest. The words
/// are assembled from bytes: the digest does not depend on the host's
/// byte order.
std::uint64_t checkpoint_digest(std::string_view bytes);

/// Appends primitives to an in-memory byte buffer.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) {
    *room(1) = static_cast<char>(v);
    len_ += 1;
  }
  void u32(std::uint32_t v) { varint(v); }
  void u64(std::uint64_t v) { varint(v); }
  void i32(std::int32_t v) { varint(zigzag(v)); }
  void i64(std::int64_t v) { varint(zigzag(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    // Bit-exact round trip: transport the IEEE-754 representation.
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    le64(bits);
  }
  void str(std::string_view v) {
    u64(v.size());
    raw(v);
  }
  /// Fixed-width little-endian words and raw bytes, for the parts of a
  /// stream whose layout no format version may change (the header, the
  /// trailer).
  void le32(std::uint32_t v) { le<4>(v); }
  void le64(std::uint64_t v) { le<8>(v); }
  void raw(std::string_view v) {
    std::memcpy(room(v.size()), v.data(), v.size());
    len_ += v.size();
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

  /// One field in the wire form its declared type names (kNativeWire),
  /// a length-prefixed string, or any type with save()/load().
  template <class T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(kNativeWire<T>, "name this field's width: wire<W>");
      if constexpr (sizeof(T) == 1) {
        u8(static_cast<std::uint8_t>(v));
      } else if constexpr (std::is_signed_v<T>) {
        varint(zigzag(v));
      } else {
        varint(v);
      }
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
    for (const std::uint64_t word : r.state()) le64(word);
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

  /// Ends the stream with its integrity trailer (kTrailerBytes).
  void seal();

  /// The bytes written so far.
  std::string_view bytes() const { return {buf_.data(), len_}; }
  /// Hand the bytes over in a string of their own size (a cached
  /// checkpoint holds no slack); the writer is left empty.
  std::string take() {
    std::string out(bytes());
    buf_ = {};
    len_ = 0;
    return out;
  }

 private:
  /// Zigzag: small magnitudes of either sign become small varints.
  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }
  void varint(std::uint64_t v) {
    char* p = room(10);
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) p[n++] = static_cast<char>(v | 0x80);
    p[n++] = static_cast<char>(v);
    len_ += n;
  }
  template <int N, class U>
  void le(U v) {
    char* p = room(N);
    for (int i = 0; i < N; ++i) p[i] = static_cast<char>(v >> (8 * i));
    len_ += N;
  }
  /// Where the next `n` bytes go. The buffer's size is its capacity: it
  /// grows (doubling) ahead of the bytes written, so a primitive is a
  /// bounds check and plain stores.
  char* room(std::size_t n) {
    if (buf_.size() - len_ < n) [[unlikely]] grow(n);
    return buf_.data() + len_;
  }
  void grow(std::size_t n);

  std::string buf_;
  std::size_t len_ = 0;  ///< bytes written; buf_ beyond it is scratch
  PacketRefXlat pkt_xlat_;
};

/// Reads primitives written by CheckpointWriter from a byte buffer the
/// caller keeps alive. Throws std::runtime_error ("checkpoint: ...")
/// when a read runs past the end, on a malformed or too-wide varint, an
/// implausible string length, or a tag mismatch.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() {
    return static_cast<std::uint32_t>(varint(kMax<std::uint32_t>));
  }
  std::uint64_t u64() { return varint(kMax<std::uint64_t>); }
  std::int32_t i32() {
    return static_cast<std::int32_t>(unzigzag(varint(kMax<std::uint32_t>)));
  }
  std::int64_t i64() { return unzigzag(varint(kMax<std::uint64_t>)); }
  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1) [[unlikely]] not_a_bool(b);  // canonical, as varints are
    return b != 0;
  }
  double f64() {
    const std::uint64_t bits = le64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() { return std::string(str_view()); }
  std::uint32_t le32() { return le<4, std::uint32_t>(); }
  std::uint64_t le64() { return le<8, std::uint64_t>(); }
  std::string_view raw(std::size_t n) { return {take(n), n}; }

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
      using U = std::make_unsigned_t<T>;
      if constexpr (sizeof(T) == 1) {
        v = static_cast<T>(u8());
      } else if constexpr (std::is_signed_v<T>) {
        v = static_cast<T>(unzigzag(varint(kMax<U>)));
      } else {
        v = static_cast<T>(varint(kMax<U>));
      }
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
    for (std::uint64_t& word : state) word = le64();
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

  /// Checks the integrity trailer seal() wrote — the stream's length and
  /// its checkpoint_digest() — and narrows the reader to the bytes
  /// before it, so a cut or bit-flipped stream fails here, before its
  /// body is read.
  void unseal();
  /// Refuses bytes left unread (called once the last section is read).
  void expect_end() const;

  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

 private:
  template <class U>
  static constexpr std::uint64_t kMax = std::numeric_limits<U>::max();

  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
  }
  /// A varint no larger than `max`. One- and two-byte values (most ids,
  /// counts and cycle stamps) are decoded inline: every field's max is at
  /// least 2^32 - 1, so they always fit. Anything else, a non-minimal
  /// second byte of 0 included, goes to long_varint, which refuses what
  /// the writer cannot emit.
  std::uint64_t varint(std::uint64_t max) {
    const std::size_t left = data_.size() - pos_;
    if (left > 0) {
      const auto b0 = static_cast<unsigned char>(data_[pos_]);
      if (b0 < 0x80) {
        ++pos_;
        return b0;
      }
      if (left > 1) {
        const auto b1 = static_cast<unsigned char>(data_[pos_ + 1]);
        if (b1 != 0 && b1 < 0x80) {
          pos_ += 2;
          return (b0 & 0x7fu) | (std::uint64_t{b1} << 7);
        }
      }
    }
    return long_varint(max);
  }
  std::uint64_t long_varint(std::uint64_t max);
  const char* take(std::size_t n) {
    if (n > data_.size() - pos_) truncated();
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  template <int N, class U>
  U le() {
    const char* b = take(N);
    U v = 0;
    for (int i = 0; i < N; ++i) {
      v |= static_cast<U>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
  }
  [[noreturn]] static void truncated();
  [[noreturn]] static void drift(const char* what);
  [[noreturn]] static void not_a_bool(std::uint8_t b);
  /// A length-prefixed string, viewed in place.
  std::string_view str_view();

  std::string_view data_;
  std::size_t pos_ = 0;
  PacketRefXlat pkt_xlat_;
};

}  // namespace dragonfly
