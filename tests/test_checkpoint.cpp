// The checkpoint wire (format v8): integers as LEB128 varints, signed
// ones zigzag-mapped; doubles and RNG words as 8 raw bytes; a trailer of
// the length and checkpoint_digest(). The reader accepts exactly what
// the writer emits, so a restore followed by a save writes the same
// bytes, and refuses anything else as `checkpoint: ...`.
#include "common/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace dragonfly {
namespace {

/// what() of the runtime_error `read` throws on `bytes`.
template <class Read>
std::string read_error(const std::string& bytes, Read read) {
  CheckpointReader ck(bytes);
  try {
    read(ck);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "read without error";
}

/// Bytes `write` puts on the wire.
template <class Write>
std::string wire_of(Write write) {
  CheckpointWriter ck;
  write(ck);
  return ck.take();
}

TEST(CheckpointWire, IntegersRoundTripAtTheirExtremes) {
  using I32 = std::numeric_limits<std::int32_t>;
  using I64 = std::numeric_limits<std::int64_t>;
  const std::uint32_t u32s[] = {0u, 127u, 128u, ~0u};
  const std::uint64_t u64s[] = {0u, std::uint64_t{1} << 63, ~std::uint64_t{0}};
  const std::int32_t i32s[] = {0, -1, 1, -64, 64, I32::min(), I32::max()};
  const std::int64_t i64s[] = {-1, I64::min(), I64::max()};
  CheckpointWriter w;
  for (const auto v : u32s) w.u32(v);
  for (const auto v : u64s) w.u64(v);
  for (const auto v : i32s) w.i32(v);
  for (const auto v : i64s) w.i64(v);
  w.f64(-0.0);
  w.str("tag");

  CheckpointReader r(w.bytes());
  for (const auto v : u32s) EXPECT_EQ(r.u32(), v);
  for (const auto v : u64s) EXPECT_EQ(r.u64(), v);
  for (const auto v : i32s) EXPECT_EQ(r.i32(), v);
  for (const auto v : i64s) EXPECT_EQ(r.i64(), v);
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_EQ(r.str(), "tag");
  EXPECT_EQ(r.offset(), w.bytes().size());
}

TEST(CheckpointWire, SmallValuesTakeOneByteAndWordsStayRaw) {
  EXPECT_EQ(wire_of([](auto& ck) { ck.u64(127); }).size(), 1u);
  EXPECT_EQ(wire_of([](auto& ck) { ck.u64(128); }), "\x80\x01");
  EXPECT_EQ(wire_of([](auto& ck) { ck.i32(-1); }), "\x01");
  EXPECT_EQ(wire_of([](auto& ck) { ck.i32(-64); }).size(), 1u);
  EXPECT_EQ(wire_of([](auto& ck) { ck.u64(~std::uint64_t{0}); }).size(), 10u);
  EXPECT_EQ(wire_of([](auto& ck) { ck.f64(0.0); }).size(), 8u);
  EXPECT_EQ(wire_of([](auto& ck) { ck.rng(Rng(1)); }).size(), 32u);
  // field() picks the wire from the declared type.
  const std::int64_t cycle = -3;
  const std::uint8_t flag = 200;
  EXPECT_EQ(wire_of([&](auto& ck) { ck.field(cycle); }), "\x05");
  EXPECT_EQ(wire_of([&](auto& ck) { ck.field(flag); }), "\xc8");
}

TEST(CheckpointWire, RefusesAVarintLongerThanTenBytes) {
  const std::string eleven = std::string(10, '\x80') + '\x00';
  EXPECT_EQ(read_error(eleven, [](auto& ck) { ck.u64(); }),
            "checkpoint: varint longer than 10 bytes");
  // Ten bytes whose last one sets bits past 63.
  const std::string wide = std::string(9, '\xff') + '\x02';
  EXPECT_EQ(read_error(wide, [](auto& ck) { ck.u64(); }),
            "checkpoint: varint wider than 64 bits");
}

TEST(CheckpointWire, RefusesANonMinimalEncoding) {
  for (const std::string& bytes :
       {std::string("\x80\x00", 2), std::string("\xff\x00", 2),
        std::string("\x80\x81\x00", 3)}) {
    EXPECT_EQ(read_error(bytes, [](auto& ck) { ck.u64(); }),
              "checkpoint: non-minimal varint encoding");
  }
}

TEST(CheckpointWire, RefusesAValueWiderThanItsField) {
  const std::string two_32 =
      wire_of([](auto& ck) { ck.u64(std::uint64_t{1} << 32); });
  EXPECT_EQ(read_error(two_32, [](auto& ck) { ck.u32(); }),
            "checkpoint: integer 4294967296 wider than its field (max "
            "4294967295)");
  std::uint32_t u = 0;
  EXPECT_NE(read_error(two_32, [&](auto& ck) { ck.field(u); }),
            "read without error");
  // 2^31 and -2^31 - 1 fit an i64 but not an i32.
  constexpr std::int64_t kTwo31 = std::int64_t{1} << 31;
  for (const std::int64_t v : {kTwo31, -kTwo31 - 1}) {
    const std::string bytes = wire_of([&](auto& ck) { ck.i64(v); });
    EXPECT_EQ(read_error(bytes, [](auto& ck) { ck.i32(); })
                  .rfind("checkpoint: integer ", 0),
              0u)
        << v;
    std::int32_t i = 0;
    EXPECT_NE(read_error(bytes, [&](auto& ck) { ck.field(i); }),
              "read without error");
  }
  // A wire<W> field is held to W.
  int narrow = 0;
  EXPECT_NE(read_error(two_32, [&](auto& ck) {
              ck.field(narrow, wire<std::uint32_t>);
            }),
            "read without error");
}

TEST(CheckpointWire, RefusesABoolByteOtherThanZeroOrOne) {
  EXPECT_EQ(read_error("\x02", [](auto& ck) { ck.boolean(); }),
            "checkpoint: bool byte 2 (0 or 1 expected)");
  bool flag = false;
  EXPECT_NE(read_error("\xff", [&](auto& ck) { ck.field(flag); }),
            "read without error");
}

TEST(CheckpointWire, RefusesACutVarint) {
  EXPECT_EQ(read_error("", [](auto& ck) { ck.u64(); }),
            "checkpoint: truncated stream");
  EXPECT_EQ(read_error("\x80", [](auto& ck) { ck.u64(); }),
            "checkpoint: truncated stream");
}

TEST(CheckpointWire, SealedStreamsUnsealToTheirBody) {
  CheckpointWriter w;
  w.str("body");
  const std::string body(w.bytes());
  w.seal();
  const std::string sealed = w.take();
  ASSERT_EQ(sealed.size(), body.size() + kTrailerBytes);
  CheckpointReader r(sealed);
  r.unseal();
  EXPECT_EQ(r.str(), "body");
  r.expect_end();
  EXPECT_THROW(r.u8(), std::runtime_error);  // the trailer is not body
}

/// `n` bytes of a fixed pseudo-random sequence.
std::string noise(std::size_t n) {
  Rng rng(n + 1);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.next());
  return bytes;
}

TEST(CheckpointDigest, EveryOneBitFlipChangesTheDigest) {
  // Lengths 0..300 put a flip in every lane of a 32-byte block, in the
  // whole words after the last block and in every tail position.
  for (std::size_t n = 0; n <= 300; ++n) {
    std::string bytes = noise(n);
    const std::uint64_t clean = checkpoint_digest(bytes);
    for (std::size_t at = 0; at < n; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        ASSERT_NE(checkpoint_digest(bytes), clean)
            << "length " << n << ", bit " << bit << " of byte " << at;
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      }
    }
  }
}

TEST(CheckpointDigest, DroppingOrAppendingAByteChangesTheDigest) {
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::string bytes = noise(n);
    const std::uint64_t clean = checkpoint_digest(bytes);
    for (std::size_t at = 0; at < n; ++at) {
      std::string dropped = bytes;
      dropped.erase(at, 1);
      ASSERT_NE(checkpoint_digest(dropped), clean)
          << "length " << n << ", byte " << at << " dropped";
    }
    for (const char extra : {'\0', '\x5a', '\xff'}) {
      ASSERT_NE(checkpoint_digest(bytes + extra), clean)
          << "length " << n << ", byte " << int{extra} << " appended";
    }
  }
}

}  // namespace
}  // namespace dragonfly
