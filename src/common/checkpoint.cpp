#include "common/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

namespace dragonfly {

namespace {
constexpr std::size_t kMaxString = 1u << 20;  ///< sanity bound on lengths
constexpr int kMaxVarintBytes = 10;           ///< ceil(64 / 7)

[[noreturn]] void refuse(const std::string& why) {
  throw std::runtime_error("checkpoint: " + why);
}

/// checkpoint_digest()'s multiplier (odd, so each chain step is a
/// bijection), lane seeds and avalanche (MurmurHash3's 64-bit finalizer,
/// a bijection too).
constexpr std::uint64_t kDigestPrime = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kLaneSeed[4] = {
    0xcbf29ce484222325ull, 0x84222325cbf29ce4ull, 0x243f6a8885a308d3ull,
    0x13198a2e03707344ull};

std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// The little-endian word at `p`, whatever the host's byte order (on a
/// little-endian host the compiler folds this into one load).
std::uint64_t word_at(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}
}  // namespace

std::uint64_t checkpoint_digest(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t n = bytes.size();
  std::uint64_t lane[4] = {kLaneSeed[0], kLaneSeed[1], kLaneSeed[2],
                           kLaneSeed[3]};
  std::size_t i = 0;
  // Four independent multiply chains: one word per lane per block, so
  // the multiplies overlap instead of waiting on each other.
  for (; n - i >= 32; i += 32) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = (lane[k] ^ word_at(p + i + 8 * k)) * kDigestPrime;
    }
  }
  int k = 0;
  for (; n - i >= 8; i += 8, ++k) {
    lane[k] = (lane[k] ^ word_at(p + i)) * kDigestPrime;
  }
  for (; i < n; ++i) lane[k] = (lane[k] ^ p[i]) * kDigestPrime;
  std::uint64_t h = n;
  for (const std::uint64_t l : lane) h = (h ^ l) * kDigestPrime;
  return avalanche(h);
}

void CheckpointWriter::grow(std::size_t n) {
  buf_.resize(std::max({buf_.size() * 2, len_ + n, std::size_t{4096}}));
}

void CheckpointWriter::seal() {
  le64(len_);
  le64(checkpoint_digest(bytes()));
}

void CheckpointReader::truncated() { refuse("truncated stream"); }

void CheckpointReader::not_a_bool(std::uint8_t b) {
  refuse("bool byte " + std::to_string(b) + " (0 or 1 expected)");
}

void CheckpointReader::drift(const char* what) {
  refuse(std::string(what) + " mismatch (config drift)");
}

std::uint64_t CheckpointReader::long_varint(std::uint64_t max) {
  std::uint64_t v = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    const auto b = static_cast<unsigned char>(*take(1));
    const std::uint64_t bits = b & 0x7fu;
    // The tenth byte carries bit 63 alone.
    if (i == kMaxVarintBytes - 1 && bits > 1) {
      refuse("varint wider than 64 bits");
    }
    v |= bits << (7 * i);
    if (b < 0x80) {
      if (b == 0 && i > 0) refuse("non-minimal varint encoding");
      if (v > max) {
        refuse("integer " + std::to_string(v) + " wider than its field (max " +
               std::to_string(max) + ")");
      }
      return v;
    }
  }
  refuse("varint longer than " + std::to_string(kMaxVarintBytes) + " bytes");
}

void CheckpointReader::unseal() {
  if (data_.size() < kTrailerBytes) truncated();
  const std::size_t body = data_.size() - kTrailerBytes;
  CheckpointReader trailer(data_.substr(body));
  const std::uint64_t length = trailer.le64();
  if (length != body) {
    refuse("stream of " + std::to_string(body) +
           " bytes before its trailer, which records " +
           std::to_string(length) + " (cut or spliced)");
  }
  if (trailer.le64() != checkpoint_digest(data_.substr(0, body + 8))) {
    refuse("checksum mismatch (corrupt stream)");
  }
  if (pos_ > body) truncated();
  data_ = data_.substr(0, body);
}

void CheckpointReader::expect_end() const {
  if (pos_ != data_.size()) {
    refuse(std::to_string(data_.size() - pos_) +
           " byte(s) after the last section");
  }
}

std::string_view CheckpointReader::str_view() {
  const std::uint64_t n = u64();
  if (n > kMaxString) refuse("implausible string length");
  return {take(static_cast<std::size_t>(n)), static_cast<std::size_t>(n)};
}

void CheckpointReader::tag(const char* name) {
  const std::string_view got = str_view();
  if (got != name) {
    refuse("expected section \"" + std::string(name) + "\", found \"" +
           std::string(got) + "\"");
  }
}

std::uint64_t CheckpointReader::count(std::uint64_t bound, const char* what) {
  const std::uint64_t n = u64();
  if (n > bound) {
    refuse(std::string(what) + " holds " + std::to_string(n) +
           " entries, above its bound of " + std::to_string(bound));
  }
  return n;
}

}  // namespace dragonfly
