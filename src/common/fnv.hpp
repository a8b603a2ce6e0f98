// FNV-1a 64: the simulator's config hash. It keys
// SimConfig::canonical_hash/warm_hash (and so the service's caches and
// perfbench's digests) and names the golden checkpoint digests.
// Checkpoint streams are sealed by checkpoint_digest()
// (common/checkpoint.hpp), which reads a word at a time instead of a
// byte.
#pragma once

#include <cstdint>
#include <string_view>

namespace dragonfly {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ull;

/// Folds `s` into the running digest `h`; start from kFnv1a64Offset.
constexpr std::uint64_t fnv1a64(std::string_view s,
                                std::uint64_t h = kFnv1a64Offset) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace dragonfly
