#include "common/checkpoint.hpp"

#include <stdexcept>

namespace dragonfly {

namespace {
constexpr std::size_t kMaxString = 1u << 20;  ///< sanity bound on lengths
}  // namespace

void CheckpointReader::truncated() {
  throw std::runtime_error("checkpoint: truncated stream");
}

std::string_view CheckpointReader::str_view() {
  const std::uint64_t n = u64();
  if (n > kMaxString) {
    throw std::runtime_error("checkpoint: implausible string length");
  }
  return {take(static_cast<std::size_t>(n)), static_cast<std::size_t>(n)};
}

void CheckpointReader::tag(const char* name) {
  const std::string_view got = str_view();
  if (got != name) {
    throw std::runtime_error("checkpoint: expected section \"" +
                             std::string(name) + "\", found \"" +
                             std::string(got) + "\"");
  }
}

}  // namespace dragonfly
