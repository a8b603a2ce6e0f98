// Name tables of the enum-typed config knobs declared in sim/config.hpp:
// the SimKernel and StopMode vocabularies.
#include "sim/config.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>

namespace dragonfly {

namespace {

/// One enum value and its knob spelling.
template <class Kind>
struct KindName {
  Kind kind;
  const char* key;
};

constexpr KindName<SimKernel> kSimKernelNames[] = {
    {SimKernel::kActive, "active"},
    {SimKernel::kScan, "scan"},
};

constexpr KindName<StopMode> kStopModeNames[] = {
    {StopMode::kFixed, "fixed"},
    {StopMode::kCi, "ci"},
};

template <class Kind, std::size_t N>
const char* kind_name(const KindName<Kind> (&names)[N], Kind kind) {
  for (const auto& n : names) {
    if (n.kind == kind) return n.key;
  }
  return "?";
}

/// Throws std::invalid_argument listing every valid spelling.
template <class Kind, std::size_t N>
Kind kind_from_string(const KindName<Kind> (&names)[N],
                      const std::string& name, const char* what) {
  std::string list;
  for (const auto& n : names) {
    if (name == n.key) return n.kind;
    if (!list.empty()) list += " | ";
    list += n.key;
  }
  throw std::invalid_argument(std::string("unknown ") + what + " \"" + name +
                              "\"; valid names: " + list);
}

}  // namespace

const char* to_string(SimKernel kernel) {
  return kind_name(kSimKernelNames, kernel);
}

SimKernel sim_kernel_from_string(const std::string& name) {
  return kind_from_string(kSimKernelNames, name, "sim kernel");
}

const char* to_string(StopMode mode) { return kind_name(kStopModeNames, mode); }

StopMode stop_mode_from_string(const std::string& name) {
  return kind_from_string(kStopModeNames, name, "stop mode");
}

}  // namespace dragonfly
