// Name tables of the enum-typed config selectors declared in
// sim/config.hpp: the deprecated RoutingKind/TrafficKind shims (each
// value maps onto a registry key and keeps its legacy display spelling)
// and the SimKernel/StopMode knob vocabularies.
#include "sim/config.hpp"

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

namespace dragonfly {

namespace {

/// One built-in enum value: the value, its canonical name (the registry
/// key for routings and traffics) and its legacy display spelling.
template <class Kind>
struct KindName {
  Kind kind;
  const char* key;
  const char* legacy;
};

constexpr KindName<RoutingKind> kRoutingNames[] = {
    {RoutingKind::kMinimal, "min", "MIN"},
    {RoutingKind::kObliviousRrg, "val-rrg", "Obl-RRG"},
    {RoutingKind::kObliviousCrg, "val-crg", "Obl-CRG"},
    {RoutingKind::kObliviousNrg, "val-nrg", "Obl-NRG"},
    {RoutingKind::kSourceRrg, "pb-rrg", "Src-RRG"},
    {RoutingKind::kSourceCrg, "pb-crg", "Src-CRG"},
    {RoutingKind::kInTransitRrg, "par-rrg", "In-Trns-RRG"},
    {RoutingKind::kInTransitCrg, "par-crg", "In-Trns-CRG"},
    {RoutingKind::kInTransitMm, "par-mm", "In-Trns-MM"},
    {RoutingKind::kUgalRrg, "ugal-rrg", "UGAL-RRG"},
    {RoutingKind::kUgalCrg, "ugal-crg", "UGAL-CRG"},
};

constexpr KindName<TrafficKind> kTrafficNames[] = {
    {TrafficKind::kUniform, "uniform", "UN"},
    {TrafficKind::kAdversarial, "adv", "ADV"},
    {TrafficKind::kAdvConsecutive, "advc", "ADVc"},
    {TrafficKind::kPlacement, "placement", "placement"},
    {TrafficKind::kShift, "shift", "shift"},
    {TrafficKind::kHotspot, "hotspot", "hotspot"},
};

constexpr KindName<SimKernel> kSimKernelNames[] = {
    {SimKernel::kActive, "active", "active"},
    {SimKernel::kScan, "scan", "scan"},
};

constexpr KindName<StopMode> kStopModeNames[] = {
    {StopMode::kFixed, "fixed", "fixed"},
    {StopMode::kCi, "ci", "ci"},
};

template <class Kind, std::size_t N>
const char* kind_name(const KindName<Kind> (&names)[N], Kind kind,
                      bool legacy) {
  for (const auto& n : names) {
    if (n.kind == kind) return legacy ? n.legacy : n.key;
  }
  return "?";
}

template <class Kind, std::size_t N>
std::optional<Kind> try_kind(const KindName<Kind> (&names)[N],
                             const std::string& name) {
  for (const auto& n : names) {
    if (name == n.key || name == n.legacy) return n.kind;
  }
  return std::nullopt;
}

/// Throws std::invalid_argument listing every valid spelling.
template <class Kind, std::size_t N>
Kind kind_from_string(const KindName<Kind> (&names)[N],
                      const std::string& name, const char* what) {
  if (const auto kind = try_kind(names, name)) return *kind;
  std::string list;
  for (const auto& n : names) {
    if (!list.empty()) list += " | ";
    list += n.key;
    if (std::string(n.key) != n.legacy) {
      list += std::string(" (") + n.legacy + ")";
    }
  }
  throw std::invalid_argument(std::string("unknown ") + what + " \"" + name +
                              "\"; valid names: " + list);
}

}  // namespace

const char* to_string(RoutingKind kind) {
  return kind_name(kRoutingNames, kind, /*legacy=*/true);
}

const char* registry_key(RoutingKind kind) {
  return kind_name(kRoutingNames, kind, /*legacy=*/false);
}

std::optional<RoutingKind> try_routing_kind(const std::string& name) {
  return try_kind(kRoutingNames, name);
}

RoutingKind routing_kind_from_string(const std::string& name) {
  return kind_from_string(kRoutingNames, name, "routing kind");
}

bool is_oblivious(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kMinimal:
    case RoutingKind::kObliviousRrg:
    case RoutingKind::kObliviousCrg:
    case RoutingKind::kObliviousNrg:
      return true;
    default:
      return false;
  }
}

bool is_source_adaptive(RoutingKind kind) {
  return kind == RoutingKind::kSourceRrg || kind == RoutingKind::kSourceCrg ||
         kind == RoutingKind::kUgalRrg || kind == RoutingKind::kUgalCrg;
}

bool is_in_transit(RoutingKind kind) {
  return kind == RoutingKind::kInTransitRrg ||
         kind == RoutingKind::kInTransitCrg ||
         kind == RoutingKind::kInTransitMm;
}

const char* to_string(TrafficKind kind) {
  return kind_name(kTrafficNames, kind, /*legacy=*/true);
}

const char* registry_key(TrafficKind kind) {
  return kind_name(kTrafficNames, kind, /*legacy=*/false);
}

std::optional<TrafficKind> try_traffic_kind(const std::string& name) {
  return try_kind(kTrafficNames, name);
}

TrafficKind traffic_kind_from_string(const std::string& name) {
  return kind_from_string(kTrafficNames, name, "traffic kind");
}

const char* to_string(SimKernel kernel) {
  return kind_name(kSimKernelNames, kernel, /*legacy=*/false);
}

SimKernel sim_kernel_from_string(const std::string& name) {
  return kind_from_string(kSimKernelNames, name, "sim kernel");
}

const char* to_string(StopMode mode) {
  return kind_name(kStopModeNames, mode, /*legacy=*/false);
}

StopMode stop_mode_from_string(const std::string& name) {
  return kind_from_string(kStopModeNames, name, "stop mode");
}

}  // namespace dragonfly
