// String-keyed factory registries: the extension surface of the
// simulator. Routing algorithms, traffic patterns and global-link
// arrangements are constructed by *name* through a Registry<T>, so new
// scenarios plug in from user code (examples, tests, applications)
// without touching the core:
//
//   traffic_registry().add("bit-reversal",
//       [](const Topology& t, const SimConfig&) {
//         return std::make_unique<BitReversal>(t);
//       });
//   cfg.traffic_name = "bit-reversal";   // resolved at Network build time
//
// Built-ins self-register from their own translation units under the
// paper's names ("min", "pb-crg", "par-mm", "advc", "palmtree", ...)
// with the paper's legend spellings ("MIN", "In-Trns-MM", ...) as aliases;
// the domain accessors (routing_registry() & co.) anchor those units so
// a static link never drops them. Unknown names fail with a diagnostic
// listing every registered name.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dragonfly {

/// String-keyed factory registry for an extension point. `Args...` are
/// the construction-context parameters every factory receives (e.g. the
/// topology and the SimConfig). Thread-safe: registration normally runs
/// at static-init or program startup, lookups run concurrently from the
/// experiment worker threads.
template <class T, class... Args>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<T>(Args...)>;

  /// `kind` names the extension point in diagnostics ("routing",
  /// "traffic pattern", "arrangement").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register `factory` under the canonical `name`, plus optional
  /// aliases (alternative spellings). Throws std::logic_error when any name
  /// is already taken — two plugins colliding on a key is a bug worth
  /// failing loudly on, not a case to silently resolve.
  void add(const std::string& name, Factory factory,
           std::vector<std::string> aliases = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    if (name.empty()) {
      throw std::logic_error(kind_ + " registry: empty name");
    }
    if (factories_.count(name) != 0 || aliases_.count(name) != 0) {
      throw std::logic_error(kind_ + " \"" + name + "\" already registered");
    }
    for (const std::string& alias : aliases) {
      if (factories_.count(alias) != 0 || aliases_.count(alias) != 0) {
        throw std::logic_error(kind_ + " alias \"" + alias +
                               "\" already registered");
      }
    }
    factories_.emplace(name, std::move(factory));
    for (std::string& alias : aliases) {
      aliases_.emplace(std::move(alias), name);
    }
  }

  /// True when `name` resolves (canonical key or alias).
  bool contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(name) != 0 || aliases_.count(name) != 0;
  }

  /// Canonical key for `name` (resolving aliases). Throws
  /// std::invalid_argument listing the valid names when unknown.
  std::string resolve(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return resolve_locked(name);
  }

  /// Construct the entry registered under `name` (canonical or alias).
  std::unique_ptr<T> create(const std::string& name, Args... args) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mu_);
      factory = factories_.at(resolve_locked(name));
    }
    // Invoke outside the lock: factories may consult the registry.
    return factory(std::forward<Args>(args)...);
  }

  /// Sorted canonical keys (aliases omitted).
  std::vector<std::string> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;  // std::map iterates in sorted order
  }

  /// Aliases registered for the canonical `name`, sorted (empty when
  /// it has none or is unknown). The built-in routings register their
  /// paper legend spelling ("par-mm" -> "In-Trns-MM").
  std::vector<std::string> aliases_of(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const auto& [alias, target] : aliases_) {
      if (target == name) out.push_back(alias);
    }
    return out;  // std::map iterates in sorted order
  }

  /// "name1 | name2 | ..." — the list unknown-name errors print.
  std::string known_names() const {
    std::lock_guard<std::mutex> lock(mu_);
    return known_names_locked();
  }

  /// RAII self-registration helper for namespace-scope statics:
  ///   const RoutingRegistry::Registrar reg{routing_registry(), "min",
  ///                                        factory, {"MIN"}};
  struct Registrar {
    Registrar(Registry& registry, const std::string& name, Factory factory,
              std::vector<std::string> aliases = {}) {
      registry.add(name, std::move(factory), std::move(aliases));
    }
  };

 private:
  std::string resolve_locked(const std::string& name) const {
    if (factories_.count(name) != 0) return name;
    const auto alias = aliases_.find(name);
    if (alias != aliases_.end()) return alias->second;
    throw std::invalid_argument("unknown " + kind_ + " \"" + name +
                                "\"; valid names: " + known_names_locked());
  }

  std::string known_names_locked() const {
    std::string out;
    for (const auto& [name, factory] : factories_) {
      if (!out.empty()) out += " | ";
      out += name;
    }
    return out.empty() ? "(none registered)" : out;
  }

  const std::string kind_;
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
  std::map<std::string, std::string> aliases_;
};

}  // namespace dragonfly
