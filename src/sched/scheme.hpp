// Scheduling schemes: the five evaluated in the paper (Table 2) plus an
// extension registry.
//
//   Name      Profiling  Scheduling algorithm
//   BinRan    no         random
//   BinEffi   no         minimize energy
//   ScanRan   dynamic    random
//   ScanEffi  dynamic    minimize energy
//   ScanFair  dynamic    minimize energy + balance utilization (iScope default)
//
// A scheme is a (knowledge source, placement rule) pair with a stable
// string name. The five paper schemes are baked in with fixed ids (the
// `Scheme` enumerators below, which CLI flags, sweep configs, and the
// golden result digests reference by name); further combinations -- e.g. a
// binned-knowledge Fair -- can be added at runtime through SchemeRegistry
// and then flow through scheme_from_name()/run_scheme() exactly like the
// built-ins.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/knowledge.hpp"
#include "sched/policy.hpp"

namespace iscope {

/// Scheme id. The named enumerators are the paper's five; values >= 5 are
/// runtime-registered combinations (still valid `Scheme`s -- the type is
/// an id, not a closed set).
enum class Scheme : std::uint8_t {
  kBinRan,
  kBinEffi,
  kScanRan,
  kScanEffi,
  kScanFair,
};

/// All five paper schemes in the paper's presentation order.
inline constexpr std::array<Scheme, 5> kAllSchemes = {
    Scheme::kBinRan, Scheme::kBinEffi, Scheme::kScanRan, Scheme::kScanEffi,
    Scheme::kScanFair};

/// What a scheme id resolves to.
struct SchemeInfo {
  std::string name;           ///< stable lookup key (CLI, configs, baselines)
  KnowledgeSource knowledge;  ///< kBin (static binning) or kScan (profiled)
  PlacementRule rule;         ///< placement / DVFS policy family
  /// Scheme-level feature requests, applied by run_scheme() on top of the
  /// caller's SimConfig: `thermal` turns the CRAC/recirculation model on;
  /// `sleep` enables C-state management (timeout policy unless the config
  /// already picked one). Both false for the paper five.
  bool thermal = false;
  bool sleep = false;
};

/// Process-wide scheme table: name -> (knowledge, rule) factory inputs.
/// The five paper schemes are pre-registered at ids 0-4 under their
/// historical names. Thread-safe; registered schemes are never removed, so
/// the references `info()` hands out stay valid for the process lifetime.
class SchemeRegistry {
 public:
  /// The process-wide registry (created on first use, paper schemes
  /// pre-registered).
  static SchemeRegistry& global();

  /// Register a new scheme under a unique name; returns its id. Throws
  /// InvalidArgument on a duplicate name and when the 8-bit id space is
  /// exhausted.
  Scheme register_scheme(std::string name, KnowledgeSource knowledge,
                         PlacementRule rule, bool thermal = false,
                         bool sleep = false);

  /// Resolve an id. Throws InvalidArgument for ids never registered.
  const SchemeInfo& info(Scheme scheme) const;

  /// Resolve a name (exact match). Throws InvalidArgument when unknown.
  Scheme from_name(const std::string& name) const;

  /// True when `scheme` is a registered id.
  bool known(Scheme scheme) const;

  /// All registered ids, in registration order (paper five first).
  std::vector<Scheme> all() const;

 private:
  SchemeRegistry();

  struct Impl;
  Impl* impl_;  ///< leaked on purpose: registry lives for the process
};

/// Convenience wrappers over SchemeRegistry::global(); same contracts.
const char* scheme_name(Scheme scheme);
Scheme scheme_from_name(const std::string& name);
KnowledgeSource scheme_knowledge(Scheme scheme);
PlacementRule scheme_rule(Scheme scheme);

/// True for schemes that run the in-cloud scanner.
bool scheme_uses_scan(Scheme scheme);

/// Register the thermal/sleep scheme family (idempotent, thread-safe):
/// `ScanTherm` -- scanned knowledge with recirculation-aware placement and
/// the thermal model forced on -- plus sleep-enabled variants of the paper
/// five (`BinRanSleep` ... `ScanFairSleep`). Returns ScanTherm's id; the
/// variants resolve by name. Call before scheme_from_name() on any of
/// these names (the CLI, benches, and tests do).
Scheme ensure_extended_schemes_registered();

}  // namespace iscope
