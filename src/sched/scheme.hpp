// Scheduling schemes: a knowledge source crossed with a placement rule,
// plus the subsystem each one asks the simulator to switch on. The set is
// closed -- the paper's five (Table 2), ScanTherm, and the five paper
// schemes paired with a sleep governor in the manner of SleepScale:
//
//   Name           Profiling  Scheduling algorithm                   Requests
//   BinRan         no         random                                 -
//   BinEffi        no         minimize energy                        -
//   ScanRan        dynamic    random                                 -
//   ScanEffi       dynamic    minimize energy                        -
//   ScanFair       dynamic    minimize energy + balance utilization  -
//                             (iScope default)
//   ScanTherm      dynamic    recirculation-aware rack stripe        thermal
//   BinRanSleep    no         random                                 sleep
//   BinEffiSleep   no         minimize energy                        sleep
//   ScanRanSleep   dynamic    random                                 sleep
//   ScanEffiSleep  dynamic    minimize energy                        sleep
//   ScanFairSleep  dynamic    minimize energy + balance utilization  sleep
//
// kSchemeTable holds one row per scheme, indexed by its `Scheme` id; CLI
// flags, sweep configs and the golden result digests reference the
// schemes by these names. apply_scheme_requests() (sim/simulator.hpp)
// turns a row's requests into SimConfig settings.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sched/knowledge.hpp"
#include "sched/policy.hpp"

namespace iscope {

/// Scheme id: the index of the scheme's row in kSchemeTable.
enum class Scheme : std::uint8_t {
  kBinRan,
  kBinEffi,
  kScanRan,
  kScanEffi,
  kScanFair,
  kScanTherm,
  kBinRanSleep,
  kBinEffiSleep,
  kScanRanSleep,
  kScanEffiSleep,
  kScanFairSleep,
};

/// All five paper schemes in the paper's presentation order.
inline constexpr std::array<Scheme, 5> kAllSchemes = {
    Scheme::kBinRan, Scheme::kBinEffi, Scheme::kScanRan, Scheme::kScanEffi,
    Scheme::kScanFair};

/// One row of the scheme table.
struct SchemeInfo {
  const char* name;           ///< stable lookup key (CLI, configs, baselines)
  KnowledgeSource knowledge;  ///< kBin (static binning) or kScan (profiled)
  PlacementRule rule;         ///< placement / DVFS policy family
  /// Feature requests: `thermal` turns the CRAC/recirculation model on;
  /// `sleep` enables C-state management (timeout policy unless the config
  /// already picked one).
  bool thermal;
  bool sleep;
};

inline constexpr std::array<SchemeInfo, 11> kSchemeTable = {{
    {"BinRan", KnowledgeSource::kBin, PlacementRule::kRandom, false, false},
    {"BinEffi", KnowledgeSource::kBin, PlacementRule::kEfficiency, false,
     false},
    {"ScanRan", KnowledgeSource::kScan, PlacementRule::kRandom, false, false},
    {"ScanEffi", KnowledgeSource::kScan, PlacementRule::kEfficiency, false,
     false},
    {"ScanFair", KnowledgeSource::kScan, PlacementRule::kFair, false, false},
    {"ScanTherm", KnowledgeSource::kScan, PlacementRule::kTherm, true, false},
    {"BinRanSleep", KnowledgeSource::kBin, PlacementRule::kRandom, false,
     true},
    {"BinEffiSleep", KnowledgeSource::kBin, PlacementRule::kEfficiency, false,
     true},
    {"ScanRanSleep", KnowledgeSource::kScan, PlacementRule::kRandom, false,
     true},
    {"ScanEffiSleep", KnowledgeSource::kScan, PlacementRule::kEfficiency,
     false, true},
    {"ScanFairSleep", KnowledgeSource::kScan, PlacementRule::kFair, false,
     true},
}};
static_assert(static_cast<std::size_t>(Scheme::kScanFairSleep) + 1 ==
                  kSchemeTable.size(),
              "one table row per Scheme enumerator");

/// The row of `scheme`. Throws InvalidArgument for an id with no row.
const SchemeInfo& scheme_info(Scheme scheme);
/// Table lookups; same contract as scheme_info().
const char* scheme_name(Scheme scheme);
KnowledgeSource scheme_knowledge(Scheme scheme);
PlacementRule scheme_rule(Scheme scheme);
/// True for schemes that run the in-cloud scanner.
bool scheme_uses_scan(Scheme scheme);
/// Resolve a name (exact match). Throws InvalidArgument when unknown.
Scheme scheme_from_name(const std::string& name);

/// Scheme::kScanTherm, under the name perfbench/hyperscale.cpp calls.
inline Scheme ensure_extended_schemes_registered() {
  return Scheme::kScanTherm;
}

}  // namespace iscope
