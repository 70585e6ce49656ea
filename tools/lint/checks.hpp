// Check catalog for iscope_lint (DESIGN.md Sec. 13).
//
// Each check encodes one invariant the repo's headline guarantees rest on,
// as a pure function of a file's token stream -- no build, no LLVM, so the
// whole tree lints in milliseconds and the checks are unit-testable against
// fixture snippets (tests/data/lint/).
//
//   determinism  Bit-identical replay (shard/worker/telemetry/fault
//                identity suites) forbids order- and host-dependent
//                sources on simulation paths: unordered containers,
//                rand/random_device, wall clocks, parallel reductions.
//                Scope: src/ only -- benches and tests time things on
//                purpose. Host-clock telemetry spans are the canonical
//                justified suppression.
//   layering     The module DAG (common at the bottom, core at the top)
//                stays acyclic: every `#include "module/..."` must follow
//                a declared edge. Telemetry is a sink any module may
//                consume, but only from .cpp files -- a header include
//                would close a cycle through common.
//   quantity     Dimensional safety (Quantity<Dim>): `.raw()` escapes stay
//                inside the documented hot-loop files, and public headers
//                of src/power + src/energy never reintroduce suffix-typed
//                `double`s (`_w`, `_j`, ...) where a typed Watts/Joules
//                belongs.
//   telemetry    Instrumentation discipline: spans only via the
//                ISCOPE_SPAN macros (direct ScopedSpan construction skips
//                the enabled() gate), and no registry name lookups
//                (`.counter/.gauge/.histogram`) inside loop bodies --
//                lookups hash the name; loops must use cached cells.
//   suppression  Meta-check keeping the escape hatch honest: every
//                `iscope-lint: allow(<check>)` needs a justification and
//                must actually suppress something; unknown check names are
//                errors.
//
// Suppression syntax, recognized in // and /* */ comments:
//
//   code();  // iscope-lint: allow(determinism) one-line justification
//
// suppresses findings of that check on the comment's line; a comment alone
// on its line suppresses the next line instead.
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace iscope::lint {

struct Finding {
  std::string check;    ///< catalog name, e.g. "determinism"
  std::string file;     ///< path relative to the repo root
  int line = 0;         ///< 1-based
  std::string message;  ///< human diagnostic, no trailing newline
};

struct CheckInfo {
  const char* name;
  const char* summary;
};

/// The catalog, in reporting order.
const std::vector<CheckInfo>& check_catalog();

/// True when `name` names a catalog check (suppressions may only target
/// these).
bool known_check(const std::string& name);

struct AnalysisResult {
  std::vector<Finding> findings;      ///< post-suppression, sorted by line
  int suppressions_used = 0;          ///< allow() markers that fired
};

/// Lint one file. `path` is the repo-relative path and drives every scope
/// decision (module membership, header vs implementation, allowlists);
/// `content` is the file text. Pure function: no filesystem access.
AnalysisResult analyze_source(const std::string& path,
                              std::string_view content);

}  // namespace iscope::lint
