#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace iscope::lint {

namespace {

// --- path classification -------------------------------------------------

struct PathInfo {
  std::string path;    ///< repo-relative, forward slashes
  std::string module;  ///< "sim" for src/sim/...; "" outside src/
  bool is_header = false;
  bool in_src = false;
};

PathInfo classify(const std::string& path) {
  PathInfo info;
  info.path = path;
  info.is_header = path.ends_with(".hpp") || path.ends_with(".h");
  if (path.starts_with("src/")) {
    info.in_src = true;
    const std::size_t slash = path.find('/', 4);
    if (slash != std::string::npos) info.module = path.substr(4, slash - 4);
  }
  return info;
}

// --- module DAG ----------------------------------------------------------

// Allowed include targets per module: the transitive closure of the
// sanctioned architecture (DESIGN.md Sec. 13). Adding an edge here is an
// architecture decision and belongs in the same review as the code that
// needs it. Telemetry is handled separately: it is a sink every module may
// include from a .cpp file (metrics publication), never from a header
// (that would close a cycle through common).
const std::map<std::string, std::set<std::string>>& module_dag() {
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {"common"}},
      {"telemetry", {"telemetry", "common"}},
      {"power", {"power", "common"}},
      {"variation", {"variation", "common"}},
      {"workload", {"workload", "common"}},
      {"energy", {"energy", "common"}},
      {"hardware", {"hardware", "power", "variation", "common"}},
      {"fault", {"fault", "energy", "common"}},
      // Thermal may look down at the hardware topology and energy/power
      // types; only sim may look into thermal (the model is driven
      // exclusively by the simulator's epoch events).
      {"thermal",
       {"thermal", "hardware", "energy", "power", "variation", "common"}},
      {"profiling",
       {"profiling", "energy", "hardware", "power", "variation", "common"}},
      {"sched",
       {"sched", "profiling", "hardware", "power", "variation", "energy",
        "common"}},
      {"sim",
       {"sim", "sched", "profiling", "fault", "thermal", "energy", "hardware",
        "power", "variation", "workload", "common"}},
      {"core",
       {"core", "sim", "sched", "profiling", "fault", "energy", "hardware",
        "power", "variation", "workload", "common"}},
      {"service",
       {"service", "core", "sim", "sched", "profiling", "fault", "energy",
        "hardware", "power", "variation", "workload", "common"}},
  };
  return kDag;
}

// --- determinism tables --------------------------------------------------

// Identifiers banned outright on src/ paths: every one is a source of
// iteration-order, seed, or host-clock nondeterminism that would break the
// bit-identity suites (shard/worker counts, telemetry on/off, zero-fault).
const std::set<std::string>& det_banned_idents() {
  static const std::set<std::string> kBanned = {
      "unordered_map",  "unordered_set", "unordered_multimap",
      "unordered_multiset", "random_device", "system_clock",
      "steady_clock",   "high_resolution_clock", "srand", "gettimeofday",
      "drand48",        "lrand48",
  };
  return kBanned;
}

// Banned only as direct calls `name(...)` (not member calls `.name(...)`):
// these collide with common member spellings like `queue_.now()` or
// `EventQueue::peek_time()`.
const std::set<std::string>& det_banned_calls() {
  static const std::set<std::string> kCalls = {"rand", "time", "clock",
                                               "timespec_get"};
  return kCalls;
}

// Banned when std-qualified: parallel reductions have unspecified
// evaluation order, so their FP sums are not replayable.
const std::set<std::string>& det_banned_std() {
  static const std::set<std::string> kStd = {"reduce", "transform_reduce",
                                             "execution"};
  return kStd;
}

// --- quantity tables -----------------------------------------------------

// The documented hot-loop files (DESIGN.md Sec. 13): the only src/ files
// where `.raw()` escapes are allowed. Everything here is a computational
// interior behind a typed public interface; quantity.hpp is the definition
// site. A new file showing up with `.raw()` must either earn a row (and a
// DESIGN.md mention) or keep quantities typed.
const std::set<std::string>& raw_allowlist() {
  static const std::set<std::string> kAllow = {
      "src/common/quantity.hpp",
      "src/energy/battery.cpp",
      "src/energy/forecast.cpp",
      "src/energy/reconcile.cpp",
      "src/energy/solar_model.cpp",
      "src/energy/supply_stats.cpp",
      "src/energy/supply_trace.cpp",
      "src/energy/wind_model.cpp",
      "src/fault/fault.cpp",
      "src/fault/noisy_forecast.cpp",
      "src/power/cooling.cpp",
      "src/power/cpu_power.cpp",
      "src/power/energy_meter.cpp",
      "src/power/node_power.cpp",
      "src/profiling/opportunistic.cpp",
      "src/profiling/overhead.cpp",
      "src/sched/power_matcher.cpp",
      "src/sim/sharded.cpp",
      "src/sim/simulator.cpp",
  };
  return kAllow;
}

// Unit suffixes that mark a raw double as a smuggled physical quantity.
// Matches the pre-PR-2 suffix conventions the Quantity<Dim> layer retired.
bool has_unit_suffix(const std::string& name) {
  static const std::set<std::string> kSuffixes = {
      "j",  "w",  "s",   "ws",  "wh",    "kwh",   "kw",      "mw",
      "hz", "ghz", "mhz", "v",  "mv",    "usd",   "joules",  "watts",
      "seconds",  "volts", "celsius",
  };
  const std::size_t us = name.rfind('_');
  if (us == std::string::npos || us + 1 >= name.size()) return false;
  return kSuffixes.count(name.substr(us + 1)) > 0;
}

// --- token helpers -------------------------------------------------------

bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

bool is_ident(const Token& t, const char* s) {
  return t.kind == Tok::kIdent && t.text == s;
}

const Token* at(const std::vector<Token>& toks, std::size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

void add(std::vector<Finding>& out, const char* check, const PathInfo& info,
         int line, std::string message) {
  out.push_back(Finding{check, info.path, line, std::move(message)});
}

// --- determinism ---------------------------------------------------------

void check_determinism(const PathInfo& info, const LexResult& lx,
                       std::vector<Finding>& out) {
  if (!info.in_src) return;  // benches and tests time things on purpose
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (det_banned_idents().count(t.text) > 0) {
      add(out, "determinism", info, t.line,
          "'" + t.text +
              "' is nondeterministic (iteration order / seed / host "
              "clock); simulation paths must replay bit-identically");
      continue;
    }
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* next = at(toks, i + 1);
    const bool member_access =
        prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"));
    // A preceding identifier means a declaration (`double time() const`),
    // not a call -- except the expression keywords that legally precede a
    // call expression.
    const bool declaration =
        prev != nullptr && prev->kind == Tok::kIdent &&
        prev->text != "return" && prev->text != "co_return" &&
        prev->text != "case" && prev->text != "throw";
    if (det_banned_calls().count(t.text) > 0 && next != nullptr &&
        is_punct(*next, "(") && !member_access && !declaration) {
      add(out, "determinism", info, t.line,
          "call to '" + t.text +
              "()' reads host state; derive times from the simulation "
              "clock or a seeded Rng");
      continue;
    }
    if (det_banned_std().count(t.text) > 0 && prev != nullptr &&
        is_punct(*prev, "::") && i >= 2 && is_ident(toks[i - 2], "std")) {
      add(out, "determinism", info, t.line,
          "'std::" + t.text +
              "' has unspecified evaluation order; fixed-order sums only "
              "(see reconcile_wind for the pattern)");
    }
  }
}

// --- layering ------------------------------------------------------------

/// Extract the quoted target of an `#include "..."` directive, or "".
std::string include_target(const std::string& directive) {
  std::size_t p = directive.find('#');
  if (p == std::string::npos) return "";
  ++p;
  while (p < directive.size() &&
         std::isspace(static_cast<unsigned char>(directive[p])) != 0)
    ++p;
  if (directive.compare(p, 7, "include") != 0) return "";
  const std::size_t open = directive.find('"', p);
  if (open == std::string::npos) return "";
  const std::size_t close = directive.find('"', open + 1);
  if (close == std::string::npos) return "";
  return directive.substr(open + 1, close - open - 1);
}

void check_layering(const PathInfo& info, const LexResult& lx,
                    std::vector<Finding>& out) {
  if (!info.in_src || info.module.empty()) return;
  const auto& dag = module_dag();
  const auto self = dag.find(info.module);
  for (const Token& t : lx.tokens) {
    if (t.kind != Tok::kDirective) continue;
    const std::string target = include_target(t.text);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;
    const std::string target_module = target.substr(0, slash);
    if (dag.find(target_module) == dag.end()) continue;  // not a module
    if (target_module == "telemetry" && info.module != "telemetry") {
      if (info.is_header) {
        add(out, "layering", info, t.line,
            "src/" + info.module +
                " header includes \"" + target +
                "\"; telemetry is consumable from .cpp files only (a "
                "header include closes a cycle through common)");
      }
      continue;
    }
    if (self == dag.end() || self->second.count(target_module) == 0) {
      std::string allowed;
      if (self != dag.end())
        for (const std::string& m : self->second)
          allowed += (allowed.empty() ? "" : ", ") + m;
      add(out, "layering", info, t.line,
          "src/" + info.module + " may not include \"" + target +
              "\" (module DAG allows: " + allowed + ")");
    }
  }
}

// --- quantity ------------------------------------------------------------

void check_quantity(const PathInfo& info, const LexResult& lx,
                    std::vector<Finding>& out) {
  if (!info.in_src) return;
  const auto& toks = lx.tokens;

  // (a) `.raw()` escapes outside the documented hot-loop files.
  if (raw_allowlist().count(info.path) == 0) {
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (!is_ident(toks[i], "raw")) continue;
      const bool member =
          is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->");
      if (member && is_punct(toks[i + 1], "(")) {
        add(out, "quantity", info, toks[i].line,
            ".raw() escape outside the documented hot-loop files; use the "
            "typed accessor (.watts()/.joules()/...) or add the file to "
            "the DESIGN.md Sec. 13 hot-loop table");
      }
    }
  }

  // (b) suffix-typed raw doubles in the public headers of the power and
  // energy layers -- the interfaces PR 2 converted to Quantity<Dim>.
  const bool suffix_scope =
      info.is_header && (info.module == "power" || info.module == "energy");
  if (!suffix_scope) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "double")) continue;
    // `double name_w` (param or field), and `vector<double> name_w`.
    std::size_t name_idx = i + 1;
    if (is_punct(toks[i + 1], ">") && i + 2 < toks.size()) name_idx = i + 2;
    const Token* name = at(toks, name_idx);
    if (name == nullptr || name->kind != Tok::kIdent) continue;
    const Token* after = at(toks, name_idx + 1);
    if (after != nullptr && is_punct(*after, "(")) continue;  // accessor fn
    if (has_unit_suffix(name->text)) {
      add(out, "quantity", info, name->line,
          "raw double '" + name->text +
              "' smuggles a unit in its suffix; public power/energy "
              "interfaces speak Quantity<Dim> (Watts, Joules, Seconds, "
              "...)");
    }
  }
}

// --- telemetry -----------------------------------------------------------

void check_telemetry(const PathInfo& info, const LexResult& lx,
                     std::vector<Finding>& out) {
  if (info.path.starts_with("src/telemetry/")) return;  // the subsystem
  const auto& toks = lx.tokens;

  // Loop tracking: a brace scope opened by a for/while/do header, plus
  // unbraced single-statement bodies until their terminating ';'.
  std::vector<char> brace_is_loop;   // stack, one entry per '{'
  int loop_braces = 0;
  bool pending_loop_header = false;  // saw for/while, waiting for '(' ... ')'
  int header_paren_depth = 0;
  bool pending_loop_body = false;    // header closed, body token next
  int unbraced_loop_semis = 0;       // active unbraced loop bodies
  int paren_depth = 0;
  bool saw_static = false;           // since the current statement started

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    // A loop header followed by anything but '{' opens an unbraced
    // single-statement body (ending at its ';'); a bare ';' is an empty
    // body. The '{' case below consumes pending_loop_body itself.
    if (pending_loop_body && !is_punct(t, "{")) {
      pending_loop_body = false;
      if (!is_punct(t, ";")) ++unbraced_loop_semis;
    }
    const bool in_loop = loop_braces > 0 || unbraced_loop_semis > 0;

    if (t.kind == Tok::kIdent) {
      if (t.text == "static") saw_static = true;
      if (t.text == "ScopedSpan") {
        add(out, "telemetry", info, t.line,
            "direct ScopedSpan construction bypasses the enabled() gate; "
            "use ISCOPE_SPAN / ISCOPE_SPAN_SIM");
      }
      if ((t.text == "counter" || t.text == "gauge" ||
           t.text == "histogram") &&
          i > 0 &&
          (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
          i + 1 < toks.size() && is_punct(toks[i + 1], "(") && in_loop &&
          !saw_static) {
        add(out, "telemetry", info, t.line,
            "registry ." + t.text +
                "() name lookup inside a loop body; hoist it into a "
                "cached cell (static Family& outside the loop)");
      }
      if (t.text == "for" || t.text == "while") {
        pending_loop_header = true;
        header_paren_depth = paren_depth;
      } else if (t.text == "do") {
        pending_loop_body = true;
      }
      continue;
    }

    if (t.kind != Tok::kPunct) continue;
    const char c = t.text.size() == 1 ? t.text[0] : '\0';
    switch (c) {
      case '(':
        ++paren_depth;
        break;
      case ')':
        --paren_depth;
        if (pending_loop_header && paren_depth == header_paren_depth) {
          pending_loop_header = false;
          pending_loop_body = true;
        }
        break;
      case '{':
        brace_is_loop.push_back(pending_loop_body ? 1 : 0);
        if (pending_loop_body) ++loop_braces;
        pending_loop_body = false;
        saw_static = false;
        break;
      case '}':
        if (!brace_is_loop.empty()) {
          if (brace_is_loop.back() != 0) --loop_braces;
          brace_is_loop.pop_back();
        }
        saw_static = false;
        break;
      case ';':
        // Semicolons inside a paren (for-header clauses, defaulted args)
        // do not end the unbraced body statement.
        if (paren_depth == 0 && unbraced_loop_semis > 0)
          --unbraced_loop_semis;
        saw_static = false;
        break;
      default:
        break;
    }
  }
}

// --- suppressions --------------------------------------------------------

struct Suppression {
  int comment_line = 0;
  int target_line = 0;
  std::vector<std::string> checks;
  std::vector<std::string> unknown;  ///< names not in the catalog
  bool has_justification = false;
  bool used = false;
};

std::vector<Suppression> parse_suppressions(const LexResult& lx) {
  std::vector<Suppression> out;
  for (const Comment& c : lx.comments) {
    const std::size_t mark = c.text.find("iscope-lint:");
    if (mark == std::string::npos) continue;
    Suppression s;
    s.comment_line = c.line;
    if (c.own_line) {
      // A comment standing alone suppresses the next line that carries
      // code -- justifications may wrap over several comment lines.
      s.target_line = 0;
      for (const Token& t : lx.tokens)
        if (t.line > c.line &&
            (s.target_line == 0 || t.line < s.target_line))
          s.target_line = t.line;
    } else {
      s.target_line = c.line;
    }
    std::size_t pos = mark;
    std::size_t tail = mark;
    while (true) {
      const std::size_t a = c.text.find("allow(", pos);
      if (a == std::string::npos) break;
      const std::size_t close = c.text.find(')', a + 6);
      if (close == std::string::npos) break;
      std::string name = c.text.substr(a + 6, close - a - 6);
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch) != 0;
                                }),
                 name.end());
      (known_check(name) ? s.checks : s.unknown).push_back(name);
      pos = close + 1;
      tail = close + 1;
    }
    // Justification: any non-empty text after the last allow(...) group.
    std::string rest = c.text.substr(tail);
    s.has_justification =
        std::any_of(rest.begin(), rest.end(), [](unsigned char ch) {
          return std::isalnum(ch) != 0;
        });
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

// --- public API ----------------------------------------------------------

const std::vector<CheckInfo>& check_catalog() {
  static const std::vector<CheckInfo> kCatalog = {
      {"determinism",
       "no unordered-container iteration, rand, or host clocks in src/"},
      {"layering",
       "module includes follow the DAG; telemetry from .cpp files only"},
      {"quantity",
       ".raw() only in documented hot-loop files; no unit-suffixed "
       "doubles in power/energy headers"},
      {"telemetry",
       "spans via ISCOPE_SPAN macros; no registry lookups in loops"},
      {"suppression",
       "allow() markers must be known, justified, and actually used"},
  };
  return kCatalog;
}

bool known_check(const std::string& name) {
  const auto& cat = check_catalog();
  return std::any_of(cat.begin(), cat.end(), [&](const CheckInfo& c) {
    return name == c.name;
  });
}

AnalysisResult analyze_source(const std::string& path,
                              std::string_view content) {
  const PathInfo info = classify(path);
  const LexResult lx = lex(content);

  std::vector<Finding> raw;
  check_determinism(info, lx, raw);
  check_layering(info, lx, raw);
  check_quantity(info, lx, raw);
  check_telemetry(info, lx, raw);

  std::vector<Suppression> sups = parse_suppressions(lx);

  AnalysisResult result;
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Suppression& s : sups) {
      if (s.target_line == f.line &&
          std::find(s.checks.begin(), s.checks.end(), f.check) !=
              s.checks.end()) {
        s.used = true;
        suppressed = true;
        ++result.suppressions_used;
        break;
      }
    }
    if (!suppressed) result.findings.push_back(std::move(f));
  }

  // The meta-check: suppressions themselves must stay honest.
  for (const Suppression& s : sups) {
    for (const std::string& name : s.unknown) {
      add(result.findings, "suppression", info, s.comment_line,
          "allow(" + name + ") names an unknown check; catalog: "
          "determinism, layering, quantity, telemetry, suppression");
    }
    if (!s.checks.empty() && !s.has_justification) {
      add(result.findings, "suppression", info, s.comment_line,
          "suppression without a justification; append a one-line reason "
          "after allow(...)");
    }
    if (!s.checks.empty() && !s.used) {
      add(result.findings, "suppression", info, s.comment_line,
          "unused suppression (nothing to allow on line " +
              std::to_string(s.target_line) + "); delete it");
    }
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.check < b.check;
                   });
  return result;
}

}  // namespace iscope::lint
