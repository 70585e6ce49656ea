// Unit suite for iscope_lint (tools/lint/, DESIGN.md Sec. 13).
//
// Strategy: every check is exercised three ways --
//
//  1. a violating fixture (tests/data/lint/) must fire, with pinned lines;
//  2. its clean counterpart must stay quiet;
//  3. scope boundaries are probed by linting the SAME content under a
//     different virtual path (analyze_source takes the path as data, so a
//     bench/ copy of a src/ violation proves the scoping, not a second
//     fixture).
//
// On top of that: suppression round-trips (used / unjustified / unused /
// unknown-name), lexer corner cases (violations hidden in comments and
// string literals must NOT fire), the JSON report schema pinned via the
// in-repo JSON reader, and baseline subtraction semantics. The full-tree
// clean run is a separate ctest (test_lint_tree) registered by
// tools/lint/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "lexer.hpp"
#include "lint.hpp"

namespace iscope::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/lint/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lint a fixture under a virtual repo path (the path drives all scoping).
AnalysisResult lint_as(const std::string& virtual_path,
                       const std::string& fixture_name) {
  return analyze_source(virtual_path, fixture(fixture_name));
}

int count_check(const AnalysisResult& r, const std::string& check) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

std::vector<int> lines_of(const AnalysisResult& r) {
  std::vector<int> lines;
  for (const Finding& f : r.findings) lines.push_back(f.line);
  return lines;
}

// --- lexer ---------------------------------------------------------------

TEST(LintLexer, BannedNamesInCommentsAndStringsDoNotTokenize) {
  const auto lx = lex(
      "int a;  // unordered_map rand() system_clock\n"
      "const char* s = \"std::rand()\";\n"
      "const char* r = R\"(time(nullptr))\";\n");
  for (const Token& t : lx.tokens) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  ASSERT_EQ(lx.comments.size(), 1u);
  EXPECT_FALSE(lx.comments[0].own_line);  // code precedes it on the line
}

TEST(LintLexer, DirectiveContinuationsFoldIntoOneToken) {
  const auto lx = lex("#include \\\n  \"sim/event_queue.hpp\"\nint x;\n");
  ASSERT_FALSE(lx.tokens.empty());
  EXPECT_EQ(lx.tokens[0].kind, Tok::kDirective);
  EXPECT_NE(lx.tokens[0].text.find("sim/event_queue.hpp"),
            std::string::npos);
  // The folded directive is one token on line 1; `int` follows on line 3.
  EXPECT_EQ(lx.tokens[0].line, 1);
  ASSERT_GE(lx.tokens.size(), 2u);
  EXPECT_EQ(lx.tokens[1].text, "int");
  EXPECT_EQ(lx.tokens[1].line, 3);
}

TEST(LintLexer, MultiCharPunctuatorsSurvive) {
  const auto lx = lex("a->b; c::d;");
  std::vector<std::string> puncts;
  for (const Token& t : lx.tokens)
    if (t.kind == Tok::kPunct) puncts.push_back(t.text);
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
}

// --- catalog -------------------------------------------------------------

TEST(LintCatalog, FiveChecksAndKnownCheckAgree) {
  const auto& cat = check_catalog();
  ASSERT_EQ(cat.size(), 5u);
  for (const CheckInfo& c : cat) EXPECT_TRUE(known_check(c.name));
  EXPECT_FALSE(known_check("entropy"));
  EXPECT_FALSE(known_check(""));
}

// --- determinism ---------------------------------------------------------

TEST(LintDeterminism, ViolationFixtureFiresOnEveryBan) {
  const auto r =
      lint_as("src/sim/determinism_violation.cpp", "determinism_violation.cpp");
  EXPECT_EQ(count_check(r, "determinism"), 5);
  EXPECT_EQ(static_cast<int>(r.findings.size()), 5);
  // unordered_map, srand, rand(), system_clock, time(nullptr).
  EXPECT_EQ(lines_of(r), (std::vector<int>{8, 15, 16, 17, 19}));
}

TEST(LintDeterminism, CleanFixtureIsQuiet) {
  const auto r =
      lint_as("src/sim/determinism_clean.cpp", "determinism_clean.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].message << " at line " << r.findings[0].line;
}

TEST(LintDeterminism, ScopeIsSrcOnly) {
  // Benches and tests time things on purpose: the same content that fires
  // five findings under src/ must be silent under bench/ and tests/.
  const auto bench =
      lint_as("bench/determinism_violation.cpp", "determinism_violation.cpp");
  const auto tests =
      lint_as("tests/determinism_violation.cpp", "determinism_violation.cpp");
  EXPECT_TRUE(bench.findings.empty());
  EXPECT_TRUE(tests.findings.empty());
}

TEST(LintDeterminism, JustifiedSuppressionSilencesAndCounts) {
  const auto r =
      lint_as("src/sim/determinism_suppressed.cpp", "determinism_suppressed.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].check << ": " << r.findings[0].message;
  EXPECT_EQ(r.suppressions_used, 1);
}

TEST(LintDeterminism, MemberCallsWithColidingNamesDoNotFire) {
  const auto r = analyze_source(
      "src/sim/x.cpp", "double f(Queue& q) { return q.time() + q.clock(); }");
  EXPECT_TRUE(r.findings.empty());
}

// --- layering ------------------------------------------------------------

TEST(LintLayering, UpwardIncludesFire) {
  const auto r =
      lint_as("src/power/layering_violation.cpp", "layering_violation.cpp");
  EXPECT_EQ(count_check(r, "layering"), 2);
  EXPECT_EQ(lines_of(r), (std::vector<int>{3, 6}));  // sim/, sched/
  for (const Finding& f : r.findings)
    EXPECT_NE(f.message.find("module DAG"), std::string::npos);
}

TEST(LintLayering, DownwardIncludesAndCppTelemetryAreQuiet) {
  const auto r = lint_as("src/sim/layering_clean.cpp", "layering_clean.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].message << " at line " << r.findings[0].line;
}

TEST(LintLayering, TelemetryFromHeaderFiresButCppIsFine) {
  const auto hdr = lint_as("src/sim/layering_header_telemetry.hpp",
                           "layering_header_telemetry.hpp");
  EXPECT_EQ(count_check(hdr, "layering"), 1);
  ASSERT_FALSE(hdr.findings.empty());
  EXPECT_EQ(hdr.findings[0].line, 5);
  EXPECT_NE(hdr.findings[0].message.find(".cpp files only"),
            std::string::npos);
  // Identical content as an implementation file: telemetry is a sink any
  // module may consume from .cpp.
  const auto cpp = lint_as("src/sim/layering_header_telemetry.cpp",
                           "layering_header_telemetry.hpp");
  EXPECT_TRUE(cpp.findings.empty());
}

TEST(LintLayering, ThermalMayNotReachUpIntoSimOrSched) {
  const auto r = lint_as("src/thermal/thermal_layering_violation.cpp",
                         "thermal_layering_violation.cpp");
  EXPECT_EQ(count_check(r, "layering"), 2);
  EXPECT_EQ(lines_of(r), (std::vector<int>{4, 7}));  // sim/, sched/
}

TEST(LintLayering, ThermalOverItsAllowedLayersIsQuiet) {
  const auto r = lint_as("src/thermal/thermal_layering_clean.cpp",
                         "thermal_layering_clean.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].message << " at line " << r.findings[0].line;
}

TEST(LintLayering, OnlySimMayLookIntoThermal) {
  // sim is the sole consumer of thermal in the DAG; the same include from
  // a lower module fires.
  const std::string src = "#include \"thermal/thermal.hpp\"\n";
  EXPECT_TRUE(analyze_source("src/sim/x.cpp", src).findings.empty());
  EXPECT_EQ(count_check(analyze_source("src/energy/x.cpp", src), "layering"),
            1);
  EXPECT_EQ(count_check(analyze_source("src/hardware/x.cpp", src),
                        "layering"),
            1);
}

TEST(LintLayering, NonModuleIncludesAreIgnored) {
  const auto r = analyze_source("src/power/x.cpp",
                                "#include <vector>\n"
                                "#include \"third_party/header.hpp\"\n");
  EXPECT_TRUE(r.findings.empty());
}

// --- quantity ------------------------------------------------------------

TEST(LintQuantity, SuffixedDoublesAndStrayRawFire) {
  const auto r =
      lint_as("src/power/quantity_violation.hpp", "quantity_violation.hpp");
  EXPECT_EQ(count_check(r, "quantity"), 4);
  // grant_w, headroom_j, limit_w param, .raw().
  EXPECT_EQ(lines_of(r), (std::vector<int>{13, 14, 17, 18}));
}

TEST(LintQuantity, TypedHeaderIsQuiet) {
  // Includes `double wind_kwh() const` -- suffixed *accessor functions*
  // are the sanctioned naming idiom and must not fire.
  const auto r =
      lint_as("src/energy/quantity_clean.hpp", "quantity_clean.hpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].message << " at line " << r.findings[0].line;
}

TEST(LintQuantity, SuffixScopeIsPowerEnergyHeadersOnly) {
  // Same violating content under a sched header: only the .raw() escape
  // remains in scope (suffix doubles are sim-time idiom elsewhere).
  const auto sched =
      lint_as("src/sched/quantity_violation.hpp", "quantity_violation.hpp");
  EXPECT_EQ(count_check(sched, "quantity"), 1);
  ASSERT_EQ(sched.findings.size(), 1u);
  EXPECT_NE(sched.findings[0].message.find(".raw()"), std::string::npos);
  // And under a power .cpp the suffix check (headers-only) stays off too.
  const auto cpp =
      lint_as("src/power/quantity_violation.cpp", "quantity_violation.hpp");
  EXPECT_EQ(count_check(cpp, "quantity"), 1);
}

TEST(LintQuantity, RawAllowlistedHotLoopFileIsQuiet) {
  const std::string snippet =
      "#include \"common/units.hpp\"\n"
      "double f(iscope::Watts w) { return w.raw() * 2.0; }\n";
  const auto hot = analyze_source("src/energy/reconcile.cpp", snippet);
  EXPECT_TRUE(hot.findings.empty());
  const auto cold = analyze_source("src/energy/other.cpp", snippet);
  EXPECT_EQ(count_check(cold, "quantity"), 1);
}

// --- telemetry -----------------------------------------------------------

TEST(LintTelemetry, DirectSpanAndLoopLookupFire) {
  const auto r =
      lint_as("src/sim/telemetry_violation.cpp", "telemetry_violation.cpp");
  EXPECT_EQ(count_check(r, "telemetry"), 2);
  EXPECT_EQ(lines_of(r), (std::vector<int>{8, 10}));
  EXPECT_NE(r.findings[0].message.find("ISCOPE_SPAN"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("cached cell"), std::string::npos);
}

TEST(LintTelemetry, MacroSpanAndCachedCellAreQuiet) {
  const auto r =
      lint_as("src/sim/telemetry_clean.cpp", "telemetry_clean.cpp");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].message << " at line " << r.findings[0].line;
}

TEST(LintTelemetry, TheSubsystemItselfIsExempt) {
  const auto r = lint_as("src/telemetry/telemetry_violation.cpp",
                         "telemetry_violation.cpp");
  EXPECT_EQ(count_check(r, "telemetry"), 0);
}

TEST(LintTelemetry, UnbracedLoopBodyIsStillALoop) {
  const auto r = analyze_source(
      "src/sim/x.cpp",
      "void f(Reg& reg, int n) {\n"
      "  for (int i = 0; i < n; ++i) reg.counter(\"x\").increment();\n"
      "}\n");
  EXPECT_EQ(count_check(r, "telemetry"), 1);
}

TEST(LintTelemetry, StaticCacheInsideLoopIsQuiet) {
  // The cached-cell idiom hoists the hash to first execution; a static
  // in the loop body is therefore fine.
  const auto r = analyze_source(
      "src/sim/x.cpp",
      "void f(Reg& reg, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    static auto& c = reg.counter(\"x\");\n"
      "    c.increment();\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintTelemetry, LookupOutsideLoopsIsQuiet) {
  const auto r = analyze_source(
      "src/sim/x.cpp",
      "void f(Reg& reg) { reg.gauge(\"x\").set(1.0); }\n");
  EXPECT_TRUE(r.findings.empty());
}

// --- suppression meta-check ----------------------------------------------

TEST(LintSuppression, MissingJustificationIsFlagged) {
  const auto r = lint_as("src/sim/suppression_missing_justification.cpp",
                         "suppression_missing_justification.cpp");
  // The rand() finding itself IS suppressed...
  EXPECT_EQ(count_check(r, "determinism"), 0);
  EXPECT_EQ(r.suppressions_used, 1);
  // ...but the bare allow() draws a meta-finding.
  ASSERT_EQ(count_check(r, "suppression"), 1);
  EXPECT_NE(r.findings[0].message.find("justification"), std::string::npos);
}

TEST(LintSuppression, UnusedSuppressionIsFlagged) {
  const auto r =
      lint_as("src/sim/suppression_unused.cpp", "suppression_unused.cpp");
  EXPECT_EQ(r.suppressions_used, 0);
  ASSERT_EQ(count_check(r, "suppression"), 1);
  EXPECT_NE(r.findings[0].message.find("unused"), std::string::npos);
}

TEST(LintSuppression, UnknownCheckNameIsFlaggedAndDoesNotSuppress) {
  const auto r =
      lint_as("src/sim/suppression_unknown.cpp", "suppression_unknown.cpp");
  // allow(entropy) suppresses nothing: the determinism finding survives,
  // and the unknown name draws its own meta-finding.
  EXPECT_EQ(count_check(r, "determinism"), 1);
  EXPECT_EQ(count_check(r, "suppression"), 1);
  EXPECT_EQ(r.suppressions_used, 0);
}

TEST(LintSuppression, OwnLineCommentTargetsNextCodeLine) {
  const auto r = analyze_source(
      "src/sim/x.cpp",
      "// iscope-lint: allow(determinism) wall-clock for the log banner\n"
      "// only; the value never feeds the simulation.\n"
      "auto t = std::chrono::system_clock::now();\n");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].check << ": " << r.findings[0].message;
  EXPECT_EQ(r.suppressions_used, 1);
}

TEST(LintSuppression, SameLineCommentTargetsItsOwnLine) {
  const auto r = analyze_source(
      "src/sim/x.cpp",
      "int a = rand();  // iscope-lint: allow(determinism) fixture only\n"
      "int b = rand();\n");
  EXPECT_EQ(count_check(r, "determinism"), 1);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].line, 2);  // line 1 suppressed, line 2 survives
  EXPECT_EQ(r.suppressions_used, 1);
}

// --- JSON report ---------------------------------------------------------

TEST(LintReport, JsonSchemaIsPinned) {
  Report report;
  report.files_scanned = 3;
  report.suppressions_used = 2;
  report.findings.push_back(Finding{
      "determinism", "src/sim/x.cpp", 12, "call to 'rand()' reads host "
      "state; a \"quoted\" bit to exercise escaping"});
  const std::string text = to_json(report, "/root/repo");

  const json::Value doc = json::parse(text);
  ASSERT_TRUE(doc.is(json::Value::Kind::kObject));
  EXPECT_EQ(json::check_key(doc, "schema_version",
                            json::Value::Kind::kNumber), "");
  EXPECT_EQ(json::find(doc, "schema_version")->number, 1.0);
  EXPECT_EQ(json::find(doc, "tool")->string, "iscope_lint");
  EXPECT_EQ(json::find(doc, "files_scanned")->number, 3.0);
  EXPECT_EQ(json::find(doc, "suppressions_used")->number, 2.0);

  const json::Value* counts = json::find(doc, "counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_TRUE(counts->is(json::Value::Kind::kObject));
  // One bucket per catalog check, even when zero.
  EXPECT_EQ(counts->object.size(), check_catalog().size());
  EXPECT_EQ(json::find(*counts, "determinism")->number, 1.0);
  EXPECT_EQ(json::find(*counts, "layering")->number, 0.0);

  const json::Value* findings = json::find(doc, "findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is(json::Value::Kind::kArray));
  ASSERT_EQ(findings->array.size(), 1u);
  const json::Value& f = findings->array[0];
  EXPECT_EQ(json::check_key(f, "check", json::Value::Kind::kString), "");
  EXPECT_EQ(json::check_key(f, "file", json::Value::Kind::kString), "");
  EXPECT_EQ(json::check_key(f, "line", json::Value::Kind::kNumber), "");
  EXPECT_EQ(json::check_key(f, "message", json::Value::Kind::kString), "");
  EXPECT_EQ(json::find(f, "line")->number, 12.0);
}

TEST(LintReport, EmptyReportStillParses) {
  const Report report;
  const json::Value doc = json::parse(to_json(report, "."));
  EXPECT_EQ(json::find(doc, "findings")->array.size(), 0u);
}

// --- baseline subtraction ------------------------------------------------

Report two_finding_report() {
  Report report;
  report.findings.push_back(
      Finding{"quantity", "src/power/a.cpp", 10, "stray raw"});
  report.findings.push_back(
      Finding{"layering", "src/power/b.cpp", 20, "upward include"});
  return report;
}

TEST(LintBaseline, MatchesOnCheckFileMessageIgnoringLine) {
  Report report = two_finding_report();
  // Baselined at a DIFFERENT line: edits above a known finding must not
  // churn the baseline.
  const std::string baseline =
      "{\"schema_version\": 1, \"findings\": ["
      "{\"check\": \"quantity\", \"file\": \"src/power/a.cpp\","
      " \"line\": 99, \"message\": \"stray raw\"}]}";
  subtract_baseline(report, baseline);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check, "layering");
}

TEST(LintBaseline, EmptyBaselineRemovesNothing) {
  Report report = two_finding_report();
  subtract_baseline(report,
                    "{\"schema_version\": 1, \"findings\": []}");
  EXPECT_EQ(report.findings.size(), 2u);
}

TEST(LintBaseline, DifferentMessageDoesNotMatch) {
  Report report = two_finding_report();
  const std::string baseline =
      "{\"schema_version\": 1, \"findings\": ["
      "{\"check\": \"quantity\", \"file\": \"src/power/a.cpp\","
      " \"line\": 10, \"message\": \"some other text\"}]}";
  subtract_baseline(report, baseline);
  EXPECT_EQ(report.findings.size(), 2u);
}

TEST(LintBaseline, MalformedBaselineThrows) {
  Report report = two_finding_report();
  EXPECT_THROW(subtract_baseline(report, "{not json"), iscope::ParseError);
}

// --- committed baseline stays empty at merge ------------------------------

TEST(LintBaseline, CommittedBaselineIsEmpty) {
  std::ifstream in(std::string(ISCOPE_LINT_BASELINE));
  ASSERT_TRUE(in.good()) << "missing " << ISCOPE_LINT_BASELINE;
  std::ostringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  const json::Value* findings = json::find(doc, "findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_TRUE(findings->array.empty())
      << "tools/lint/baseline.json must be empty at merge; fix or "
         "suppress the findings instead of baselining them";
}

}  // namespace
}  // namespace iscope::lint
