// tagnn_lint driven as a library against the golden fixtures in
// tests/test_lint_fixtures/ (one passing and one violating fixture per
// rule family), plus unit coverage for the manifest parser, the
// compile-command rules, and the suppression grammar.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze/lint.hpp"
#include "obs/json.hpp"

namespace lint = tagnn::obs::analyze::lint;

namespace {

// The fixture manifest mirrors the real layer stack closely enough for
// the rules under test; tests below also parse the checked-in
// tools/layering.toml to keep it honest.
constexpr const char* kManifest = R"toml(
[layer.common]
path = "src/common"
allow = []

[layer.obs]
path = "src/obs"
allow = ["common"]

[layer.tensor]
path = "src/tensor"
allow = ["common"]

[layer.nn]
path = "src/nn"
allow = ["common", "tensor", "obs"]

[layer.sim]
path = "src/sim"
allow = ["common", "tensor", "obs", "nn"]

[hotpath]
paths = ["src/tensor/kernels_scalar.cpp", "src/tensor/kernels_avx2.cpp"]

[memtrack]
paths = ["src/tensor/store.cpp"]

[determinism]
allow = ["src/obs/"]
)toml";

lint::LintConfig config() {
  lint::LintConfig cfg;
  std::string err;
  EXPECT_TRUE(lint::parse_manifest(kManifest, &cfg, &err)) << err;
  return cfg;
}

std::string fixture(const std::string& name) {
  const std::string path = std::string(TAGNN_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

lint::FileScan scan_fixture(const std::string& name,
                            const std::string& as_path) {
  return lint::scan_source(as_path, fixture(name), config());
}

std::vector<std::string> rules_of(const std::vector<lint::Finding>& fs) {
  std::vector<std::string> r;
  for (const auto& f : fs) r.push_back(f.rule);
  return r;
}

int count_rule(const std::vector<lint::Finding>& fs, std::string_view rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(LintManifest, ParsesFixtureManifest) {
  const lint::LintConfig cfg = config();
  ASSERT_EQ(cfg.layers.size(), 5u);
  EXPECT_EQ(cfg.layers[0].name, "common");
  EXPECT_TRUE(cfg.layers[0].allow.empty());
  EXPECT_EQ(cfg.layers[3].name, "nn");
  EXPECT_EQ(cfg.layers[3].allow.size(), 3u);
  EXPECT_EQ(cfg.hotpath_paths.size(), 2u);
  EXPECT_EQ(cfg.determinism_allow.size(), 1u);
  EXPECT_EQ(cfg.memtrack_paths.size(), 1u);
}

TEST(LintManifest, ParsesRealRepoManifest) {
  std::ifstream in(std::string(TAGNN_REPO_ROOT) + "/tools/layering.toml",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream ss;
  ss << in.rdbuf();
  lint::LintConfig cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_manifest(ss.str(), &cfg, &err)) << err;
  EXPECT_GE(cfg.layers.size(), 8u);
  // The kernel TUs must stay under hot-path scrutiny.
  EXPECT_NE(std::find(cfg.hotpath_paths.begin(), cfg.hotpath_paths.end(),
                      "src/tensor/kernels_scalar.cpp"),
            cfg.hotpath_paths.end());
  // The tracked graph-storage TUs must stay under memtrack scrutiny.
  EXPECT_NE(std::find(cfg.memtrack_paths.begin(), cfg.memtrack_paths.end(),
                      "src/graph/pma.cpp"),
            cfg.memtrack_paths.end());
}

TEST(LintManifest, RejectsUnknownAllowEdge) {
  lint::LintConfig cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_manifest(
      "[layer.a]\npath = \"src/a\"\nallow = [\"ghost\"]\n", &cfg, &err));
  EXPECT_NE(err.find("ghost"), std::string::npos);
}

TEST(LintManifest, RejectsUnknownSectionAndBadValue) {
  lint::LintConfig cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_manifest("[mystery]\n", &cfg, &err));
  EXPECT_FALSE(
      lint::parse_manifest("[layer.a]\npath = unquoted\n", &cfg, &err));
  EXPECT_FALSE(lint::parse_manifest(
      "[layer.a]\npath = \"src/a\"\n[layer.a]\npath = \"src/b\"\n", &cfg,
      &err));
}

TEST(LintManifest, RejectsLayerWithoutPath) {
  lint::LintConfig cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_manifest("[layer.a]\nallow = []\n", &cfg, &err));
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

TEST(LintLayering, CleanFixturePasses) {
  const auto scan = scan_fixture("layering_ok.cpp", "src/tensor/fixture.cpp");
  EXPECT_TRUE(scan.findings.empty()) << rules_of(scan.findings).front();
}

TEST(LintLayering, UpwardIncludesAreFlagged) {
  const auto scan = scan_fixture("layering_bad.cpp", "src/tensor/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "layering-include"), 2);
  // Message names both ends of the illegal edge.
  EXPECT_NE(scan.findings[0].message.find("tensor"), std::string::npos);
}

TEST(LintLayering, SameEdgesLegalFromHigherLayer) {
  const auto scan = scan_fixture("layering_bad.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "layering-include"), 0);
}

TEST(LintLayering, UncoveredSrcFileIsFlagged) {
  const auto scan =
      lint::scan_source("src/mystery/file.cpp", "int x;\n", config());
  EXPECT_EQ(count_rule(scan.findings, "layering-include"), 1);
}

// ---------------------------------------------------------------------------
// Hot-path purity
// ---------------------------------------------------------------------------

TEST(LintHotpath, CleanKernelPasses) {
  const auto scan =
      scan_fixture("hotpath_ok.cpp", "src/tensor/kernels_scalar.cpp");
  EXPECT_TRUE(scan.findings.empty());
}

TEST(LintHotpath, LibmFlagged) {
  const auto scan =
      scan_fixture("hotpath_libm_bad.cpp", "src/tensor/kernels_scalar.cpp");
  EXPECT_EQ(count_rule(scan.findings, "hotpath-libm"), 2);  // include + call
}

TEST(LintHotpath, AllocFlagged) {
  const auto scan =
      scan_fixture("hotpath_alloc_bad.cpp", "src/tensor/kernels_scalar.cpp");
  EXPECT_EQ(count_rule(scan.findings, "hotpath-alloc"), 3);
}

TEST(LintHotpath, LockFlagged) {
  const auto scan =
      scan_fixture("hotpath_lock_bad.cpp", "src/tensor/kernels_avx2.cpp");
  EXPECT_GE(count_rule(scan.findings, "hotpath-lock"), 2);
}

TEST(LintHotpath, RulesOnlyApplyToHotpathFiles) {
  // Same content under a non-hot-path name: alloc/libm/lock are fine.
  const auto scan =
      scan_fixture("hotpath_alloc_bad.cpp", "src/nn/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "hotpath-alloc"), 0);
}

// ---------------------------------------------------------------------------
// Bit-exactness
// ---------------------------------------------------------------------------

TEST(LintBitexact, FmaFlaggedEverywhereInFirstParty) {
  const auto scan =
      scan_fixture("bitexact_fma_bad.cpp", "src/nn/fixture.cpp");
  // std::fma call + _mm256_fmadd_ps identifier.
  EXPECT_EQ(count_rule(scan.findings, "bitexact-fma"), 2);
  const auto tools_scan =
      scan_fixture("bitexact_fma_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(count_rule(tools_scan.findings, "bitexact-fma"), 2);
}

TEST(LintBitexact, FmaNotFlaggedInTests) {
  const auto scan =
      scan_fixture("bitexact_fma_bad.cpp", "tests/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "bitexact-fma"), 0);
}

TEST(LintBitexact, SimdWithoutContractOffFlagged) {
  const auto findings = lint::lint_command(
      "src/tensor/kernels_avx2.cpp", {"g++", "-mavx2", "-c", "x.cpp"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bitexact-contract");
  EXPECT_EQ(findings[0].line, 0);
}

TEST(LintBitexact, SimdWithContractOffPasses) {
  EXPECT_TRUE(lint::lint_command("src/tensor/kernels_avx2.cpp",
                                 {"g++", "-mavx2", "-mfma",
                                  "-ffp-contract=off", "-c", "x.cpp"})
                  .empty());
}

TEST(LintBitexact, ValueChangingFpFlagsAlwaysFlagged) {
  const auto findings = lint::lint_command(
      "src/nn/gcn.cpp", {"g++", "-ffast-math", "-c", "x.cpp"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bitexact-contract");
  EXPECT_NE(findings[0].message.find("-ffast-math"), std::string::npos);
}

TEST(LintBitexact, SplitCommandHonorsQuotes) {
  const auto args =
      lint::split_command("g++ -DX=\"a b\" 'c d' -c file.cpp");
  ASSERT_EQ(args.size(), 5u);
  EXPECT_EQ(args[1], "-DX=a b");
  EXPECT_EQ(args[2], "c d");
}

TEST(LintBitexact, AccumTagPresentAndMissing) {
  std::vector<std::pair<std::string, lint::FileScan>> scans;
  scans.emplace_back(
      "src/tensor/kernels_scalar.cpp",
      scan_fixture("accum_ok.cpp", "src/tensor/kernels_scalar.cpp"));
  EXPECT_TRUE(lint::check_accum_tags(scans).empty());

  scans.emplace_back(
      "src/tensor/kernels_avx2.cpp",
      scan_fixture("accum_missing_bad.cpp", "src/tensor/kernels_avx2.cpp"));
  const auto findings = lint::check_accum_tags(scans);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bitexact-accum-tag");
  EXPECT_EQ(findings[0].file, "src/tensor/kernels_avx2.cpp");
}

TEST(LintBitexact, AccumTagMismatchFlagged) {
  lint::FileScan a;
  a.registers_fp_kernels = true;
  a.register_line = 10;
  a.accum_tag = "ascending-k";
  lint::FileScan b = a;
  b.accum_tag = "descending-k";
  std::vector<std::pair<std::string, lint::FileScan>> scans = {
      {"src/tensor/a.cpp", a}, {"src/tensor/b.cpp", b}};
  const auto findings = lint::check_accum_tags(scans);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("descending-k"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ascending-k"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(LintDeterminism, EntropyAndClockFlagged) {
  const auto scan =
      scan_fixture("determinism_bad.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "determinism-entropy"), 2);
  EXPECT_EQ(count_rule(scan.findings, "determinism-clock"), 1);
}

TEST(LintDeterminism, SeededCodeAndDeclarationsPass) {
  const auto scan =
      scan_fixture("determinism_ok.cpp", "src/sim/fixture.cpp");
  EXPECT_TRUE(scan.findings.empty())
      << scan.findings.front().rule << ": " << scan.findings.front().message;
}

TEST(LintDeterminism, AllowlistedPathsExempt) {
  const auto scan =
      scan_fixture("determinism_bad.cpp", "src/obs/fixture.cpp");
  EXPECT_EQ(count_rule(scan.findings, "determinism-entropy"), 0);
  EXPECT_EQ(count_rule(scan.findings, "determinism-clock"), 0);
}

// ---------------------------------------------------------------------------
// Memory tracking (memtrack-container)
// ---------------------------------------------------------------------------

TEST(LintMemtrack, BareVectorAndNewArrayFlagged) {
  const auto scan = lint::scan_source(
      "src/tensor/store.cpp",
      "#include <vector>\n"
      "std::vector<int> untracked;\n"
      "int* raw = new int[8];\n",
      config());
  EXPECT_EQ(count_rule(scan.findings, "memtrack-container"), 2);
}

TEST(LintMemtrack, TrackedStorageAndScalarNewPass) {
  // obs::mem::vec spells no `std::vector` token sequence, and a scalar
  // `new T(...)` is not array storage.
  const auto scan = lint::scan_source(
      "src/tensor/store.cpp",
      "obs::mem::vec<int> tracked = obs::mem::tagged<int>(sub);\n"
      "auto* one = new Node(3);\n",
      config());
  EXPECT_EQ(count_rule(scan.findings, "memtrack-container"), 0);
}

TEST(LintMemtrack, RuleOnlyAppliesToListedFiles) {
  const auto scan = lint::scan_source(
      "src/tensor/other.cpp", "std::vector<int> fine;\nint* p = new int[4];\n",
      config());
  EXPECT_EQ(count_rule(scan.findings, "memtrack-container"), 0);
}

TEST(LintMemtrack, FileSuppressionCoversPublicApiSignatures) {
  const auto scan = lint::scan_source(
      "src/tensor/store.cpp",
      "// tagnn-lint: allow-file(memtrack-container) -- public API takes "
      "plain vectors\n"
      "void take(std::vector<int> v);\n",
      config());
  EXPECT_EQ(count_rule(scan.findings, "memtrack-container"), 0);
  ASSERT_EQ(scan.suppressed.size(), 1u);
  EXPECT_EQ(scan.suppressed[0].rule, "memtrack-container");
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(LintSuppression, ReasonedSuppressionMovesFindingAside) {
  const auto scan = scan_fixture("suppress_ok.cpp", "src/sim/fixture.cpp");
  EXPECT_TRUE(scan.findings.empty());
  ASSERT_EQ(scan.suppressed.size(), 1u);
  EXPECT_EQ(scan.suppressed[0].rule, "determinism-entropy");
  EXPECT_NE(scan.suppressed[0].reason.find("load-bearing"),
            std::string::npos);
  ASSERT_EQ(scan.suppressions.size(), 1u);
  EXPECT_TRUE(scan.suppressions[0].used);
}

TEST(LintSuppression, MissingReasonIsRejectedAndDoesNotSilence) {
  const auto scan =
      scan_fixture("suppress_noreason_bad.cpp", "src/sim/fixture.cpp");
  // Both malformed suppressions are reported...
  EXPECT_EQ(count_rule(scan.findings, "suppression-format"), 2);
  // ...and neither silences the rand() underneath it.
  EXPECT_EQ(count_rule(scan.findings, "determinism-entropy"), 2);
  EXPECT_TRUE(scan.suppressions.empty());
}

TEST(LintSuppression, UnknownRuleRejected) {
  const auto scan = lint::scan_source(
      "src/sim/x.cpp",
      "// tagnn-lint: allow(no-such-rule) -- because\nint x;\n", config());
  EXPECT_EQ(count_rule(scan.findings, "suppression-format"), 1);
}

TEST(LintSuppression, ProseMentionsAreNotDirectives) {
  const auto scan = lint::scan_source(
      "src/sim/x.cpp",
      "// The syntax is: tagnn-lint: allow(<rule>) -- <reason>\nint x;\n",
      config());
  EXPECT_TRUE(scan.findings.empty());
}

// ---------------------------------------------------------------------------
// Report output
// ---------------------------------------------------------------------------

TEST(LintReport, JsonIsValidAndCarriesSchema) {
  lint::LintReport rep;
  auto bad = scan_fixture("determinism_bad.cpp", "src/sim/fixture.cpp");
  for (auto& f : bad.findings) rep.findings.push_back(f);
  auto sup = scan_fixture("suppress_ok.cpp", "src/sim/fixture.cpp");
  for (auto& f : sup.suppressed) rep.suppressed.push_back(f);
  for (auto& s : sup.suppressions) rep.suppressions.push_back(s);
  rep.errors.push_back("cannot read \"weird\\path\"\n");
  rep.files_scanned = 2;

  std::ostringstream os;
  lint::write_report_json(os, rep, "build/compile_commands.json");
  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(os.str(), &err)) << err << os.str();
  EXPECT_NE(os.str().find("\"tagnn.lint.v1\""), std::string::npos);
  EXPECT_NE(os.str().find("\"determinism-entropy\": {\"findings\": 2"),
            std::string::npos);
}

TEST(LintReport, GithubAnnotationsEscapeNewlines) {
  lint::LintReport rep;
  rep.findings.push_back(
      {"hotpath-libm", "src/tensor/k.cpp", 7, "bad\nthing 100%", ""});
  std::ostringstream os;
  lint::write_github_annotations(os, rep);
  EXPECT_EQ(os.str(),
            "::error file=src/tensor/k.cpp,line=7,"
            "title=tagnn_lint(hotpath-libm)::bad%0Athing 100%25\n");
}

TEST(LintReport, KnownRulesCoverAllFamilies) {
  const auto& rules = lint::known_rules();
  EXPECT_GE(rules.size(), 11u);
  for (const char* r :
       {"layering-include", "hotpath-libm", "hotpath-alloc", "hotpath-lock",
        "bitexact-fma", "bitexact-contract", "bitexact-accum-tag",
        "determinism-entropy", "determinism-clock", "memtrack-container",
        "suppression-format"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), r), rules.end()) << r;
  }
}

// ---------------------------------------------------------------------------
// Lexer robustness (strings, raw strings, comments must not trigger)
// ---------------------------------------------------------------------------

TEST(LintLexer, LiteralsAndCommentsDoNotTrigger) {
  const char* src =
      "const char* a = \"call expf(x) and rand()\";\n"
      "const char* b = R\"(std::mutex _mm256_fmadd_ps)\";\n"
      "// expf(1.0f) in a comment\n"
      "/* rand() in a block comment */\n"
      "char c = '\\'';\n"
      "int d = rand();\n";  // the only real violation
  const auto scan =
      lint::scan_source("src/tensor/kernels_scalar.cpp", src, config());
  ASSERT_EQ(scan.findings.size(), 1u);
  EXPECT_EQ(scan.findings[0].rule, "determinism-entropy");
  EXPECT_EQ(scan.findings[0].line, 6);
}

TEST(LintLexer, QualifiedForeignNamespaceNotFlagged) {
  const auto scan = lint::scan_source(
      "src/tensor/kernels_scalar.cpp",
      "float y = approx::expf(x);\nfloat z = std::expf(x);\n", config());
  ASSERT_EQ(scan.findings.size(), 1u);
  EXPECT_EQ(scan.findings[0].line, 2);
}
