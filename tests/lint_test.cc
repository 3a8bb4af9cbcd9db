// Tests for the aegaeon_lint rule engine (src/lint), driven as a library
// over inline fixture snippets: lexer edge cases, every rule's positive /
// negative / suppression behavior, the suppression meta rule, the
// include-graph passes, and the analyzer-level filtering and formatting the
// CLI exposes.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/analyzer.h"
#include "lint/finding.h"
#include "lint/rule.h"
#include "lint/suppression.h"
#include "lint/token.h"

namespace aegaeon {
namespace lint {
namespace {

std::vector<Finding> LintOne(const std::string& path, const std::string& content) {
  return RunLint({FileContent{path, content}}, LintOptions{});
}

int CountRule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* FirstOf(const std::vector<Finding>& findings, std::string_view rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      return &f;
    }
  }
  return nullptr;
}

// --- lexer -----------------------------------------------------------------

TEST(LintLexer, SkipsLineAndBlockComments) {
  LexResult lex = Lex("int a; // std::unordered_map<int,int>\n/* rand() */ int b;\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "rand");
  }
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_FALSE(lex.comments[0].block);
  EXPECT_TRUE(lex.comments[1].block);
}

TEST(LintLexer, StringAndCharLiteralsAreOpaque) {
  // Comment openers and rule triggers inside literals must not leak.
  LexResult lex = Lex(
      "const char* s = \"/* not a comment */ std::rand()\";\n"
      "char q = '\"';\n"
      "int x = rand();\n");
  EXPECT_TRUE(lex.errors.empty());
  int rand_tokens = 0;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "rand") {
      ++rand_tokens;
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_EQ(rand_tokens, 1);
}

TEST(LintLexer, RawStringsAreOpaque) {
  // ")x" inside the raw string must not close it early; the banned names
  // inside must not tokenize.
  LexResult lex = Lex("auto s = R\"x(std::unordered_map \")not done\" rand())x\"; int y;\n");
  EXPECT_TRUE(lex.errors.empty());
  bool saw_y = false;
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "rand");
    saw_y = saw_y || t.text == "y";
  }
  EXPECT_TRUE(saw_y);
}

TEST(LintLexer, LineSpliceExtendsLineComment) {
  // The backslash-newline splices the second line into the comment.
  LexResult lex = Lex("// comment \\\nint hidden = rand();\nint visible;\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "hidden");
  }
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 3);
}

TEST(LintLexer, LineSpliceInsideIdentifier) {
  LexResult lex = Lex("ra\\\nnd\n");
  ASSERT_EQ(lex.tokens.size(), 1u);
  EXPECT_EQ(lex.tokens[0].text, "rand");
  EXPECT_EQ(lex.tokens[0].line, 1);
}

TEST(LintLexer, HeaderNameIsOneToken) {
  LexResult lex = Lex("#include <map>\n#include \"core/fleet.h\"\n");
  std::vector<std::string> strings;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokenKind::kString) {
      strings.push_back(t.text);
    }
  }
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "<map>");
  EXPECT_EQ(strings[1], "\"core/fleet.h\"");
}

TEST(LintLexer, FloatLiteralDetection) {
  LexResult lex = Lex("a 1.0 .5f 1e9 0x1.8p3 1000 0x10 2.f\n");
  std::vector<bool> floats;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokenKind::kNumber) {
      floats.push_back(t.is_float);
    }
  }
  ASSERT_EQ(floats.size(), 7u);
  EXPECT_TRUE(floats[0]);   // 1.0
  EXPECT_TRUE(floats[1]);   // .5f
  EXPECT_TRUE(floats[2]);   // 1e9
  EXPECT_TRUE(floats[3]);   // 0x1.8p3
  EXPECT_FALSE(floats[4]);  // 1000
  EXPECT_FALSE(floats[5]);  // 0x10
  EXPECT_TRUE(floats[6]);   // 2.f
}

TEST(LintLexer, UnterminatedBlockCommentIsAnError) {
  LexResult lex = Lex("int a; /* never closed\nint b;\n");
  EXPECT_FALSE(lex.errors.empty());
}

TEST(LintLexer, MaximalMunchPunctuation) {
  LexResult lex = Lex("a==b!=c->d::e<<f\n");
  std::vector<std::string> puncts;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokenKind::kPunct) {
      puncts.push_back(t.text);
    }
  }
  ASSERT_EQ(puncts.size(), 5u);
  EXPECT_EQ(puncts[0], "==");
  EXPECT_EQ(puncts[1], "!=");
  EXPECT_EQ(puncts[2], "->");
  EXPECT_EQ(puncts[3], "::");
  EXPECT_EQ(puncts[4], "<<");
}

// --- unordered-container ---------------------------------------------------

TEST(LintRules, UnorderedContainerPositive) {
  auto f = LintOne("src/x.cc", "std::unordered_map<int, int> m;\nstd::unordered_set<int> s;\n");
  EXPECT_EQ(CountRule(f, "unordered-container"), 2);
  const Finding* first = FirstOf(f, "unordered-container");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->line, 1);
}

TEST(LintRules, UnorderedContainerNegative) {
  // Unqualified identifiers and ordered containers are fine; so is the name
  // inside a comment or string.
  auto f = LintOne("src/x.cc",
                   "std::map<int, int> m;\n"
                   "int unordered_map = 0;  // std::unordered_map\n"
                   "const char* s = \"std::unordered_set\";\n");
  EXPECT_EQ(CountRule(f, "unordered-container"), 0);
}

TEST(LintRules, UnorderedContainerSuppressedSameLine) {
  auto f = LintOne("src/x.cc",
                   "std::unordered_map<int, int> m;  // LINT-ALLOW(unordered-container): "
                   "build-only scratch, never iterated\n");
  EXPECT_EQ(CountRule(f, "unordered-container"), 0);
  EXPECT_EQ(CountRule(f, "lint-allow"), 0);
}

// --- wall-clock ------------------------------------------------------------

TEST(LintRules, WallClockPositive) {
  auto f = LintOne("src/x.cc",
                   "auto t0 = std::chrono::steady_clock::now();\n"
                   "auto t1 = std::chrono::system_clock::now();\n"
                   "time_t t = time(nullptr);\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 3);
}

TEST(LintRules, WallClockNegative) {
  // Member calls named `time` and sim-clock reads are not wall-clock reads.
  auto f = LintOne("src/x.cc",
                   "double now = sim.now();\n"
                   "double t = event.time();\n"
                   "auto d = std::chrono::milliseconds(1);\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 0);
}

TEST(LintRules, WallClockSuppressedOwnLine) {
  auto f = LintOne("src/x.cc",
                   "// LINT-ALLOW(wall-clock): host-side perf counter, never simulated time\n"
                   "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 0);
}

TEST(LintRules, OwnLineSuppressionCoversOnlyNextTokenLine) {
  auto f = LintOne("src/x.cc",
                   "// LINT-ALLOW(wall-clock): covers only the line below\n"
                   "auto t0 = std::chrono::steady_clock::now();\n"
                   "auto t1 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 1);
  const Finding* left = FirstOf(f, "wall-clock");
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->line, 3);
}

TEST(LintRules, MultiLineJustificationStillCoversNextCode) {
  // A justification continued over several comment lines covers the first
  // token line below the marker.
  auto f = LintOne("src/x.cc",
                   "// LINT-ALLOW(wall-clock): host-side timing of the solve\n"
                   "// itself; the result never feeds back into simulated state\n"
                   "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 0);
}

TEST(LintRules, SuppressionOfWrongRuleDoesNotSilence) {
  auto f = LintOne("src/x.cc",
                   "auto t0 = std::chrono::steady_clock::now();  "
                   "// LINT-ALLOW(bare-rand): wrong rule\n");
  EXPECT_EQ(CountRule(f, "wall-clock"), 1);
}

// --- bare-rand -------------------------------------------------------------

TEST(LintRules, BareRandPositive) {
  auto f = LintOne("src/x.cc", "srand(42);\nint x = rand();\n");
  EXPECT_EQ(CountRule(f, "bare-rand"), 2);
}

TEST(LintRules, BareRandNegative) {
  // Member/qualified calls and non-call uses are fine.
  auto f = LintOne("src/x.cc",
                   "int x = gen.rand();\n"
                   "int y = my::rand();\n"
                   "int rand = 3;\n");
  EXPECT_EQ(CountRule(f, "bare-rand"), 0);
}

// --- thread-local ----------------------------------------------------------

TEST(LintRules, ThreadLocalPositive) {
  auto f = LintOne("src/x.cc", "thread_local int counter = 0;\n");
  EXPECT_EQ(CountRule(f, "thread-local"), 1);
}

TEST(LintRules, ThreadLocalNegativeInCommentAndString) {
  auto f = LintOne("src/x.cc",
                   "// thread_local would be wrong here\n"
                   "const char* s = \"thread_local\";\n");
  EXPECT_EQ(CountRule(f, "thread-local"), 0);
}

TEST(LintRules, ThreadLocalSuppressed) {
  auto f = LintOne("src/x.cc",
                   "thread_local int counter = 0;  // LINT-ALLOW(thread-local): "
                   "per-thread scratch, reset on entry\n");
  EXPECT_EQ(CountRule(f, "thread-local"), 0);
}

// --- pointer-keyed-container -----------------------------------------------

TEST(LintRules, PointerKeyedPositive) {
  auto f = LintOne("src/x.cc",
                   "std::map<Foo*, int> a;\n"
                   "std::set<const Block*> b;\n"
                   "std::multimap<Foo*, Bar> c;\n");
  EXPECT_EQ(CountRule(f, "pointer-keyed-container"), 3);
}

TEST(LintRules, PointerKeyedNegative) {
  // Pointer as mapped type (second argument) is fine; so are value keys and
  // nested templates in the key.
  auto f = LintOne("src/x.cc",
                   "std::map<int, Foo*> a;\n"
                   "std::set<uint64_t> b;\n"
                   "std::map<std::pair<int, int>, Foo*> c;\n");
  EXPECT_EQ(CountRule(f, "pointer-keyed-container"), 0);
}

TEST(LintRules, PointerKeyedSetWholeListIsKey) {
  auto f = LintOne("src/x.cc", "std::set<Foo*> s;\n");
  EXPECT_EQ(CountRule(f, "pointer-keyed-container"), 1);
}

TEST(LintRules, PointerKeyedSuppressed) {
  auto f = LintOne("src/x.cc",
                   "std::map<Foo*, int> a;  // LINT-ALLOW(pointer-keyed-container): "
                   "identity lookups only, never iterated\n");
  EXPECT_EQ(CountRule(f, "pointer-keyed-container"), 0);
}

// --- float-equality --------------------------------------------------------

TEST(LintRules, FloatEqualityPositive) {
  auto f = LintOne("src/x.cc",
                   "if (a == 1.0) {}\n"
                   "if (0.0 != b) {}\n"
                   "if (c == 1e-9) {}\n");
  EXPECT_EQ(CountRule(f, "float-equality"), 3);
}

TEST(LintRules, FloatEqualityNegative) {
  // Integer comparison, ordering operators on floats, and variables on both
  // sides are all out of scope.
  auto f = LintOne("src/x.cc",
                   "if (a == 1) {}\n"
                   "if (a <= 1.0) {}\n"
                   "if (a == b) {}\n");
  EXPECT_EQ(CountRule(f, "float-equality"), 0);
}

TEST(LintRules, FloatEqualitySuppressed) {
  auto f = LintOne("src/x.cc",
                   "if (rate == 0.0) {}  // LINT-ALLOW(float-equality): exact zero sentinel\n");
  EXPECT_EQ(CountRule(f, "float-equality"), 0);
}

// --- thread-sleep ----------------------------------------------------------

TEST(LintRules, ThreadSleepPositive) {
  auto f = LintOne("src/x.cc",
                   "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
                   "usleep(100);\n");
  EXPECT_EQ(CountRule(f, "thread-sleep"), 2);
}

TEST(LintRules, ThreadSleepHasNoExemptFile) {
  // No file is exempt: the gang's workers park on a condition variable.
  auto f = LintOne("src/sim/thread_pool.cc",
                   "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n");
  EXPECT_EQ(CountRule(f, "thread-sleep"), 1);
}

TEST(LintRules, ThreadSleepNegativeMemberSleep) {
  // A member function named `sleep` is not the libc call.
  auto f = LintOne("src/x.cc", "device.sleep();\n");
  EXPECT_EQ(CountRule(f, "thread-sleep"), 0);
}

// --- include-guard ---------------------------------------------------------

TEST(LintRules, IncludeGuardMissing) {
  auto f = LintOne("src/core/a.h", "int x;\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 1);
}

TEST(LintRules, IncludeGuardPragmaOnce) {
  auto f = LintOne("src/core/a.h", "#pragma once\nint x;\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 0);
}

TEST(LintRules, IncludeGuardIfndefDefinePair) {
  auto f = LintOne("src/core/a.h", "#ifndef CORE_A_H_\n#define CORE_A_H_\nint x;\n#endif\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 0);
}

TEST(LintRules, IncludeGuardMismatchedNames) {
  auto f = LintOne("src/core/a.h", "#ifndef CORE_A_H_\n#define CORE_B_H_\nint x;\n#endif\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 1);
}

TEST(LintRules, IncludeGuardEmptyHeaderSkipped) {
  auto f = LintOne("src/core/a.h", "// only a comment\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 0);
}

TEST(LintRules, IncludeGuardNotAppliedToCc) {
  auto f = LintOne("src/core/a.cc", "int x;\n");
  EXPECT_EQ(CountRule(f, "include-guard"), 0);
}

// --- include-cycle ---------------------------------------------------------

TEST(LintRules, IncludeCycleDetected) {
  std::vector<FileContent> files = {
      {"src/core/a.h", "#pragma once\n#include \"core/b.h\"\nint a;\n"},
      {"src/core/b.h", "#pragma once\n#include \"core/a.h\"\nint b;\n"},
  };
  auto f = RunLint(files, LintOptions{});
  EXPECT_EQ(CountRule(f, "include-cycle"), 1);
  const Finding* cyc = FirstOf(f, "include-cycle");
  ASSERT_NE(cyc, nullptr);
  EXPECT_NE(cyc->message.find("core/a.h"), std::string::npos);
  EXPECT_NE(cyc->message.find("core/b.h"), std::string::npos);
}

TEST(LintRules, IncludeCycleSelfLoop) {
  std::vector<FileContent> files = {
      {"src/core/a.h", "#pragma once\n#include \"core/a.h\"\n"},
  };
  auto f = RunLint(files, LintOptions{});
  EXPECT_EQ(CountRule(f, "include-cycle"), 1);
}

TEST(LintRules, IncludeAcyclicChainClean) {
  std::vector<FileContent> files = {
      {"src/core/a.h", "#pragma once\n#include \"core/b.h\"\nint a;\n"},
      {"src/core/b.h", "#pragma once\n#include \"core/c.h\"\nint b;\n"},
      {"src/core/c.h", "#pragma once\nint c;\n"},
      {"src/core/use.cc", "#include \"core/a.h\"\n"},
  };
  auto f = RunLint(files, LintOptions{});
  EXPECT_EQ(CountRule(f, "include-cycle"), 0);
}

TEST(LintRules, IncludeCycleIgnoresUnknownTargets) {
  // Includes of files outside the analyzed set (system or third-party) are
  // not edges.
  std::vector<FileContent> files = {
      {"src/core/a.h", "#pragma once\n#include <vector>\n#include \"elsewhere/x.h\"\n"},
  };
  auto f = RunLint(files, LintOptions{});
  EXPECT_EQ(CountRule(f, "include-cycle"), 0);
}

// --- suppression meta rule -------------------------------------------------

TEST(LintSuppression, BareMarkerIsAFinding) {
  auto f = LintOne("src/x.cc", "int x;  // LINT-ALLOW\n");
  EXPECT_EQ(CountRule(f, "lint-allow"), 1);
}

TEST(LintSuppression, MissingJustificationIsAFinding) {
  auto f = LintOne("src/x.cc", "int x;  // LINT-ALLOW(wall-clock):\n");
  EXPECT_EQ(CountRule(f, "lint-allow"), 1);
}

TEST(LintSuppression, UnknownRuleIsAFinding) {
  auto f = LintOne("src/x.cc", "int x;  // LINT-ALLOW(no-such-rule): because\n");
  EXPECT_EQ(CountRule(f, "lint-allow"), 1);
}

TEST(LintSuppression, ValidMarkerWithoutFindingIsSilent) {
  // A justified marker that suppresses nothing is not itself flagged (it
  // may be guarding against a rule that fires on other platforms' code).
  auto f = LintOne("src/x.cc", "int x;  // LINT-ALLOW(wall-clock): justified\n");
  EXPECT_EQ(CountRule(f, "lint-allow"), 0);
  EXPECT_TRUE(f.empty());
}

TEST(LintSuppression, CollectParsesFields) {
  SourceFile file;
  file.path = "src/x.cc";
  file.lex = Lex("value = now();  // LINT-ALLOW(wall-clock): host perf timing\n");
  std::vector<Finding> meta;
  std::vector<Suppression> sups = CollectSuppressions(file, AllRuleIds(), &meta);
  EXPECT_TRUE(meta.empty());
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].rule, "wall-clock");
  EXPECT_EQ(sups[0].justification, "host perf timing");
  EXPECT_EQ(sups[0].line, 1);
  EXPECT_FALSE(sups[0].own_line);
}

// --- analyzer driver -------------------------------------------------------

TEST(LintAnalyzer, FindingsSortedByLocation) {
  auto f = LintOne("src/x.cc",
                   "int b = rand();\n"
                   "thread_local int a = 0;\n"
                   "int c = rand();\n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_LE(f[0].line, f[1].line);
  EXPECT_LE(f[1].line, f[2].line);
  EXPECT_EQ(f[0].rule, "bare-rand");
  EXPECT_EQ(f[1].rule, "thread-local");
  EXPECT_EQ(f[2].rule, "bare-rand");
}

TEST(LintAnalyzer, RuleFilterSelectsSingleRule) {
  LintOptions options;
  options.rule_filter = {"thread-local"};
  auto f = RunLint({FileContent{"src/x.cc", "int b = rand();\nthread_local int a = 0;\n"}},
                   options);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "thread-local");
}

TEST(LintAnalyzer, CleanFileYieldsNoFindings) {
  auto f = LintOne("src/x.cc",
                   "#include \"core/fleet.h\"\n"
                   "int Main() { std::map<int, int> m; return static_cast<int>(m.size()); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintAnalyzer, FormatTextShape) {
  std::vector<Finding> findings = {
      Finding{"bare-rand", "src/x.cc", 3, 9, "rand(): global PRNG"}};
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/x.cc:3:9: [bare-rand] rand(): global PRNG"), std::string::npos);
}

TEST(LintAnalyzer, FormatSarifShape) {
  std::vector<Finding> findings = {
      Finding{"bare-rand", "src/x.cc", 3, 9, "rand(): \"global\" PRNG"}};
  std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"bare-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("src/x.cc"), std::string::npos);
  // The quote inside the message must be escaped.
  EXPECT_NE(sarif.find("\\\"global\\\""), std::string::npos);
}

TEST(LintAnalyzer, RuleCatalogComplete) {
  std::vector<std::string> ids = AllRuleIds();
  for (std::string_view want :
       {"unordered-container", "wall-clock", "bare-rand", "thread-local",
        "pointer-keyed-container", "float-equality", "thread-sleep", "include-cycle",
        "include-guard", "lint-allow"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end()) << want;
  }
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_NE(FindRule("wall-clock"), nullptr);
  EXPECT_EQ(FindRule("lint-allow"), nullptr);  // meta rule: valid id, no Rule object
  EXPECT_EQ(FindRule("no-such-rule"), nullptr);
}

}  // namespace
}  // namespace lint
}  // namespace aegaeon
