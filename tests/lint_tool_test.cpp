/**
 * @file
 * Tests for the repo linter's rule engine (erec_analyze lint): each
 * rule must fire on a seeded violation, stay quiet on the blessed
 * idioms, respect file classes and honor allow() suppressions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/front_end.h"
#include "tools/analyze/lint.h"

namespace erec::lint {
namespace {

bool
hasRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&rule](const Diagnostic &d) {
                           return d.rule == rule;
                       });
}

TEST(LintToolTest, ClassifiesPathsByTopLevelDirectory)
{
    EXPECT_EQ(classifyPath("src/elasticrec/core/planner.cc"),
              FileClass::LibrarySource);
    EXPECT_EQ(classifyPath("/root/repo/src/elasticrec/core/planner.h"),
              FileClass::LibraryHeader);
    EXPECT_EQ(classifyPath("tests/planner_test.cpp"),
              FileClass::TestSource);
    EXPECT_EQ(classifyPath("bench/bench_util.h"), FileClass::BenchSource);
    EXPECT_EQ(classifyPath("examples/quickstart.cpp"),
              FileClass::ExampleSource);
    EXPECT_EQ(classifyPath("docs/notes.md"), FileClass::Skip);
    EXPECT_EQ(classifyPath("src/elasticrec/core/CMakeLists.txt"),
              FileClass::Skip);
}

TEST(LintToolTest, RawThrowCaughtInLibraryCode)
{
    const std::string bad = "void f() { throw 1; }\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", bad),
                        "raw-throw"));
    // Allowed in its blessed home and outside the library.
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/common/error.h",
                                     "#pragma once\nnamespace erec {}\n" +
                                         bad),
                         "raw-throw"));
    EXPECT_FALSE(hasRule(lintContent("tests/a_test.cpp", bad),
                         "raw-throw"));
}

TEST(LintToolTest, ThrowInCommentsAndStringsIgnored)
{
    const std::string ok =
        "// this function throws via erec::fatal\n"
        "/* never throw raw */\n"
        "const char *s = \"throw\";\n";
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc", ok),
                         "raw-throw"));
}

TEST(LintToolTest, DigitSeparatorDoesNotHideCode)
{
    // The `'` in a number is a digit separator, not a char literal, so
    // code after it is still linted.
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "int f() { return 62'423; }\n"
                                    "void g() { throw 1; }\n"),
                        "raw-throw"));
    // Prefixed and escaped char literals are still blanked.
    EXPECT_EQ(analyze::stripCommentsAndStrings(
                  "c = u8'a'; q = '\\''; n = 1'000;"),
              "c = u8   ; q =     ; n = 1'000;");
}

TEST(LintToolTest, UnseededRandomnessCaughtEverywhere)
{
    for (const char *path :
         {"src/elasticrec/x/a.cc", "tests/a_test.cpp", "bench/b.cpp",
          "examples/e.cpp"}) {
        EXPECT_TRUE(hasRule(
            lintContent(path, "int x = std::rand();\n"),
            "unseeded-random"))
            << path;
    }
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::random_device rd;\n"),
                        "unseeded-random"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "auto t = time(nullptr);\n"),
                        "unseeded-random"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "srand(42);\n"),
                        "unseeded-random"));
    // The seeded-RNG home is exempt; erec::Rng usage is fine anywhere.
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/common/rng.cc",
                                     "std::random_device rd;\n"),
                         "unseeded-random"));
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                     "Rng rng(7); rng.uniform();\n"),
                         "unseeded-random"));
}

TEST(LintToolTest, RawThreadOnlyInRuntimeModule)
{
    const std::string bad = "std::thread t([] {});\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/serving/a.cc", bad),
                        "raw-thread"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n" +
                                        bad),
                        "raw-thread"));
    EXPECT_TRUE(
        hasRule(lintContent("bench/b.cpp", bad), "raw-thread"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::jthread t([] {});\n"),
                        "raw-thread"));
    // The pool's own implementation is the blessed home.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.cc", bad),
        "raw-thread"));
    // Tests may spawn threads freely to exercise concurrency.
    EXPECT_FALSE(hasRule(lintContent("tests/pool_test.cpp", bad),
                         "raw-thread"));
    // Suppressible like every line rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "std::thread t; // erec-lint: allow(raw-thread)\n"),
        "raw-thread"));
    // Mentions in comments/strings are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// std::thread is banned here\nint x;\n"),
        "raw-thread"));
}

TEST(LintToolTest, RawSleepBannedInLibraryCode)
{
    const std::string bad =
        "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/serving/a.cc", bad),
                        "raw-sleep"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n"
                                    "std::this_thread::sleep_until(t);\n"),
                        "raw-sleep"));
    // runtime/ gets no free pass: its waits go through condition
    // variables with deadlines, not raw sleeps.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.cc", bad),
        "raw-sleep"));
    // Tests and benches pace themselves however they like.
    EXPECT_FALSE(hasRule(lintContent("tests/a_test.cpp", bad),
                         "raw-sleep"));
    EXPECT_FALSE(hasRule(lintContent("bench/b.cpp", bad), "raw-sleep"));
    // Suppressible like every line rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "std::this_thread::sleep_for(d); "
                    "// erec-lint: allow(raw-sleep)\n"),
        "raw-sleep"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// std::this_thread::sleep_for is banned here\n"),
        "raw-sleep"));
}

TEST(LintToolTest, RawIntrinsicsOnlyInKernelsModule)
{
    const std::string inc = "#include <immintrin.h>\n";
    const std::string type = "__m256 v = _mm256_setzero_ps();\n";
    const std::string call =
        "_mm_prefetch(reinterpret_cast<const char *>(p), _MM_HINT_T0);\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/embedding/a.cc", inc),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/model/a.cc", type),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", call),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("bench/b.cpp", type),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n"
                                    "__m512 acc;\n"),
                        "raw-intrinsics"));
    // The kernels module is the blessed home of vector code.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/kernels/backend_avx2.cc",
                    inc + type + call),
        "raw-intrinsics"));
    // Tests compare backends through the registry; the rule does not
    // police them (they have no reason to use intrinsics anyway).
    EXPECT_FALSE(hasRule(lintContent("tests/kernels_test.cpp", type),
                         "raw-intrinsics"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// uses _mm256_add_ps( under the hood\nint x;\n"),
        "raw-intrinsics"));
}

TEST(LintToolTest, IostreamOnlyOutsideLibrary)
{
    const std::string inc = "#include <iostream>\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", inc),
                        "iostream-in-library"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::cerr << 1;\n"),
                        "iostream-in-library"));
    EXPECT_FALSE(hasRule(lintContent("examples/demo.cpp", inc),
                         "iostream-in-library"));
    EXPECT_FALSE(hasRule(lintContent("bench/b.cpp", inc),
                         "iostream-in-library"));
}

TEST(LintToolTest, SimStdFunctionOnlyOutsideSimHeaders)
{
    const std::string bad =
        "#pragma once\nstruct S { std::function<void()> cb; };\n";
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/sim/event_queue.h", bad),
        "sim-std-function"));
    // Only sim/ library headers are in scope: the event engine's POD
    // dispatch contract does not bind the rest of the library, sim
    // sources, or tests.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.h", bad),
        "sim-std-function"));
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/cluster_sim.cc",
                    "std::function<void()> cb;\n"),
        "sim-std-function"));
    EXPECT_FALSE(hasRule(lintContent("tests/sim_test.cpp",
                                     "std::function<void()> cb;\n"),
                         "sim-std-function"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/pod.h",
                    "#pragma once\n// std::function<void()> is banned\n"),
        "sim-std-function"));
    // Escape hatch for a deliberate exception.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/hook.h",
                    "#pragma once\nstd::function<void()> cb; "
                    "// erec-lint: allow(sim-std-function)\n"),
        "sim-std-function"));
}

TEST(LintToolTest, HeaderHygiene)
{
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "namespace erec {}\n"),
                        "header-pragma-once"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nint x;\n"),
                        "header-namespace"));
    const std::string good =
        "// comment first is fine\n#pragma once\nnamespace erec {}\n";
    const auto diags = lintContent("src/elasticrec/x/a.h", good);
    EXPECT_FALSE(hasRule(diags, "header-pragma-once"));
    EXPECT_FALSE(hasRule(diags, "header-namespace"));
    // Non-library headers need the pragma but not the namespace.
    EXPECT_TRUE(hasRule(lintContent("bench/util.h", "int x;\n"),
                        "header-pragma-once"));
    EXPECT_FALSE(hasRule(lintContent("bench/util.h", "int x;\n"),
                         "header-namespace"));
}

TEST(LintToolTest, AllowCommentSuppresses)
{
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "throw 1; // erec-lint: allow(raw-throw)\n"),
        "raw-throw"));
    // Suppressing one rule does not blanket-suppress others.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "throw std::rand(); // erec-lint: allow(raw-throw)\n"),
        "unseeded-random"));
    // File-scoped suppression for the header rules.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/macros.h",
                    "#pragma once\n// erec-lint: allow(header-namespace)\n"
                    "#define FOO 1\n"),
        "header-namespace"));
}

TEST(LintToolTest, ExcessDefaultParamsFiresOnThreeDefaults)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // Three defaulted parameters: fires.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "void f(int a = 1, double b = 2.0,\n"
                          "       bool c = true);\n}\n"),
        "excess-default-params"));
    // Two defaults: fine.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "void f(int a, int b = 1, int c = 2);\n}\n"),
        "excess-default-params"));
    // Library headers only; sources and benches are exempt.
    const std::string three =
        "void f(int a = 1, int b = 2, int c = 3);\n";
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc", three),
                         "excess-default-params"));
    EXPECT_FALSE(hasRule(
        lintContent("bench/util.h", "#pragma once\n" + three),
        "excess-default-params"));
}

TEST(LintToolTest, ExcessDefaultParamsIgnoresNonDefaultEquals)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // `= default`, `= 0` and comparison operators are not defaults.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "struct S {\n"
                          "  S &operator=(const S &) = default;\n"
                          "  virtual void v() = 0;\n"
                          "  bool ok(int a, int b) { return a == b &&\n"
                          "      a <= b && a >= b && a != b; }\n"
                          "};\n}\n"),
        "excess-default-params"));
    // Defaults hidden inside nested braces (designated initializers)
    // don't count against the enclosing group.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "inline int g() {\n"
                          "  return h({.a = 1, .b = 2, .c = 3});\n"
                          "}\n}\n"),
        "excess-default-params"));
    // Multi-line declarations still count across lines and report the
    // line that opens the parameter list.
    const auto diags = lintContent(
        "src/elasticrec/x/a.h",
        hdr + "void f(\n    int a = 1,\n    int b = 2,\n"
              "    int c = 3);\n}\n");
    ASSERT_TRUE(hasRule(diags, "excess-default-params"));
    for (const auto &d : diags) {
        if (d.rule == "excess-default-params") {
            EXPECT_EQ(d.line, 3);
        }
    }
}

TEST(LintToolTest, ExcessDefaultParamsSuppressible)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    EXPECT_FALSE(hasRule(
        lintContent(
            "src/elasticrec/x/a.h",
            hdr +
                "void f(int a = 1, // erec-lint: allow(excess-default-params)\n"
                "       int b = 2, int c = 3);\n}\n"),
        "excess-default-params"));
}

TEST(LintToolTest, UnannotatedMutexCaughtInLibraryHeaders)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    const auto diags = lintContent(
        "src/elasticrec/x/a.h",
        hdr + "class C {\n  mutable std::mutex mutex_;\n"
              "  int v_ = 0;\n};\n}\n");
    ASSERT_TRUE(hasRule(diags, "unannotated-mutex"));
    for (const auto &d : diags) {
        if (d.rule == "unannotated-mutex") {
            EXPECT_EQ(d.line, 4);
            EXPECT_NE(d.message.find("mutex_"), std::string::npos);
        }
    }
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "class C {\n  std::shared_mutex lock_;\n};\n}\n"),
        "unannotated-mutex"));
}

TEST(LintToolTest, UnannotatedMutexQuietWhenGuarded)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "class C {\n  mutable std::mutex mutex_;\n"
                          "  int v_ ERC_GUARDED_BY(mutex_) = 0;\n"
                          "};\n}\n"),
        "unannotated-mutex"));
    // ERC_PT_GUARDED_BY (pointee guarded) satisfies the rule too.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "class C {\n  std::mutex m_;\n"
                          "  int *p_ ERC_PT_GUARDED_BY(m_) = nullptr;\n"
                          "};\n}\n"),
        "unannotated-mutex"));
    // A GUARDED_BY tied to a *different* mutex does not cover this one.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "class C {\n  std::mutex a_;\n  std::mutex b_;\n"
                          "  int v_ ERC_GUARDED_BY(a_) = 0;\n"
                          "};\n}\n"),
        "unannotated-mutex"));
}

TEST(LintToolTest, UnannotatedMutexScopeAndExemptions)
{
    const std::string body =
        "class C {\n  mutable std::mutex mutex_;\n};\n";
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // Lock holders are not mutex members.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "inline void f() {\n"
                          "  std::unique_lock<std::mutex> lock(m);\n"
                          "}\n}\n"),
        "unannotated-mutex"));
    // Headers only; .cc internals and non-library code are free.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc", body), "unannotated-mutex"));
    EXPECT_FALSE(hasRule(lintContent("tests/a_test.cpp", body),
                         "unannotated-mutex"));
    // runtime/ pool internals are the blessed concurrency module.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/runtime/a.h", hdr + body + "}\n"),
        "unannotated-mutex"));
    // allow() suppression on the member's line.
    EXPECT_FALSE(hasRule(
        lintContent(
            "src/elasticrec/x/a.h",
            hdr + "class C {\n"
                  "  std::mutex m_; // erec-lint: allow(unannotated-mutex)\n"
                  "};\n}\n"),
        "unannotated-mutex"));
}

TEST(LintToolTest, HotPathAnnotationMustPrecedeDeclarator)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // The blessed form: annotation directly before a declaration.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH\nvoid serve(int n);\n}\n"),
        "hot-path-annotation"));
    // Same line is fine too.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH void serve(int n);\n}\n"),
        "hot-path-annotation"));
    // Annotating a variable derives no analyzer root: flagged.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH\nint counter = 0;\n}\n"),
        "hot-path-annotation"));
    // A dangling annotation at the end of a scope: flagged.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nERC_HOT_PATH\n}\n"),
        "hot-path-annotation"));
    // Mentions inside comments are not annotations.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "// ERC_HOT_PATH marks hot roots.\n"
                          "int counter = 0;\n}\n"),
        "hot-path-annotation"));
    // The defining header is exempt (it #defines the macro).
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/common/hotpath.h",
                    "#pragma once\n#define ERC_HOT_PATH\n"
                    "#define ERC_HOT_PATH_ALLOW(reason)\n"
                    "namespace erec {}\n"),
        "hot-path-annotation"));
}

TEST(LintToolTest, HotPathAllowRequiresReason)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // The waiver is the documentation: a reason string is mandatory.
    EXPECT_FALSE(hasRule(
        lintContent(
            "src/elasticrec/x/a.cc",
            "namespace erec {\nvoid f(std::vector<int> *v) {\n"
            "  v->reserve(8); // ERC_HOT_PATH_ALLOW(\"warm-up only\")\n"
            "}\n}\n"),
        "hot-path-annotation"));
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nvoid f(std::vector<int> *v) {\n"
                    "  v->reserve(8); // ERC_HOT_PATH_ALLOW(\"\")\n"
                    "}\n}\n"),
        "hot-path-annotation"));
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nvoid f(std::vector<int> *v) {\n"
                    "  v->reserve(8); // ERC_HOT_PATH_ALLOW()\n"
                    "}\n}\n"),
        "hot-path-annotation"));
    // The rule itself honors erec-lint allow() like every other rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH // erec-lint: "
                          "allow(hot-path-annotation)\n"
                          "int counter = 0;\n}\n"),
        "hot-path-annotation"));
}

TEST(LintToolTest, DiagnosticsCarryLocation)
{
    const auto diags = lintContent("src/elasticrec/x/a.cc",
                                   "int a;\nthrow 1;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_EQ(diags[0].rule, "raw-throw");
    EXPECT_NE(formatDiagnostic(diags[0]).find("a.cc:2: [raw-throw]"),
              std::string::npos);
}

} // namespace
} // namespace erec::lint
