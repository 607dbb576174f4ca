/**
 * @file
 * Engine tests for the hot-path discipline gate (erec_analyze hotpath):
 * annotation parsing, call-graph reachability with concrete paths,
 * ALLOW suppression at both line and function level, false-positive
 * guards for comments/strings/preprocessor text, the runtime/ mutex
 * exemption, and the JSON rendering contract CI consumes.
 */

#include <gtest/gtest.h>

#include "tools/analyze/hotpath.h"

namespace hp = erec::hotpath;

namespace {

/** Minimal annotated header: push/popBatch style hot roots. */
const char *kHotHeader = R"(#pragma once
#define ERC_HOT_PATH
#define ERC_HOT_PATH_ALLOW(reason)
namespace demo {
ERC_HOT_PATH
void serve(int n);
}
)";

hp::Analysis
analyzeSource(const std::string &source)
{
    hp::FileSet files;
    files["src/demo.h"] = kHotHeader;
    files["src/demo.cc"] = source;
    return hp::analyze(files);
}

TEST(HotpathTool, CleanHotFunctionPasses)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n)
{
    int total = 0;
    for (int i = 0; i < n; ++i)
        total += i;
    (void)total;
}
}
)");
    EXPECT_EQ(a.rootCount, 1u);
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, DirectAllocationFlagged)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n)
{
    int *p = new int[n];
    delete[] p;
}
}
)");
    ASSERT_EQ(a.violations.size(), 1u) << hp::renderText(a);
    EXPECT_EQ(a.violations[0].kind, "heap-alloc");
    EXPECT_EQ(a.violations[0].function, "serve");
}

TEST(HotpathTool, TransitiveReachabilityReportsCallPath)
{
    const auto a = analyzeSource(R"(
namespace demo {
static int sink[8];
static int cursor = 0;
void leaf(int v)
{
    sink[cursor++ & 7] = v;
    throw v;
}
void middle(int v) { leaf(v); }
void serve(int n) { middle(n); }
}
)");
    ASSERT_EQ(a.violations.size(), 1u) << hp::renderText(a);
    const auto &v = a.violations[0];
    EXPECT_EQ(v.kind, "throw");
    EXPECT_EQ(v.root, "serve");
    ASSERT_EQ(v.path.size(), 3u);
    EXPECT_EQ(v.path[0], "serve");
    EXPECT_EQ(v.path[1], "middle");
    EXPECT_EQ(v.path[2], "leaf");
}

TEST(HotpathTool, UnreachableFunctionsAreNotScanned)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void coldSetup(std::vector<int> *v) { v->push_back(1); }
void serve(int n) { (void)n; }
}
)");
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, TrailingCommentAllowSuppressesLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(int n)
{
    std::vector<int> scratch;
    scratch.reserve(8); // ERC_HOT_PATH_ALLOW("reserve-once: amortized")
    (void)n;
}
}
)");
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, PrecedingLineAllowSuppressesNextLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(std::vector<int> *out)
{
    // ERC_HOT_PATH_ALLOW("bounded by shard count, reuses capacity")
    out->push_back(1);
}
}
)");
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, AllowDoesNotLeakPastTheNextLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(std::vector<int> *out)
{
    out->reserve(4); // ERC_HOT_PATH_ALLOW("warm-up only")
    out->push_back(1);
    out->push_back(2);
}
}
)");
    // The marker covers its own line and the next; the second
    // push_back still fails.
    ASSERT_EQ(a.violations.size(), 1u) << hp::renderText(a);
    EXPECT_EQ(a.violations[0].kind, "container-growth");
}

TEST(HotpathTool, FunctionLevelAllowExemptsAndStopsTraversal)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
std::vector<int> g;
void helper() { g.push_back(1); }
// ERC_HOT_PATH_ALLOW("driver-side: shares a base name with a root")
void serve(int n)
{
    g.push_back(n);
    helper();
}
}
)");
    // serve is exempt and traversal stops there, so helper (only
    // reachable through serve) is never scanned either.
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, CommentsAndStringsDoNotFlag)
{
    const auto a = analyzeSource(R"(
namespace demo {
const char *describe() { return "calls new and push_back"; }
void serve(int n)
{
    // This comment mentions new, throw and std::cout freely.
    const char *what = describe();
    (void)what;
    (void)n;
}
}
)");
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, AnnotationInCommentCreatesNoRoot)
{
    hp::FileSet files;
    files["src/demo.h"] = R"(#pragma once
#define ERC_HOT_PATH
namespace demo {
// A doc mention of ERC_HOT_PATH (this marker) is not an annotation.
void notHot(int n);
}
)";
    files["src/demo.cc"] = R"(
#include <vector>
namespace demo {
void notHot(int n)
{
    std::vector<int> v;
    v.push_back(n);
}
}
)";
    const auto a = hp::analyze(files);
    EXPECT_EQ(a.rootCount, 0u);
    EXPECT_TRUE(a.pass()) << hp::renderText(a);
}

TEST(HotpathTool, MutexLockExemptInRuntimeOnly)
{
    const char *body = R"(
#include <mutex>
namespace demo {
std::mutex m;
ERC_HOT_PATH
void serve(int n)
{
    std::lock_guard<std::mutex> guard(m);
    (void)n;
}
}
)";
    const std::string with_macros =
        std::string("#define ERC_HOT_PATH\n") + body;

    hp::FileSet runtime_files;
    runtime_files["src/elasticrec/runtime/q.cc"] = with_macros;
    EXPECT_TRUE(hp::analyze(runtime_files).pass());

    hp::FileSet serving_files;
    serving_files["src/elasticrec/serving/q.cc"] = with_macros;
    const auto a = hp::analyze(serving_files);
    ASSERT_EQ(a.violations.size(), 1u) << hp::renderText(a);
    EXPECT_EQ(a.violations[0].kind, "mutex-lock");
}

TEST(HotpathTool, BlockingIoAndStringAllocFlagged)
{
    const auto a = analyzeSource(R"(
#include <iostream>
#include <string>
namespace demo {
void serve(int n)
{
    std::cout << n;
    std::string label = std::to_string(n);
    (void)label;
}
}
)");
    ASSERT_EQ(a.violations.size(), 2u) << hp::renderText(a);
    EXPECT_EQ(a.violations[0].kind, "blocking-io");
    EXPECT_EQ(a.violations[1].kind, "string-alloc");
}

TEST(HotpathTool, ExtractorHandlesCtorInitListAndTrailingTokens)
{
    const auto defs = erec::analyze::extractFunctions("src/x.cc", R"(
struct Widget
{
    explicit Widget(int n) : size_(n), data_{n, n} {}
    int size() const noexcept { return size_; }
    auto doubled() const -> int { return size_ * 2; }
    int size_;
    int data_[2];
};
int freeFn(int v)
{
    auto lambda = [v](int x) { return x + v; };
    return lambda(v);
}
)");
    ASSERT_EQ(defs.size(), 4u);
    EXPECT_EQ(defs[0].name, "Widget");
    EXPECT_EQ(defs[1].name, "size");
    EXPECT_EQ(defs[2].name, "doubled");
    // The lambda body belongs to freeFn, not a separate definition.
    EXPECT_EQ(defs[3].name, "freeFn");
}

TEST(HotpathTool, ExtractorSeesPastDigitSeparators)
{
    const auto defs = erec::analyze::extractFunctions(
        "src/x.cc", "constexpr int kRows = 1'000;\n"
                    "int rows() { return kRows; }\n");
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].name, "rows");
}

TEST(HotpathTool, QualifiedDefinitionNamesAreReported)
{
    const auto defs = erec::analyze::extractFunctions("src/x.cc", R"(
namespace outer {
struct S { void method(); };
void S::method() {}
}
)");
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].name, "method");
    EXPECT_EQ(defs[0].display, "S::method");
}

TEST(HotpathTool, JsonRenderingContract)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n) { int *p = new int[n]; delete[] p; }
}
)");
    const std::string json = hp::renderJson(a);
    EXPECT_NE(json.find("\"schema\": \"erec_hotpath/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"heap-alloc\""), std::string::npos);
    EXPECT_NE(json.find("\"path\": [\"serve\"]"),
              std::string::npos);

    const auto clean = analyzeSource(R"(
namespace demo {
void serve(int n) { (void)n; }
}
)");
    EXPECT_NE(hp::renderJson(clean).find("\"pass\": true"),
              std::string::npos);
}

TEST(HotpathTool, TextRenderingSummarizesCounts)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n) { (void)n; }
}
)");
    const std::string text = hp::renderText(a);
    EXPECT_NE(text.find("PASS"), std::string::npos);
    EXPECT_NE(text.find("1 hot roots"), std::string::npos);
}

} // namespace
