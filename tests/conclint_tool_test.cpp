/**
 * @file
 * Engine tests for the static concurrency gate (erec_analyze conc):
 * lock-order inversion cycles with both acquisition paths,
 * blocking-under-lock (direct, interprocedural, and the runtime/
 * reporting exemption), annotation coverage, and the false-positive
 * guards the gate promises — try_to_lock/defer_lock scopes,
 * scoped_lock multi-acquire, lambda bodies attributed to the
 * enclosing function, and ERC_CONCLINT_ALLOW waivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/conc.h"

namespace cl = erec::conclint;

namespace {

bool
hasKind(const cl::Analysis &a, const std::string &kind)
{
    return std::any_of(a.violations.begin(), a.violations.end(),
                       [&kind](const cl::Violation &v) {
                           return v.kind == kind;
                       });
}

std::vector<cl::Violation>
ofKind(const cl::Analysis &a, const std::string &kind)
{
    std::vector<cl::Violation> out;
    for (const auto &v : a.violations)
        if (v.kind == kind)
            out.push_back(v);
    return out;
}

cl::Analysis
analyzeOne(const std::string &source,
           const std::string &path = "src/demo.cc")
{
    cl::FileSet files;
    files[path] = source;
    return cl::analyze(files);
}

TEST(ConclintTool, CleanSingleLockPasses)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
int value_;
void set(int v)
{
    std::lock_guard<std::mutex> lock(mu_);
    value_ = v;
}
)");
    EXPECT_TRUE(a.pass()) << cl::renderText(a);
    EXPECT_EQ(a.mutexCount, 1u);
    EXPECT_EQ(a.lockSiteCount, 1u);
    EXPECT_TRUE(a.edges.empty());
}

TEST(ConclintTool, InversionReportsBothAcquisitionPaths)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
void lockAB()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void helper()
{
    std::lock_guard<std::mutex> ga(a_);
}
void lockBA()
{
    std::lock_guard<std::mutex> gb(b_);
    helper();
}
)");
    const auto inv = ofKind(a, "lock-order-inversion");
    ASSERT_EQ(inv.size(), 2u) << cl::renderText(a);
    // One violation per direction, each with its own concrete path —
    // the direct a_->b_ order in lockAB, the interprocedural b_->a_
    // order through lockBA -> helper.
    const std::string text = cl::renderText(a);
    EXPECT_NE(text.find("lockAB"), std::string::npos);
    EXPECT_NE(text.find("lockBA"), std::string::npos);
    EXPECT_NE(text.find("helper"), std::string::npos);
    // The b_->a_ witness names lockBA's helper() call (line 17)
    // between its b_ acquisition and the helper's a_ acquisition.
    EXPECT_NE(text.find("lockBA (src/demo.cc:16) -> lockBA (src/demo.cc:17)"
                        " -> helper (src/demo.cc:12)"),
              std::string::npos)
        << text;
    for (const auto &v : inv)
        EXPECT_FALSE(v.path.empty());
    EXPECT_EQ(a.edges.size(), 2u);
}

TEST(ConclintTool, ConsistentNestingIsNotACycle)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
void first()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void second()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
)");
    EXPECT_EQ(a.edges.size(), 1u); // a_ -> b_ only, deduplicated.
    EXPECT_FALSE(hasKind(a, "lock-order-inversion"))
        << cl::renderText(a);
}

TEST(ConclintTool, TryLockAndDeferLockAreNotAcquisitions)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
void forward()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void probe()
{
    std::lock_guard<std::mutex> gb(b_);
    std::unique_lock<std::mutex> ua(a_, std::try_to_lock);
}
void deferred()
{
    std::lock_guard<std::mutex> gb(b_);
    std::unique_lock<std::mutex> ua(a_, std::defer_lock);
}
)");
    // Only the forward a_ -> b_ edge exists: try_to_lock cannot
    // deadlock and defer_lock does not lock, so neither contributes
    // the reverse edge that would close a cycle.
    ASSERT_EQ(a.edges.size(), 1u) << cl::renderText(a);
    EXPECT_FALSE(hasKind(a, "lock-order-inversion"));
}

TEST(ConclintTool, ScopedLockMultiAcquireIsDeadlockFree)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
void both()
{
    std::scoped_lock lock(a_, b_);
}
void bothReversed()
{
    std::scoped_lock lock(b_, a_);
}
)");
    // std::lock's deadlock-avoidance makes the argument order of one
    // scoped_lock meaningless: no edges between its own arguments.
    EXPECT_TRUE(a.edges.empty()) << cl::renderText(a);
    EXPECT_FALSE(hasKind(a, "lock-order-inversion"));
    EXPECT_EQ(a.lockSiteCount, 4u);
}

TEST(ConclintTool, ScopedLockHoldsAgainstLaterAcquisitions)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
std::mutex c_;
void stacked()
{
    std::scoped_lock lock(a_, b_);
    std::lock_guard<std::mutex> gc(c_);
}
)");
    // Both scoped_lock members order against the later c_ guard.
    EXPECT_EQ(a.edges.size(), 2u) << cl::renderText(a);
}

TEST(ConclintTool, SleepUnderLockFlagged)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
)");
    const auto blocks = ofKind(a, "blocking-under-lock");
    ASSERT_EQ(blocks.size(), 1u) << cl::renderText(a);
    EXPECT_NE(blocks[0].message.find("sleeps"), std::string::npos);
}

TEST(ConclintTool, SleepOutsideLockScopeIsFine)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
)");
    EXPECT_FALSE(hasKind(a, "blocking-under-lock"))
        << cl::renderText(a);
}

TEST(ConclintTool, ManualUnlockEndsTheHeldScope)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    std::unique_lock<std::mutex> lock(mu_);
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lock.lock();
}
)");
    EXPECT_FALSE(hasKind(a, "blocking-under-lock"))
        << cl::renderText(a);
}

TEST(ConclintTool, FutureJoinUnderLockFlagged)
{
    const auto a = analyzeOne(R"(
#include <future>
#include <mutex>
std::mutex mu_;
void f(std::future<int> &fut)
{
    std::lock_guard<std::mutex> lock(mu_);
    int v = fut.get();
    (void)v;
}
)");
    const auto blocks = ofKind(a, "blocking-under-lock");
    ASSERT_EQ(blocks.size(), 1u) << cl::renderText(a);
    EXPECT_NE(blocks[0].message.find("future"), std::string::npos);
}

TEST(ConclintTool, UniquePtrGetIsNotAFutureJoin)
{
    const auto a = analyzeOne(R"(
#include <memory>
#include <mutex>
#include <vector>
std::mutex mu_;
std::vector<std::unique_ptr<int>> slots_ ERC_GUARDED_BY(mu_);
int *f(int i)
{
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[i].get();
}
)");
    // `slots_[i].get()` has a bracketed receiver, not a plain
    // identifier: smart-pointer access, not a blocking join.
    EXPECT_FALSE(hasKind(a, "blocking-under-lock"))
        << cl::renderText(a);
}

TEST(ConclintTool, PredicatelessCvWaitFlagged)
{
    const auto a = analyzeOne(R"(
#include <condition_variable>
#include <mutex>
std::mutex mu_;
std::condition_variable cv_;
bool ready_ ERC_GUARDED_BY(mu_);
void bad()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock);
}
)");
    const auto blocks = ofKind(a, "blocking-under-lock");
    ASSERT_EQ(blocks.size(), 1u) << cl::renderText(a);
    EXPECT_NE(blocks[0].message.find("predicate"), std::string::npos);
}

TEST(ConclintTool, PredicatedCvWaitIsFine)
{
    const auto a = analyzeOne(R"(
#include <condition_variable>
#include <mutex>
std::mutex mu_;
std::condition_variable cv_;
bool ready_ ERC_GUARDED_BY(mu_);
void good()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return ready_; });
}
)");
    EXPECT_FALSE(hasKind(a, "blocking-under-lock"))
        << cl::renderText(a);
}

TEST(ConclintTool, RuntimeFilesExemptFromReportsButSummariesFlow)
{
    cl::FileSet files;
    // The blessed queue blocks under its own lock: no report there.
    files["src/elasticrec/runtime/queue.h"] = R"(
#include <condition_variable>
#include <mutex>
struct Queue {
    bool push(int v)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (full_)
            notFull_.wait(lock);
        return true;
    }
    std::mutex mutex_;
    std::condition_variable notFull_;
    bool full_ ERC_GUARDED_BY(mutex_) = false;
};
)";
    // ...but a library caller invoking it under another lock is real.
    files["src/elasticrec/serving/fanout.cc"] = R"(
#include <mutex>
std::mutex tableMu_;
int table_ ERC_GUARDED_BY(tableMu_);
void fanout(Queue &q)
{
    std::lock_guard<std::mutex> lock(tableMu_);
    table_ += 1;
    q.push(table_);
}
)";
    const auto a = cl::analyze(files);
    const auto blocks = ofKind(a, "blocking-under-lock");
    ASSERT_EQ(blocks.size(), 1u) << cl::renderText(a);
    EXPECT_EQ(blocks[0].file, "src/elasticrec/serving/fanout.cc");
    EXPECT_NE(blocks[0].message.find("push"), std::string::npos);
    // The witness path reaches through push into the actual wait.
    EXPECT_GE(blocks[0].path.size(), 2u);
}

TEST(ConclintTool, LambdaBodyAttributesToEnclosingFunction)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    std::lock_guard<std::mutex> lock(mu_);
    auto task = [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    task();
}
)");
    // The extractor skips lambda bodies as units of `f`, so the sleep
    // is reported against f (the over-approximation the gate
    // documents), not against a phantom anonymous function.
    const auto blocks = ofKind(a, "blocking-under-lock");
    ASSERT_EQ(blocks.size(), 1u) << cl::renderText(a);
    EXPECT_EQ(blocks[0].function, "f");
}

TEST(ConclintTool, AllowWaivesLineAndLineAbove)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    std::lock_guard<std::mutex> lock(mu_);
    // ERC_CONCLINT_ALLOW("test: trailing-comment waiver")
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
)");
    EXPECT_FALSE(hasKind(a, "blocking-under-lock"))
        << cl::renderText(a);
}

TEST(ConclintTool, FunctionLevelAllowExemptsBodyAndSummaries)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex a_;
std::mutex b_;
// ERC_CONCLINT_ALLOW("test: whole function exempt")
void reversed()
{
    std::lock_guard<std::mutex> gb(b_);
    std::lock_guard<std::mutex> ga(a_);
}
void forward()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void caller()
{
    std::lock_guard<std::mutex> ga(a_);
    reversed();
}
)");
    // The exempt function contributes neither direct edges nor
    // summaries through the call in caller().
    ASSERT_EQ(a.edges.size(), 1u) << cl::renderText(a);
    EXPECT_EQ(a.edges[0].from.find("a_") != std::string::npos, true);
    EXPECT_FALSE(hasKind(a, "lock-order-inversion"));
}

TEST(ConclintTool, UnannotatedMutexInLibraryHeaderFlagged)
{
    const auto a = analyzeOne(R"(
#pragma once
#include <mutex>
struct Counter {
    std::mutex mu_;
    int count_ = 0;
};
)",
                              "src/elasticrec/x/counter.h");
    const auto cov = ofKind(a, "unannotated-mutex");
    ASSERT_EQ(cov.size(), 1u) << cl::renderText(a);
    EXPECT_NE(cov[0].message.find("ERC_GUARDED_BY"),
              std::string::npos);
}

TEST(ConclintTool, AnnotatedMutexAndCoverageExemptionPass)
{
    // Annotated member: clean.
    const auto annotated = analyzeOne(R"(
#pragma once
#include <mutex>
struct Counter {
    std::mutex mu_;
    int count_ ERC_GUARDED_BY(mu_) = 0;
};
)",
                                      "src/elasticrec/x/counter.h");
    EXPECT_FALSE(hasKind(annotated, "unannotated-mutex"))
        << cl::renderText(annotated);

    // ERC_CONCLINT_ALLOW on the declaration waives coverage.
    const auto waived = analyzeOne(R"(
#pragma once
#include <mutex>
struct Standalone {
    // ERC_CONCLINT_ALLOW("test: guards external state")
    std::mutex mu_;
};
)",
                                   "src/elasticrec/x/standalone.h");
    EXPECT_FALSE(hasKind(waived, "unannotated-mutex"))
        << cl::renderText(waived);

    // Non-library files are out of scope for coverage.
    const auto test_file = analyzeOne(R"(
#include <mutex>
struct Fixture {
    std::mutex mu_;
};
)",
                                      "tests/fixture_test.cpp");
    EXPECT_FALSE(hasKind(test_file, "unannotated-mutex"));
}

TEST(ConclintTool, UnguardedAccessNeedsLockOrCapabilityAnnotation)
{
    const auto a = analyzeOne(R"(
#pragma once
#include <mutex>
struct Counter {
    void locked() { std::lock_guard<std::mutex> g(mu_); ++count_; }
    void annotated() ERC_REQUIRES(mu_) { ++count_; }
    int racy() { return count_; }
    std::mutex mu_;
    int count_ ERC_GUARDED_BY(mu_) = 0;
};
)",
                              "src/elasticrec/x/counter.h");
    const auto cov = ofKind(a, "unguarded-access");
    ASSERT_EQ(cov.size(), 1u) << cl::renderText(a);
    EXPECT_EQ(cov[0].function, "racy");
}

TEST(ConclintTool, ConstructorsExemptFromUnguardedAccess)
{
    const auto a = analyzeOne(R"(
#pragma once
#include <mutex>
struct Counter {
    Counter(int start) { count_ = start; }
    ~Counter() { count_ = 0; }
    std::mutex mu_;
    int count_ ERC_GUARDED_BY(mu_) = 0;
};
)",
                              "src/elasticrec/x/counter.h");
    EXPECT_FALSE(hasKind(a, "unguarded-access")) << cl::renderText(a);
}

TEST(ConclintTool, JsonRenderingCarriesSchemaAndFindings)
{
    const auto a = analyzeOne(R"(
#include <mutex>
std::mutex mu_;
void f()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
)");
    const std::string json = cl::renderJson(a);
    EXPECT_NE(json.find("\"schema\": \"erec_conclint/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
    EXPECT_NE(json.find("blocking-under-lock"), std::string::npos);
    EXPECT_NE(json.find("\"path\""), std::string::npos);
}

} // namespace
