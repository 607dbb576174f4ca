/**
 * @file
 * Tests for the erec_analyze command line (tools/analyze/cli.h), driven
 * over temp trees: exit 0 for a clean tree, 1 for a violation, and 2
 * for every usage, input and config error.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/cli.h"

namespace fs = std::filesystem;

namespace {

/** Runs each test inside a fresh temp directory, so roots are relative
 *  the way they are when the CLI runs from the repo root. */
class AnalyzeCliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        previous_ = fs::current_path();
        dir_ = fs::temp_directory_path() /
               ("analyze_cli_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        fs::current_path(dir_);
    }

    void
    TearDown() override
    {
        fs::current_path(previous_);
        fs::remove_all(dir_);
    }

    static void
    write(const fs::path &path, const std::string &content)
    {
        if (path.has_parent_path())
            fs::create_directories(path.parent_path());
        std::ofstream(path) << content;
    }

    int
    run(const std::vector<std::string> &args)
    {
        out_.str("");
        err_.str("");
        return erec::analyze::runCli(args, out_, err_);
    }

    bool
    errHas(const std::string &text) const
    {
        return err_.str().find(text) != std::string::npos;
    }

    std::ostringstream out_;
    std::ostringstream err_;
    fs::path previous_;
    fs::path dir_;
};

TEST_F(AnalyzeCliTest, LintExitCodes)
{
    write("src/elasticrec/common/a.cc", "int f() { return 1; }\n");
    EXPECT_EQ(run({"lint", "--root", "src"}), 0) << err_.str();
    EXPECT_EQ(out_.str(), "erec_lint: 1 files clean\n");

    write("src/elasticrec/common/b.cc", "void g() { throw 1; }\n");
    EXPECT_EQ(run({"lint", "--root", "src"}), 1);
    EXPECT_TRUE(errHas("src/elasticrec/common/b.cc:1: [raw-throw]"))
        << err_.str();
}

TEST_F(AnalyzeCliTest, ArchExitCodes)
{
    write("layers.conf", "common:\nsim: common\n");
    write("src/elasticrec/common/c.h", "#pragma once\n");
    write("src/elasticrec/sim/s.h",
          "#pragma once\n#include \"elasticrec/common/c.h\"\n");
    const std::vector<std::string> arch = {"arch", "--root", "src",
                                           "--config", "layers.conf"};
    EXPECT_EQ(run(arch), 0) << err_.str();

    write("src/elasticrec/common/bad.h",
          "#pragma once\n#include \"elasticrec/sim/s.h\"\n");
    EXPECT_EQ(run(arch), 1);
    EXPECT_TRUE(errHas("`common` may not include `sim`")) << err_.str();

    auto json = arch;
    json.insert(json.end(), {"--format", "json"});
    EXPECT_EQ(run(json), 1);
    EXPECT_NE(out_.str().find("\"schema\": \"erec_archlint/v1\""),
              std::string::npos);
}

TEST_F(AnalyzeCliTest, HotpathAndConcExitCodes)
{
    write("src/hot.cc", "#define ERC_HOT_PATH\n"
                        "ERC_HOT_PATH\n"
                        "int serve(int n) { return n; }\n");
    EXPECT_EQ(run({"hotpath", "--root", "src"}), 0) << err_.str();
    EXPECT_EQ(run({"conc", "--root", "src"}), 0) << err_.str();

    write("src/hot.cc", "#include <mutex>\n"
                        "#define ERC_HOT_PATH\n"
                        "std::mutex a_;\n"
                        "std::mutex b_;\n"
                        "ERC_HOT_PATH\n"
                        "void ab()\n{\n"
                        "    std::lock_guard<std::mutex> ga(a_);\n"
                        "    std::lock_guard<std::mutex> gb(b_);\n}\n"
                        "void ba()\n{\n"
                        "    std::lock_guard<std::mutex> gb(b_);\n"
                        "    std::lock_guard<std::mutex> ga(a_);\n}\n");
    EXPECT_EQ(run({"hotpath", "--root", "src"}), 1);
    EXPECT_TRUE(errHas("[mutex-lock]")) << err_.str();
    EXPECT_EQ(run({"conc", "--root", "src", "--format", "json"}), 1);
    EXPECT_NE(out_.str().find("\"kind\": \"lock-order-inversion\""),
              std::string::npos);
}

TEST_F(AnalyzeCliTest, UsageInputAndConfigErrorsExitTwo)
{
    write("src/elasticrec/common/a.cc", "int f() { return 1; }\n");
    EXPECT_EQ(run({}), 2);
    EXPECT_EQ(run({"tidy", "--root", "src"}), 2);
    EXPECT_EQ(run({"lint"}), 2);
    EXPECT_EQ(run({"lint", "--root"}), 2);
    EXPECT_EQ(run({"lint", "--root", "src", "--format", "json"}), 2);
    EXPECT_EQ(run({"hotpath", "--root", "src", "--format", "xml"}), 2);
    EXPECT_EQ(run({"arch", "--root", "src"}), 2);
    EXPECT_TRUE(errHas("usage: erec_analyze")) << err_.str();

    EXPECT_EQ(run({"conc", "--root", "missing"}), 2);
    EXPECT_TRUE(errHas("no such file or directory")) << err_.str();
    EXPECT_EQ(run({"arch", "--root", "src", "--config", "missing.conf"}),
              2);
    EXPECT_TRUE(errHas("cannot read")) << err_.str();

    write("layers.conf", "common\n");
    EXPECT_EQ(run({"arch", "--root", "src", "--config", "layers.conf"}), 2);
    EXPECT_TRUE(errHas("layers.conf line 1")) << err_.str();
}

} // namespace
