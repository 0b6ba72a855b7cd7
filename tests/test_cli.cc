/**
 * @file
 * Numeric command-line flags, end to end against the real simalpha
 * binary (SIMALPHA_BIN). Every parser of simalpha — campaign, vuln,
 * store, serve, fleet, submit and bench — reads its numbers through
 * common/number: a value that is not a whole decimal fitting the
 * flag's type (or a finite decimal, for seconds) exits 2 naming the
 * flag, where it used to run with a truncated (`1e6` → 1, `20k` → 20),
 * wrapped (`-1` → 2^64-1) or defaulted (`four` → 0 = all cores) value.
 *
 * Each rejected command line leaves out an argument its command needs,
 * so a binary that accepted the number would stop at that error
 * instead — without naming the flag — rather than run.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Exit
{
    int code = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

/** Run `simalpha <args>` and collect its exit code and output. */
Exit
simalpha(const std::string &args)
{
    const std::string stem = testing::TempDir() + "simalpha-cli-" +
                             std::to_string(::getpid());
    const std::string cmd = std::string("exec ") + SIMALPHA_BIN + " " +
                            args + " >'" + stem + ".out' 2>'" + stem +
                            ".err' </dev/null";
    const int status = std::system(cmd.c_str());
    Exit e;
    e.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    e.out = slurp(stem + ".out");
    e.err = slurp(stem + ".err");
    return e;
}

/** `<command> <flag> <value>` must exit 2 with both named on stderr. */
void
expectRejected(const std::string &command, const std::string &flag,
               const std::string &value)
{
    const Exit e = simalpha(command + " " + flag + " '" + value + "'");
    EXPECT_EQ(e.code, 2) << command << " " << flag << " " << value
                         << "\n" << e.err;
    EXPECT_NE(e.err.find(flag + ": '" + value + "'"), std::string::npos)
        << command << " " << flag << " " << value << "\n" << e.err;
}

/** The inputs that used to run: a float, a suffix, a sign, a word. */
const std::vector<std::string> kNotUnsigned = {"1e6", "20k", "-1",
                                               "four"};
const std::vector<std::string> kNotInt = {"1e6", "20k", "four",
                                          "99999999999"};
const std::vector<std::string> kNotSeconds = {"inf", "nan", "2s",
                                              "0x10", "four"};

} // namespace

TEST(CliNumbers, CampaignParserRejectsMalformedNumbers)
{
    // The single-run path first: a capped run used to cap at 1.
    for (const std::string &v : kNotUnsigned)
        expectRejected("--machine sim-alpha --workload C-R",
                       "--max-insts", v);
    for (const std::string &v : kNotInt) {
        expectRejected("--campaign no-such-campaign", "--jobs", v);
        expectRejected("--campaign no-such-campaign", "--shards", v);
        expectRejected("--campaign no-such-campaign", "--retries", v);
    }
    for (const std::string &v : kNotSeconds)
        expectRejected("--campaign no-such-campaign", "--cell-timeout",
                       v);
}

TEST(CliNumbers, VulnParserRejectsMalformedNumbers)
{
    for (const std::string &v : kNotUnsigned) {
        expectRejected("vuln", "--max-insts", v);
        expectRejected("vuln", "--cells", v);
        expectRejected("vuln", "--seed", v);
    }
    for (const std::string &v : kNotInt)
        expectRejected("vuln", "--jobs", v);
}

TEST(CliNumbers, StoreParserRejectsMalformedNumbers)
{
    for (const std::string &v : kNotUnsigned)
        expectRejected("store gc", "--max-bytes", v);
    for (const std::string &v : kNotSeconds)
        expectRejected("store gc", "--max-age", v);
}

TEST(CliNumbers, ServeParserRejectsMalformedNumbers)
{
    for (const std::string &v : kNotUnsigned) {
        expectRejected("serve", "--max-pending", v);
        expectRejected("serve", "--max-cells", v);
    }
    for (const std::string &v : kNotInt) {
        expectRejected("serve", "--jobs", v);
        expectRejected("serve", "--shards", v);
    }
    for (const std::string &v : kNotSeconds)
        expectRejected("serve", "--drain-timeout", v);
}

TEST(CliNumbers, FleetParserRejectsMalformedNumbers)
{
    for (const std::string &v : kNotUnsigned) {
        expectRejected("fleet", "--seed", v);
        expectRejected("fleet", "--max-client-cells", v);
    }
    for (const std::string &v : kNotInt) {
        expectRejected("fleet", "--retries", v);
        expectRejected("fleet", "--redispatch", v);
    }
    for (const std::string &v : kNotSeconds)
        expectRejected("fleet", "--worker-timeout", v);
}

TEST(CliNumbers, SubmitParserRejectsMalformedNumbers)
{
    for (const std::string &v : kNotUnsigned) {
        expectRejected("submit", "--max-insts", v);
        expectRejected("submit", "--seed", v);
    }
    for (const std::string &v : kNotInt)
        expectRejected("submit", "--retries", v);
    for (const std::string &v : kNotSeconds)
        expectRejected("submit", "--timeout", v);
}

TEST(CliNumbers, BenchParserRejectsMalformedNumbers)
{
    // --check of a missing file is a fast exit 1 once parsing passes.
    for (const std::string &v : kNotUnsigned)
        expectRejected("bench --check /nonexistent/BENCH_perf.json",
                       "--max-insts", v);
}

TEST(CliNumbers, WholeDecimalsStillRun)
{
    const Exit run = simalpha("--machine sim-alpha --workload C-R "
                              "--max-insts 20000");
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("finished  inst-limit"), std::string::npos)
        << run.out;

    const Exit campaign = simalpha("--campaign smoke --max-insts 20000 "
                                   "--jobs 1 --no-journal");
    EXPECT_EQ(campaign.code, 0) << campaign.err;
    EXPECT_NE(campaign.out.find("cells       12 (12 ok, 0 failed)"),
              std::string::npos)
        << campaign.out;
}

TEST(CliNumbers, CampaignNameNumbersAreChecked)
{
    // The numbers inside vuln: and shard: names read through the same
    // parser: one past 2^64-1 is no campaign, where a vuln cap used to
    // wrap to 1 and run.
    for (const std::string &name :
         {std::string("vuln:sim-alpha:C-R:18446744073709551617:2:1:"
                      "regfile"),
          std::string("vuln:sim-alpha:C-R:1000:18446744073709551618:1:"
                      "regfile"),
          std::string("shard:0/18446744073709551616:smoke")}) {
        const Exit e = simalpha("--campaign '" + name + "' --no-journal");
        EXPECT_EQ(e.code, 2) << name << "\n" << e.err;
        EXPECT_NE(e.err.find("unknown campaign"), std::string::npos)
            << name << "\n" << e.err;
    }
}
