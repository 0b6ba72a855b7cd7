/**
 * @file
 * Unit tests for the common foundation: statistics, configuration,
 * deterministic RNG, logging counters, the Ring window container, and
 * the command-line flag tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"

using namespace simalpha;

TEST(Counter, StartsAtZeroAndIncrements)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    ++c;
    EXPECT_EQ(c.value(), 2u);
    c += 40;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SetAndReset)
{
    stats::Counter c;
    c.set(100);
    EXPECT_EQ(c.value(), 100u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, BucketsSamplesCorrectly)
{
    stats::Distribution d(0, 9, 1);
    d.sample(0);
    d.sample(5);
    d.sample(5);
    d.sample(9);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.bucketCount(5), 2u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.overflow(), 0u);
}

TEST(Distribution, OverflowTracked)
{
    stats::Distribution d(0, 9, 1);
    d.sample(100);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.samples(), 1u);
}

TEST(Distribution, MeanComputed)
{
    stats::Distribution d(0, 63, 1);
    d.sample(2);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Distribution, WideBuckets)
{
    stats::Distribution d(0, 99, 10);
    d.sample(5);
    d.sample(15);
    d.sample(19);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
}

TEST(StatsGroup, CounterLazilyCreated)
{
    stats::Group g("test");
    EXPECT_FALSE(g.has("events"));
    ++g.counter("events");
    EXPECT_TRUE(g.has("events"));
    EXPECT_EQ(g.get("events"), 1u);
}

TEST(StatsGroup, GetOfUnknownCounterIsZero)
{
    stats::Group g("test");
    EXPECT_EQ(g.get("nothing"), 0u);
}

TEST(StatsGroup, ResetClearsEverything)
{
    stats::Group g("test");
    g.counter("a") += 5;
    g.distribution("d").sample(3);
    g.reset();
    EXPECT_EQ(g.get("a"), 0u);
    EXPECT_EQ(g.distribution("d").samples(), 0u);
}

TEST(StatsGroup, DumpIncludesNameAndFormulas)
{
    stats::Group g("m");
    g.counter("x").set(7);
    g.formula("twice_x", [&]() { return double(g.get("x")) * 2; });
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("m.x 7"), std::string::npos);
    EXPECT_NE(out.find("m.twice_x 14"), std::string::npos);
}

TEST(StatsGroup, CounterNamesSorted)
{
    stats::Group g("m");
    g.counter("zeta");
    g.counter("alpha");
    auto names = g.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Means, HarmonicMean)
{
    // Harmonic mean of 1 and 3 is 1.5.
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 3.0}), 1.5);
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Means, HarmonicLessThanArithmetic)
{
    std::vector<double> xs{0.5, 1.0, 4.0};
    EXPECT_LT(harmonicMean(xs), arithmeticMean(xs));
}

TEST(Means, StdDeviation)
{
    EXPECT_DOUBLE_EQ(stdDeviation({2.0, 2.0}), 0.0);
    EXPECT_NEAR(stdDeviation({1.0, 3.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(stdDeviation({5.0}), 0.0);
}

TEST(Config, TypedRoundTrip)
{
    Config c;
    c.set("width", std::int64_t(4));
    c.set("enabled", true);
    c.set("rate", 0.25);
    c.set("name", "sim-alpha");
    EXPECT_EQ(c.getInt("width"), 4);
    EXPECT_TRUE(c.getBool("enabled"));
    EXPECT_DOUBLE_EQ(c.getDouble("rate"), 0.25);
    EXPECT_EQ(c.getString("name"), "sim-alpha");
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(c.getString("missing", "dflt"), "dflt");
}

TEST(Config, HasAndOverwrite)
{
    Config c;
    EXPECT_FALSE(c.has("k"));
    c.set("k", std::int64_t(1));
    EXPECT_TRUE(c.has("k"));
    c.set("k", std::int64_t(2));
    EXPECT_EQ(c.getInt("k"), 2);
}

TEST(Config, MergeOtherWins)
{
    Config a, b;
    a.set("x", std::int64_t(1));
    a.set("y", std::int64_t(2));
    b.set("y", std::int64_t(20));
    a.merge(b);
    EXPECT_EQ(a.getInt("x"), 1);
    EXPECT_EQ(a.getInt("y"), 20);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("b", std::int64_t(1));
    c.set("a", std::int64_t(1));
    auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Random, BelowInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(10), 10u);
}

TEST(Random, UnitInRange)
{
    Random r(9);
    for (int i = 0; i < 1000; i++) {
        double u = r.unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, ChanceExtremes)
{
    Random r(11);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Logging, WarnCountIncrements)
{
    setQuiet(true);
    std::uint64_t before = warnCount();
    warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Ring, DequeOperationsAcrossTheWrap)
{
    Ring<int> r(4);
    for (int i = 0; i < 3; i++)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    r.push_back(3);
    r.push_back(4);         // slots wrap past the array's end
    r.emplace_back() = 5;
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r.front(), 2);
    EXPECT_EQ(r.back(), 5);
    EXPECT_EQ(r[1], 3);
    r.pop_back();
    EXPECT_EQ(r.back(), 4);
    std::vector<int> fwd(r.begin(), r.end());
    std::vector<int> rev(r.rbegin(), r.rend());
    EXPECT_EQ(fwd, (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(rev, (std::vector<int>{4, 3, 2}));
    EXPECT_EQ(*std::lower_bound(r.begin(), r.end(), 3), 3);
    EXPECT_EQ(std::lower_bound(r.begin(), r.end(), 9) - r.begin(), 3);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, ElementsStayPutUntilTheRingGrows)
{
    Ring<int> r(4);
    r.push_back(7);
    r.push_back(8);
    const int *eight = &r[1];
    r.pop_front();
    r.push_back(9);
    r.push_back(10);
    r.push_back(11);        // full, wrapped, and nothing moved
    EXPECT_EQ(&r.front(), eight);
    EXPECT_EQ(*eight, 8);
    r.push_back(12);        // a push onto a full ring doubles it
    std::vector<int> all(r.begin(), r.end());
    EXPECT_EQ(all, (std::vector<int>{8, 9, 10, 11, 12}));
}

// ---------------------------------------------------------------------
// Flags: one table parses argv and renders the help
// ---------------------------------------------------------------------

namespace {

/** A command with a text flag, two numbers, a switch and a hidden
 *  flag, bound to this object's fields. */
struct Demo
{
    std::string out, hidden;
    int jobs = 0;
    double timeout = 0.0;
    bool quiet = false;

    flags::Command
    command()
    {
        return {"demo", "usage: demo [options]\n",
                {{"demo options",
                  {flags::text("--out", "<file>", &out, "where to write"),
                   flags::number("--jobs", "<n>", &jobs,
                                 "worker threads; this help text is long "
                                 "enough to wrap onto a second line"),
                   flags::number("--timeout", "<s>", &timeout, "seconds"),
                   flags::toggle("--quiet", &quiet, "say less"),
                   flags::text("--hidden", "<x>", &hidden, "")}}},
                "epilog\n"};
    }
};

/** parse() over `demo <args>`. */
bool
parseArgs(const flags::Command &command, std::vector<std::string> args)
{
    std::vector<char *> argv{const_cast<char *>("demo")};
    for (std::string &a : args)
        argv.push_back(a.data());
    return flags::parse(command, int(argv.size()), argv.data());
}

/** The ConfigError parse() throws for @p args; "" when it throws none. */
std::string
parseError(const flags::Command &command, std::vector<std::string> args)
{
    try {
        parseArgs(command, std::move(args));
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Flags, BothValueSpellingsParse)
{
    Demo d;
    const flags::Command c = d.command();
    EXPECT_TRUE(parseArgs(c, {"--out", "a.json", "--jobs", "3", "--quiet"}));
    EXPECT_EQ(d.out, "a.json");
    EXPECT_EQ(d.jobs, 3);
    EXPECT_TRUE(d.quiet);

    // `=` splits at its first occurrence; the rest is the value.
    EXPECT_TRUE(parseArgs(c, {"--out=b=c.json", "--jobs=4", "--timeout=0.5"}));
    EXPECT_EQ(d.out, "b=c.json");
    EXPECT_EQ(d.jobs, 4);
    EXPECT_EQ(d.timeout, 0.5);
    EXPECT_TRUE(parseArgs(c, {"--out="}));
    EXPECT_EQ(d.out, "");

    // A separate value is taken verbatim, even one that looks like a flag.
    EXPECT_TRUE(parseArgs(c, {"--out", "--quiet"}));
    EXPECT_EQ(d.out, "--quiet");
}

TEST(Flags, SwitchGivenAValueIsRejected)
{
    Demo d;
    EXPECT_EQ(parseError(d.command(), {"--quiet=1"}),
              "--quiet takes no value");
    EXPECT_EQ(parseError(d.command(), {"--quiet="}),
              "--quiet takes no value");
    EXPECT_FALSE(d.quiet);
}

TEST(Flags, MissingValueAndUnknownFlagAreNamed)
{
    Demo d;
    flags::Command c = d.command();
    EXPECT_EQ(parseError(c, {"--jobs", "2", "--out"}),
              "missing value after --out");
    EXPECT_EQ(parseError(c, {"--bogus"}), "unknown demo option '--bogus'");
    EXPECT_EQ(parseError(c, {"--bogus=1"}),
              "unknown demo option '--bogus=1'");
    EXPECT_EQ(parseError(c, {"stray"}), "unknown demo option 'stray'");
    EXPECT_EQ(parseError(c, {"-o=1"}), "unknown demo option '-o=1'");
    c.name.clear();
    EXPECT_EQ(parseError(c, {"--bogus"}), "unknown option '--bogus'");
}

TEST(Flags, MalformedNumberIsNamedByItsFlag)
{
    Demo d;
    const flags::Command c = d.command();
    EXPECT_EQ(parseError(c, {"--jobs", "four"}),
              "--jobs: 'four' is not a whole number in range");
    EXPECT_EQ(parseError(c, {"--jobs=1e6"}),
              "--jobs: '1e6' is not a whole number in range");
    EXPECT_EQ(parseError(c, {"--timeout", "inf"}),
              "--timeout: 'inf' is not a finite decimal number");
    EXPECT_EQ(d.jobs, 0);
}

TEST(Flags, HelpListsEveryListedFlagAndNoHiddenOne)
{
    Demo d;
    const flags::Command c = d.command();
    const std::string text = flags::help(c);
    EXPECT_EQ(text.rfind("usage: demo [options]\n\ndemo options:\n", 0),
              0u)
        << text;
    for (const char *listed :
         {"  --out <file>        where to write\n", "  --jobs <n>",
          "  --timeout <s>", "  --quiet             say less\n",
          "\nepilog\n"})
        EXPECT_NE(text.find(listed), std::string::npos) << listed;
    EXPECT_EQ(text.find("--hidden"), std::string::npos) << text;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 78u) << line;

    // Hidden is not unknown.
    EXPECT_TRUE(parseArgs(c, {"--hidden", "x"}));
    EXPECT_EQ(d.hidden, "x");

    // --help and -h print the help and stop before later arguments.
    for (const char *help : {"--help", "-h"}) {
        testing::internal::CaptureStdout();
        EXPECT_FALSE(parseArgs(c, {"--jobs", "7", help, "--bogus"}));
        EXPECT_EQ(testing::internal::GetCapturedStdout(), text);
    }
}

TEST(Flags, MutatedArgvParsesOrThrowsConfigError)
{
    Demo d;
    const flags::Command c = d.command();
    std::vector<std::string> tokens = {"=",  "0",    "7",    "-1",
                                       "1e6", "0.5", "inf",  "four",
                                       "",   "--",   "-",    "x=y",
                                       "\xff", "99999999999"};
    for (const flags::Group &g : c.groups)
        for (const flags::Flag &f : g.flags)
            tokens.push_back(f.name);

    std::mt19937_64 rng(20011);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < 4000; i++) {
        std::vector<std::string> args;
        for (std::size_t n = rng() % 6; n; n--) {
            std::string t = tokens[rng() % tokens.size()];
            if (rng() % 4 == 0)
                t += "=" + tokens[rng() % tokens.size()];
            if (rng() % 8 == 0 && !t.empty())
                t.erase(rng() % t.size(), 1);
            args.push_back(t);
        }
        try {
            EXPECT_TRUE(parseArgs(c, args));
            accepted++;
        } catch (const ConfigError &) {
            rejected++;
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}
