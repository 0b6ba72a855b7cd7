/**
 * @file
 * The shared JSON codec (common/json.hh) and every typed line parser
 * that reads through it:
 *
 *  - one or more cases per reader rule (object at the top, depth cap,
 *    no arrays or null, escapes, raw control bytes, 64-bit integers,
 *    duplicate keys, whitespace and trailing bytes, ill-typed known
 *    fields);
 *  - every writer round-trips through its typed parser with string
 *    fields holding each byte 0x01-0xff;
 *  - fixed-seed mutation fuzzing of each format: a mutant either fails
 *    (with an error, where the parser reports one) or yields a value
 *    that serializes and parses back to itself;
 *  - the same for the text specs taken from outside (sample, inject
 *    and fault specs, cell lists, vuln: and shard: campaign names):
 *    a mutant is rejected with an error, or formats back to text that
 *    re-parses to the same text;
 *  - 64 KiB and 8 MiB lines of '{' fail without exhausting the stack;
 *  - the committed BENCH_perf.json parses and re-renders byte for
 *    byte, retired rows of older files are dropped, and schema drift
 *    names the offending field.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "common/json.hh"
#include "inject/inject.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/perfbench.hh"
#include "runner/shard.hh"
#include "serve/proto.hh"
#include "store/store.hh"

using namespace simalpha;

namespace {

/** Every byte 0x01-0xff once, in order. */
std::string
allBytes()
{
    std::string s;
    for (int c = 1; c < 256; c++)
        s += char(c);
    return s;
}

/** @p base with every byte 0x01-0xff appended: identifying text stays
 *  readable in failure messages. */
std::string
withAllBytes(const std::string &base)
{
    return base + allBytes();
}

std::string
uniqueDir(const std::string &stem)
{
    static std::atomic<int> counter{0};
    std::string dir = testing::TempDir() + "json-" + stem + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(counter++);
    EXPECT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    return dir;
}

void
removeDir(const std::string &dir)
{
    if (dir.rfind(testing::TempDir(), 0) == 0)
        std::system(("rm -rf '" + dir + "'").c_str());
}

bool
parses(const std::string &text)
{
    json::Value v;
    std::string error;
    bool ok = json::parse(text, &v, &error);
    EXPECT_EQ(ok, error.empty()) << "input: " << text;
    return ok;
}

json::Value
parsed(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(text, &v, &error)) << text << ": " << error;
    return v;
}

/** A test-side writer for the generic control-line maps. */
std::string
flatLine(const std::map<std::string, std::string> &strings,
         const std::map<std::string, std::uint64_t> &numbers)
{
    std::ostringstream line;
    line << '{';
    const char *sep = "";
    for (const auto &[key, value] : strings) {
        line << sep << '"' << json::escape(key) << "\":\""
             << json::escape(value) << '"';
        sep = ",";
    }
    for (const auto &[key, value] : numbers) {
        line << sep << '"' << json::escape(key) << "\":" << value;
        sep = ",";
    }
    line << '}';
    return line.str();
}

runner::CellResult
sampleResult()
{
    runner::CellResult r;
    r.cell.machine = "sim-alpha";
    r.cell.opt = validate::Optimization::BigL1;
    r.cell.workload = "C-Ca";
    r.cell.maxInsts = 20000;
    r.seed = 99;
    r.cell.seed = 99;
    r.manifestHash = "0123456789abcdef";
    r.ok = true;
    r.cycles = 123456;
    r.instsCommitted = 20000;
    r.finished = true;
    r.counters = {{"cycles", 123456}, {"replay_traps", 17}};
    return r;
}

runner::CellResult
sampledResult()
{
    runner::CellResult r = sampleResult();
    r.cell.sample.windows = 10;
    r.cell.sample.len = 1000;
    r.cell.sample.warmup = 500;
    r.sampleWindows = 10;
    r.sampleTotalInsts = 1234567;
    r.sampleIpcMean = 1.25;
    r.sampleIpcStddev = 0.125;
    r.sampleIpcCi = 0.0625;
    return r;
}

runner::CellResult
injectedResult()
{
    runner::CellResult r = sampleResult();
    r.cell.inject.target = inject::Target::Rob;
    r.cell.inject.index = 12345;
    r.cell.inject.bit = 17;
    r.cell.inject.cycle = 1000;
    r.injectOutcome = "sdc";
    r.injectDetail = "arch digest differs";
    return r;
}

runner::CellResult
allBytesResult(runner::CellResult r)
{
    r.cell.machine = withAllBytes("machine");
    r.cell.workload = withAllBytes("workload");
    r.manifestHash = withAllBytes("hash");
    r.error = withAllBytes("error");
    r.errorClass = withAllBytes("class");
    if (r.cell.inject.enabled()) {
        r.injectOutcome = withAllBytes("outcome");
        r.injectDetail = withAllBytes("detail");
    }
    r.counters[withAllBytes("counter")] = 42;
    return r;
}

runner::PerfReport
sampleReport()
{
    runner::PerfReport report;
    for (runner::PerfEntry *e : {&report.baseline, &report.current}) {
        e->buildType = "Release";
        e->maxInsts = 100000;
        e->detailed = {1000034, 0.904334, 1105823.2};
        e->abstracted = {1000013, 0.902551, 1107984.8};
        e->emulator = {1000000, 0.015025, 66555222.2};
        e->valid = true;
    }
    report.speedupDetailed = 2.977;
    return report;
}

// ---------------------------------------------------------------
// Mutation fuzzing
// ---------------------------------------------------------------

constexpr int kMutants = 3000;

/** One to three bit flips, truncations, byte inserts or deletes. */
std::string
mutate(const std::string &line, std::mt19937_64 &rng)
{
    std::string m = line;
    int edits = 1 + int(rng() % 3);
    for (int i = 0; i < edits; i++) {
        switch (rng() % 4) {
          case 0:
            if (!m.empty())
                m[rng() % m.size()] ^= char(1u << (rng() % 8));
            break;
          case 1:
            m.resize(rng() % (m.size() + 1));
            break;
          case 2:
            m.insert(m.begin() + long(rng() % (m.size() + 1)),
                     char(rng() % 256));
            break;
          default:
            if (!m.empty())
                m.erase(rng() % m.size(), 1);
            break;
        }
    }
    return m;
}

/**
 * Feed kMutants mutants of the @p seeds to @p check, which returns
 * true when the typed parser accepted the mutant. Asserts both
 * outcomes occur, so the corpus exercises the accepting paths too.
 */
void
fuzz(const std::vector<std::string> &seeds,
     const std::function<bool(const std::string &)> &check)
{
    std::mt19937_64 rng(20011);
    int accepted = 0;
    for (int i = 0; i < kMutants; i++)
        if (check(mutate(seeds[std::size_t(i) % seeds.size()], rng)))
            accepted++;
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutants);
}

} // namespace

// ---------------------------------------------------------------
// Reader rules
// ---------------------------------------------------------------

TEST(JsonReader, TopLevelValueIsAnObject)
{
    EXPECT_TRUE(parses("{}"));
    EXPECT_TRUE(parses("{\"a\":{}}"));
    for (const char *text : {"", " ", "\"x\"", "1", "true", "false",
                             "null", "[]", "[{}]", "}", "{"})
        EXPECT_FALSE(parses(text)) << text;
}

TEST(JsonReader, ObjectsNestAtMostEightDeep)
{
    auto nested = [](int depth) {
        std::string text = "{}";
        for (int i = 1; i < depth; i++)
            text = "{\"k\":" + text + "}";
        return text;
    };
    EXPECT_EQ(json::kMaxDepth, 8);
    EXPECT_TRUE(parses(nested(8)));
    EXPECT_FALSE(parses(nested(9)));
}

namespace {

/** {"<key>":<member>,...}: @p count members, keys numbered. */
std::string
objectOf(int count, const std::string &member)
{
    std::string text = "{";
    for (int i = 0; i < count; i++)
        text += (i ? ",\"" : "\"") + std::to_string(i) + "\":" + member;
    return text + "}";
}

} // namespace

TEST(JsonReader, MembersAreBudgetedPerDocumentNotPerObject)
{
    EXPECT_EQ(json::kMaxMembers, 4096);
    EXPECT_TRUE(parses(objectOf(4096, "1")));

    // The member past the budget fails, named by its byte offset.
    const std::string over = objectOf(4097, "1");
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(over, &v, &error));
    const std::size_t last = over.rfind(",\"") + 1;
    EXPECT_NE(error.find("too many members at byte " +
                         std::to_string(last)),
              std::string::npos)
        << error;

    // Nesting spends the same budget: 63 objects of 64 members are
    // 4,095 members, 65 of them 4,225.
    const std::string inner = objectOf(64, "1");
    EXPECT_TRUE(parses(objectOf(63, inner)));
    EXPECT_FALSE(parses(objectOf(65, inner)));

    // A sync-sized line of empty members stops at the budget instead
    // of building a value per six bytes.
    std::string flood = "{";
    while (flood.size() + 8 < serve::kMaxSyncLineBytes)
        flood += "\"\":{},";
    flood += "\"\":{}}";
    EXPECT_FALSE(json::parse(flood, &v, &error));
    EXPECT_NE(error.find("too many members at byte " +
                         std::to_string(1 + 6 * json::kMaxMembers)),
              std::string::npos)
        << error;
}

TEST(JsonReader, NoArraysAndNoNull)
{
    EXPECT_FALSE(parses("{\"a\":[]}"));
    EXPECT_FALSE(parses("{\"a\":[1,2]}"));
    EXPECT_FALSE(parses("{\"a\":null}"));
    EXPECT_FALSE(parses("{\"a\":nul}"));
    EXPECT_FALSE(parses("{\"a\":tru}"));
}

TEST(JsonReader, StringsTakeEscapeOutputAndJsonsOneCharacterEscapes)
{
    std::string text = allBytes();
    std::string back;
    ASSERT_TRUE(json::field(parsed("{\"s\":\"" + json::escape(text) +
                                   "\"}"),
                            "s", &back, nullptr, true));
    EXPECT_EQ(back, text);

    ASSERT_TRUE(json::field(
        parsed("{\"s\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\\u00e9\\u00FF\"}"),
        "s", &back, nullptr, true));
    EXPECT_EQ(back, "\"\\/\b\f\n\r\tA\xe9\xff");

    // Keys unescape the same way.
    json::Value v = parsed("{\"\\u0041\\n\":1}");
    EXPECT_NE(v.find("A\n"), nullptr);

    EXPECT_FALSE(parses("{\"s\":\"\\x41\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\u00g1\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\u00\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\u+0ff\"}"));
    EXPECT_FALSE(parses("{\"s\":\"abc\\\"}"));
    EXPECT_FALSE(parses("{\"s\":\"abc}"));
}

TEST(JsonReader, UnicodeEscapesAbove00FFAreRejected)
{
    EXPECT_TRUE(parses("{\"s\":\"\\u00ff\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\u0100\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\u20ac\"}"));
    EXPECT_FALSE(parses("{\"s\":\"\\uD83D\\uDE00\"}"));
}

TEST(JsonReader, RawControlBytesInStringsAreRejected)
{
    for (int c = 0; c < 0x20; c++) {
        std::string text = "{\"s\":\"a";
        text += char(c);
        text += "b\"}";
        EXPECT_FALSE(parses(text)) << "byte " << c;
        std::string key = "{\"a";
        key += char(c);
        key += "\":1}";
        EXPECT_FALSE(parses(key)) << "byte " << c;
    }
    // Bytes from 0x7f up pass through verbatim.
    std::string high;
    for (int c = 0x7f; c < 256; c++)
        high += char(c);
    std::string back;
    ASSERT_TRUE(json::field(parsed("{\"s\":\"" + high + "\"}"), "s",
                            &back, nullptr, true));
    EXPECT_EQ(back, high);
}

TEST(JsonReader, UnsignedIntegersAreDigitRunsThatFitIn64Bits)
{
    std::uint64_t n = 7;
    json::Value v = parsed(
        "{\"max\":18446744073709551615,\"over\":18446744073709551616,"
        "\"zero\":0,\"neg\":-1,\"frac\":1.5,\"exp\":1e3,\"s\":\"12\"}");
    ASSERT_TRUE(json::field(v, "max", &n, nullptr, true));
    EXPECT_EQ(n, 18446744073709551615ull);
    ASSERT_TRUE(json::field(v, "zero", &n, nullptr, true));
    EXPECT_EQ(n, 0u);
    n = 7;
    for (const char *key : {"over", "neg", "frac", "exp", "s"}) {
        std::string error;
        EXPECT_FALSE(json::field(v, key, &n, &error)) << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
        EXPECT_EQ(n, 7u) << "a failed read leaves the output untouched";
    }

    // Every number is still a double; out-of-range ones are not.
    double d = 0;
    ASSERT_TRUE(json::field(v, "frac", &d, nullptr, true));
    EXPECT_EQ(d, 1.5);
    ASSERT_TRUE(json::field(v, "neg", &d, nullptr, true));
    EXPECT_EQ(d, -1.0);
    EXPECT_FALSE(json::field(parsed("{\"d\":1e999}"), "d", &d, nullptr));

    // JSON's number grammar: no leading zeros, '+', bare '.', or 'e'.
    for (const char *text : {"{\"n\":01}", "{\"n\":+1}", "{\"n\":1.}",
                             "{\"n\":.5}", "{\"n\":1e}", "{\"n\":-}",
                             "{\"n\":0x10}"})
        EXPECT_FALSE(parses(text)) << text;
}

TEST(JsonReader, DuplicateKeysKeepTheLastValue)
{
    json::Value v = parsed("{\"a\":1,\"a\":\"two\",\"b\":{\"c\":1},"
                           "\"b\":{\"d\":2}}");
    std::string s;
    EXPECT_TRUE(json::field(v, "a", &s, nullptr, true));
    EXPECT_EQ(s, "two");
    const json::Value *b = nullptr;
    ASSERT_TRUE(json::field(v, "b", &b, nullptr, true));
    EXPECT_EQ(b->find("c"), nullptr);
    EXPECT_NE(b->find("d"), nullptr);

    // Typed parsers see the last occurrence too.
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(serve::parseServeLine(
        "{\"serve\":1,\"a\":\"x\",\"a\":2,\"b\":1,\"b\":\"y\"}",
        &strings, &numbers));
    EXPECT_EQ(strings.count("a"), 0u);
    EXPECT_EQ(numbers["a"], 2u);
    EXPECT_EQ(numbers.count("b"), 0u);
    EXPECT_EQ(strings["b"], "y");

    std::string line = runner::journalLine("camp", sampleResult());
    line.insert(line.size() - 1, ",\"counters\":{\"only\":5}");
    runner::CellResult r;
    std::string key;
    ASSERT_TRUE(runner::parseJournalLine(line, "camp", &r, &key));
    EXPECT_EQ(r.counters,
              (std::map<std::string, std::uint64_t>{{"only", 5}}));
}

TEST(JsonReader, WhitespaceBetweenTokensButNoTrailingBytes)
{
    EXPECT_TRUE(parses(" \t\r\n{ \"a\" :\n1 ,\t\"b\" : { } }\n "));
    EXPECT_FALSE(parses("{\"a\":1}x"));
    EXPECT_FALSE(parses("{\"a\":1}{}"));
    EXPECT_FALSE(parses("{\"a\":1},"));
    EXPECT_FALSE(parses("{\"a\":1,}"));
    EXPECT_FALSE(parses("{\"a\" 1}"));
    EXPECT_FALSE(parses("{,}"));
    // Only JSON's four whitespace bytes.
    EXPECT_FALSE(parses("\v{}"));
    EXPECT_FALSE(parses("{}\f"));
}

TEST(JsonReader, ErrorsNameTheByteOffset)
{
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\":1,\"b\"}", &v, &error));
    EXPECT_NE(error.find("byte 10"), std::string::npos) << error;
}

TEST(JsonReader, FieldsOfTheWrongTypeFailAndNameTheField)
{
    json::Value v = parsed("{\"s\":\"x\",\"n\":1,\"b\":true,\"o\":{}}");
    std::string s;
    std::uint64_t n = 0;
    bool b = false;
    double d = 0;
    const json::Value *o = nullptr;
    std::string error;
    EXPECT_FALSE(json::field(v, "n", &s, &error));
    EXPECT_EQ(error, "field \"n\" has the wrong type");
    EXPECT_FALSE(json::field(v, "s", &n, &error));
    EXPECT_FALSE(json::field(v, "o", &b, &error));
    EXPECT_FALSE(json::field(v, "b", &d, &error));
    EXPECT_FALSE(json::field(v, "s", &o, &error));
    EXPECT_EQ(error, "field \"s\" has the wrong type");

    // Absent: fine unless required, and the output keeps its value.
    s = "default";
    EXPECT_TRUE(json::field(v, "missing", &s, &error));
    EXPECT_EQ(s, "default");
    EXPECT_FALSE(json::field(v, "missing", &s, &error, true));
    EXPECT_EQ(error, "missing field \"missing\"");

    // The typed parsers fail the whole line on an ill-typed known
    // field instead of falling back to a default.
    std::string line = runner::journalLine("camp", sampleResult());
    runner::CellResult r;
    std::string key;
    ASSERT_TRUE(runner::parseJournalLine(line, "camp", &r, &key));
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"cycles\":123456", "\"cycles\":\"123456\""},
             {"\"ok\":true", "\"ok\":1"},
             {"\"machine\":\"sim-alpha\"", "\"machine\":7"},
             {"\"finished\":true", "\"finished\":\"true\""},
             {"\"replay_traps\":17", "\"replay_traps\":\"17\""},
             {"\"replay_traps\":17", "\"replay_traps\":-17"},
             {"\"optimization\":\"bigl1\"", "\"optimization\":\"turbo\""},
         }) {
        std::string bad = line;
        bad.replace(bad.find(from), from.size(), to);
        EXPECT_FALSE(runner::parseJournalLine(bad, "camp", &r, &key))
            << bad;
    }

    std::size_t cell = 0;
    EXPECT_FALSE(runner::parseHeartbeatLine(
        "{\"campaign\":\"c\",\"heartbeat\":\"start\",\"cell\":\"3\"}",
        "c", &cell));
    runner::StoreTraffic t;
    EXPECT_FALSE(runner::parseStoreSummaryLine(
        "{\"campaign\":\"c\",\"store_summary\":{\"hits\":1,"
        "\"misses\":\"2\",\"bytes_read\":3,\"bytes_written\":4}}",
        "c", &t));
    std::string k, payload;
    EXPECT_FALSE(store::ResultStore::parseExportLine(
        "{\"key\":1,\"payload\":\"p\"}", &k, &payload));
}

TEST(JsonReader, JournalLinesNestOnlyCountersOfIntegers)
{
    std::string line = runner::journalLine("camp", sampleResult());
    runner::CellResult r;
    std::string key;
    std::string nested = line;
    nested.insert(nested.size() - 1, ",\"extra\":{}");
    EXPECT_FALSE(runner::parseJournalLine(nested, "camp", &r, &key));
    std::string deep = line;
    deep.replace(deep.find("\"replay_traps\":17"), 17,
                 "\"replay_traps\":{}");
    EXPECT_FALSE(runner::parseJournalLine(deep, "camp", &r, &key));
    std::string unknown = line;
    unknown.insert(unknown.size() - 1, ",\"later\":\"field\"");
    EXPECT_TRUE(runner::parseJournalLine(unknown, "camp", &r, &key));
}

TEST(JsonReader, RequestsAndControlLinesStayFlat)
{
    serve::Request req;
    std::string error;
    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"health\",\"extra\":true}", &req, &error));
    EXPECT_NE(error.find("extra"), std::string::npos) << error;
    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"health\",\"extra\":{}}", &req, &error));
    EXPECT_FALSE(serve::parseRequest(
        "{\"op\":\"health\",\"extra\":1.5}", &req, &error));
    EXPECT_TRUE(serve::parseRequest(
        "{\"op\":\"health\",\"extra\":\"fine\",\"more\":3}", &req,
        &error))
        << error;

    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    EXPECT_FALSE(serve::parseServeLine("{\"serve\":1,\"x\":false}",
                                       &strings, &numbers));
    EXPECT_FALSE(serve::parseServeLine("{\"serve\":1,\"x\":{}}",
                                       &strings, &numbers));
}

// ---------------------------------------------------------------
// Writers round-trip every byte through their typed parsers
// ---------------------------------------------------------------

TEST(JsonRoundTrip, EscapeWritesTheHistoricalBytes)
{
    EXPECT_EQ(json::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(json::escape(std::string("\x01\x1f\r\x7f\xff", 5)),
              "\\u0001\\u001f\\u000d\x7f\xff");
}

TEST(JsonRoundTrip, JournalLinesCarryEveryByte)
{
    const std::string campaign = withAllBytes("camp");
    for (const runner::CellResult &plain :
         {sampleResult(), sampledResult(), injectedResult()}) {
        runner::CellResult r = allBytesResult(plain);
        std::string line = runner::journalLine(campaign, r);
        runner::CellResult back;
        std::string key;
        ASSERT_TRUE(runner::parseJournalLine(line, campaign, &back, &key))
            << line;
        EXPECT_EQ(key, runner::journalKey(r.cell));
        EXPECT_EQ(back.cell.machine, r.cell.machine);
        EXPECT_EQ(back.cell.workload, r.cell.workload);
        EXPECT_EQ(back.cell.sample, r.cell.sample);
        EXPECT_EQ(back.cell.inject, r.cell.inject);
        EXPECT_EQ(back.manifestHash, r.manifestHash);
        EXPECT_EQ(back.error, r.error);
        EXPECT_EQ(back.errorClass, r.errorClass);
        EXPECT_EQ(back.injectOutcome, r.injectOutcome);
        EXPECT_EQ(back.injectDetail, r.injectDetail);
        EXPECT_EQ(back.counters, r.counters);
        EXPECT_EQ(back.sampleIpcMean, r.sampleIpcMean);
        EXPECT_EQ(runner::journalLine(campaign, back), line);
    }
}

TEST(JsonRoundTrip, HeartbeatAndStoreSummaryLinesCarryEveryByte)
{
    const std::string campaign = withAllBytes("camp");
    std::size_t cell = 0;
    ASSERT_TRUE(runner::parseHeartbeatLine(
        runner::heartbeatLine(campaign, 41, withAllBytes("workload")),
        campaign, &cell));
    EXPECT_EQ(cell, 41u);

    runner::StoreTraffic t;
    t.hits = 1;
    t.misses = 2;
    t.bytesRead = 3;
    t.bytesWritten = 18446744073709551615ull;
    runner::StoreTraffic back;
    ASSERT_TRUE(runner::parseStoreSummaryLine(
        runner::storeSummaryLine(campaign, t), campaign, &back));
    EXPECT_EQ(back.hits, 1u);
    EXPECT_EQ(back.misses, 2u);
    EXPECT_EQ(back.bytesRead, 3u);
    EXPECT_EQ(back.bytesWritten, t.bytesWritten);
}

TEST(JsonRoundTrip, StoreHeaderAndExportLinesCarryEveryByte)
{
    const std::string key = withAllBytes("key");
    const std::string payload = withAllBytes("payload");
    std::string k, p;
    ASSERT_TRUE(store::ResultStore::parseExportLine(
        store::ResultStore::formatExportLine(key, payload), &k, &p));
    EXPECT_EQ(k, key);
    EXPECT_EQ(p, payload);

    // The entry header: a fresh store has no index, so lookup and
    // export both read the key back through the header parser.
    std::string root = uniqueDir("header");
    std::string stored = payload;
    stored.erase(stored.find('\n'), 1);   // payloads are single lines
    {
        store::ResultStore s;
        std::string error;
        ASSERT_TRUE(s.open(root, &error)) << error;
        ASSERT_TRUE(s.publish(key, stored, &error)) << error;
    }
    store::ResultStore s;
    std::string error;
    ASSERT_TRUE(s.open(root, &error)) << error;
    std::string got;
    ASSERT_TRUE(s.lookup(key, &got));
    EXPECT_EQ(got, stored);
    std::vector<std::string> lines;
    ASSERT_TRUE(s.exportLines(
        {},
        [&](const std::string &line) {
            lines.push_back(line);
            return true;
        },
        nullptr, &error));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], store::ResultStore::formatExportLine(key, stored));
    EXPECT_EQ(s.counters().quarantined, 0u);
    removeDir(root);
}

TEST(JsonRoundTrip, ControlLinesCarryEveryByte)
{
    const std::string a = withAllBytes("a");
    const std::string b = withAllBytes("b");
    const std::string c = withAllBytes("c");
    serve::HealthSnapshot health;
    health.storePath = withAllBytes("/store\r");
    health.pid = 4242;
    serve::Capabilities caps;
    caps.storePath = a;
    caps.isolate = b;

    struct Case
    {
        std::string line;
        std::map<std::string, std::string> strings;
    };
    const std::vector<Case> cases = {
        {serve::helloLine(a, 3, 4), {{"store", a}}},
        {serve::errorLine(a, b), {{"code", a}, {"message", b}}},
        {serve::errorLine("bad_request", "unknown op '\x01'"),
         {{"message", "unknown op '\x01'"}}},
        {serve::acceptedLine(a, b, 5, 6), {{"campaign", a}, {"job", b}}},
        {serve::doneLine(a, b, 5, 4, 1, c),
         {{"campaign", a}, {"job", b}, {"outcome", c}}},
        {serve::statusLine(a, b, c, 1, 2),
         {{"campaign", a}, {"job", b}, {"state", c}}},
        {serve::healthLine(health), {{"store_path", health.storePath}}},
        {serve::capabilitiesLine(caps),
         {{"store_path", a}, {"isolate", b}}},
        {serve::syncedLine(a, 9), {{"direction", a}}},
        {serve::drainingLine(), {{"event", "draining"}}},
        {serve::cancellingLine(a, b), {{"campaign", a}, {"job", b}}},
    };
    for (const Case &tc : cases) {
        std::map<std::string, std::string> strings;
        std::map<std::string, std::uint64_t> numbers;
        ASSERT_TRUE(serve::isServeLine(tc.line)) << tc.line;
        ASSERT_TRUE(serve::parseServeLine(tc.line, &strings, &numbers))
            << tc.line;
        EXPECT_EQ(numbers["serve"], 1u);
        for (const auto &[key, value] : tc.strings)
            EXPECT_EQ(strings[key], value) << tc.line;
    }
}

TEST(JsonRoundTrip, RequestLinesCarryEveryByte)
{
    serve::Request r;
    r.op = withAllBytes("op");
    r.campaign = withAllBytes("campaign");
    r.maxInsts = 18446744073709551615ull;
    r.sample = withAllBytes("sample");
    r.client = withAllBytes("client");
    r.mode = withAllBytes("mode");
    r.entries = 12;
    r.newerThan = 3600;
    serve::Request back;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::requestLine(r), &back, &error))
        << error;
    EXPECT_EQ(back.op, r.op);
    EXPECT_EQ(back.campaign, r.campaign);
    EXPECT_EQ(back.maxInsts, r.maxInsts);
    EXPECT_EQ(back.sample, r.sample);
    EXPECT_EQ(back.client, r.client);
    EXPECT_EQ(back.mode, r.mode);
    EXPECT_EQ(back.entries, r.entries);
    EXPECT_EQ(back.newerThan, r.newerThan);

    // Empty and zero fields are left out; "op" always leads.
    serve::Request health;
    health.op = "health";
    EXPECT_EQ(serve::requestLine(health), "{\"op\":\"health\"}");
    serve::Request submit;
    submit.op = "submit";
    submit.campaign = "table3";
    submit.maxInsts = 20000;
    submit.sample = "windows=5,len=1000";
    EXPECT_EQ(serve::requestLine(submit),
              "{\"op\":\"submit\",\"campaign\":\"table3\","
              "\"max_insts\":20000,\"sample\":\"windows=5,len=1000\"}");
}

TEST(JsonRoundTrip, PerfReportCarriesEveryByte)
{
    runner::PerfReport report = sampleReport();
    report.campaign = withAllBytes("campaign");
    report.current.buildType = withAllBytes("build");
    std::string text = runner::perfReportToJson(report);
    runner::PerfReport back;
    std::string error;
    ASSERT_TRUE(runner::parsePerfReport(text, &back, &error)) << error;
    EXPECT_EQ(back.campaign, report.campaign);
    EXPECT_EQ(back.current.buildType, report.current.buildType);
    EXPECT_EQ(runner::perfReportToJson(back), text);
}

// ---------------------------------------------------------------
// Mutation fuzzing: reject with an error, or round-trip
// ---------------------------------------------------------------

TEST(JsonFuzz, JournalLines)
{
    std::vector<std::string> seeds;
    for (const runner::CellResult &r :
         {sampleResult(), sampledResult(), injectedResult()})
        seeds.push_back(runner::journalLine("camp", r));
    fuzz(seeds, [](const std::string &m) {
        runner::CellResult r, again;
        std::string key, againKey;
        if (!runner::parseJournalLine(m, "camp", &r, &key))
            return false;
        std::string line = runner::journalLine("camp", r);
        EXPECT_TRUE(runner::parseJournalLine(line, "camp", &again,
                                             &againKey))
            << m;
        EXPECT_EQ(runner::journalLine("camp", again), line) << m;
        EXPECT_EQ(againKey, key) << m;
        return true;
    });
}

TEST(JsonFuzz, HeartbeatAndStoreSummaryLines)
{
    runner::StoreTraffic t;
    t.hits = 7;
    t.misses = 3;
    t.bytesRead = 4096;
    t.bytesWritten = 1234;
    fuzz({runner::heartbeatLine("camp", 7, "C-S2"),
          runner::storeSummaryLine("camp", t)},
         [](const std::string &m) {
             std::size_t cell = 0, again = 0;
             if (runner::parseHeartbeatLine(m, "camp", &cell)) {
                 EXPECT_TRUE(runner::parseHeartbeatLine(
                     runner::heartbeatLine("camp", cell, "w"), "camp",
                     &again))
                     << m;
                 EXPECT_EQ(again, cell) << m;
                 return true;
             }
             runner::StoreTraffic s, back;
             if (!runner::parseStoreSummaryLine(m, "camp", &s))
                 return false;
             EXPECT_TRUE(runner::parseStoreSummaryLine(
                 runner::storeSummaryLine("camp", s), "camp", &back))
                 << m;
             EXPECT_EQ(back.hits, s.hits) << m;
             EXPECT_EQ(back.misses, s.misses) << m;
             EXPECT_EQ(back.bytesRead, s.bytesRead) << m;
             EXPECT_EQ(back.bytesWritten, s.bytesWritten) << m;
             return true;
         });
}

TEST(JsonFuzz, ExportLines)
{
    fuzz({store::ResultStore::formatExportLine(
             "key\x1fwith\x01 bytes",
             runner::journalLine("camp", sampleResult()))},
         [](const std::string &m) {
             std::string key, payload, k2, p2;
             if (!store::ResultStore::parseExportLine(m, &key, &payload))
                 return false;
             EXPECT_TRUE(store::ResultStore::parseExportLine(
                 store::ResultStore::formatExportLine(key, payload), &k2,
                 &p2))
                 << m;
             EXPECT_EQ(k2, key) << m;
             EXPECT_EQ(p2, payload) << m;
             return true;
         });
}

TEST(JsonFuzz, StoreEntryHeaders)
{
    // Mutate only the header line of a real entry file: a lookup
    // either misses (the entry is quarantined or another key's) or
    // serves exactly the published payload.
    std::string root = uniqueDir("fuzz-header");
    const std::string key = "campaign\x1fsim-alpha\x1f\x01";
    const std::string payload = runner::journalLine("camp", sampleResult());
    store::ResultStore s;
    std::string error;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish(key, payload, &error)) << error;
    const std::string hash = store::ResultStore::keyHash(key);
    const std::string path =
        root + "/" + hash.substr(0, 2) + "/" + hash.substr(2) + ".json";
    std::ifstream in(path, std::ios::binary);
    std::string header;
    std::getline(in, header);

    std::mt19937_64 rng(20011);
    int served = 0;
    for (int i = 0; i < kMutants / 3; i++) {
        std::string m = mutate(header, rng);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << m << '\n' << payload << '\n';
        }
        store::ResultStore reader;
        ASSERT_TRUE(reader.open(root, &error)) << error;
        std::string got;
        if (reader.lookup(key, &got)) {
            EXPECT_EQ(got, payload) << m;
            served++;
        }
    }
    EXPECT_GT(served, 0);
    removeDir(root);
}

TEST(JsonFuzz, ControlLines)
{
    serve::HealthSnapshot health;
    health.storePath = "store\r\x01";
    fuzz({serve::healthLine(health),
          serve::errorLine("bad_request", "unknown op '\x01'"),
          serve::doneLine("smoke", "abcd", 12, 11, 1, "complete")},
         [](const std::string &m) {
             std::map<std::string, std::string> strings, s2;
             std::map<std::string, std::uint64_t> numbers, n2;
             if (!serve::parseServeLine(m, &strings, &numbers))
                 return false;
             EXPECT_TRUE(serve::parseServeLine(flatLine(strings, numbers),
                                               &s2, &n2))
                 << m;
             EXPECT_EQ(s2, strings) << m;
             EXPECT_EQ(n2, numbers) << m;
             return true;
         });
}

TEST(JsonFuzz, RequestLines)
{
    serve::Request submit;
    submit.op = "submit";
    submit.campaign = "table3";
    submit.maxInsts = 20000;
    submit.sample = "windows=5,len=1000";
    submit.client = "c\x01";
    serve::Request sync;
    sync.op = "sync";
    sync.mode = "pull";
    sync.newerThan = 60;
    fuzz({serve::requestLine(submit), serve::requestLine(sync)},
         [](const std::string &m) {
             serve::Request r, back;
             std::string error;
             if (!serve::parseRequest(m, &r, &error)) {
                 EXPECT_FALSE(error.empty()) << m;
                 return false;
             }
             std::string line = serve::requestLine(r);
             EXPECT_TRUE(serve::parseRequest(line, &back, &error)) << m;
             EXPECT_EQ(serve::requestLine(back), line) << m;
             return true;
         });
}

TEST(JsonFuzz, PerfReports)
{
    fuzz({runner::perfReportToJson(sampleReport())},
         [](const std::string &m) {
             runner::PerfReport r, back;
             std::string error;
             if (!runner::parsePerfReport(m, &r, &error)) {
                 EXPECT_FALSE(error.empty()) << m;
                 return false;
             }
             std::string text = runner::perfReportToJson(r);
             EXPECT_TRUE(runner::parsePerfReport(text, &back, &error))
                 << m << ": " << error;
             EXPECT_EQ(runner::perfReportToJson(back), text) << m;
             return true;
         });
}

// ---------------------------------------------------------------
// Hostile nesting: long runs of '{' fail without a stack overflow
// ---------------------------------------------------------------

// ---------------------------------------------------------------
// Mutation fuzzing of the text specs: reject with an error, or format
// back to text that re-parses to the same text
// ---------------------------------------------------------------

namespace {

/** fuzz() for a text spec: @p parse(text, &value, &error) and
 *  @p format(value). */
template <typename T, typename Parse, typename Format>
void
fuzzSpec(const std::vector<std::string> &seeds, Parse parse, Format format)
{
    fuzz(seeds, [&](const std::string &m) {
        T value{}, again{};
        std::string error;
        if (!parse(m, &value, &error)) {
            EXPECT_FALSE(error.empty()) << m;
            return false;
        }
        const std::string text = format(value);
        EXPECT_TRUE(parse(text, &again, &error)) << m << ": " << error;
        EXPECT_EQ(format(again), text) << m;
        return true;
    });
}

/** A shard: name's fields. */
struct ShardName
{
    std::size_t index = 0, count = 0;
    std::string base;
};

} // namespace

TEST(SpecFuzz, SampleSpecs)
{
    fuzzSpec<checkpoint::SampleSpec>(
        {"windows=10,len=1000,warmup=500", "windows=3,len=2000"},
        [](const std::string &t, checkpoint::SampleSpec *v,
           std::string *e) { return checkpoint::parseSampleSpec(t, v, e); },
        [](const checkpoint::SampleSpec &v) {
            return checkpoint::formatSampleSpec(v);
        });
}

TEST(SpecFuzz, InjectSpecs)
{
    fuzzSpec<inject::StateInjection>(
        {"rob:12345:17:1000", "cachedata:7:63:0", "tlbtag:0:5:99"},
        [](const std::string &t, inject::StateInjection *v,
           std::string *e) { return inject::parseInjectSpec(t, v, e); },
        [](const inject::StateInjection &v) {
            return inject::formatInjectSpec(v);
        });
}

TEST(SpecFuzz, FaultSpecs)
{
    fuzzSpec<runner::FaultInjection>(
        {"17:segfault:1", "3:panic", "0:hang:2"},
        [](const std::string &t, runner::FaultInjection *v,
           std::string *e) { return runner::parseFaultSpec(t, v, e); },
        [](const runner::FaultInjection &v) {
            return runner::formatFaultSpec(v);
        });
}

TEST(SpecFuzz, CellLists)
{
    fuzzSpec<std::vector<std::size_t>>(
        {"0,3,6", "5", "12,1,400"},
        [](const std::string &t, std::vector<std::size_t> *v,
           std::string *e) { return runner::parseCellList(t, v, e); },
        [](const std::vector<std::size_t> &v) {
            return runner::formatCellList(v);
        });
}

TEST(SpecFuzz, VulnCampaignNames)
{
    fuzzSpec<runner::VulnSpec>(
        {"vuln:sim-alpha:C-Ca:400000:90:7:regfile+rob+cachedata",
         "vuln:sim-outorder:C-S1:20000:10:0:iq"},
        [](const std::string &t, runner::VulnSpec *v, std::string *e) {
            return runner::parseVulnCampaignName(t, v, e);
        },
        [](const runner::VulnSpec &v) {
            return runner::vulnCampaignName(v);
        });
}

TEST(SpecFuzz, ShardCampaignNames)
{
    fuzzSpec<ShardName>(
        {"shard:0/3:table3",
         "shard:2/5:vuln:sim-alpha:C-Ca:400000:90:7:rob"},
        [](const std::string &t, ShardName *v, std::string *e) {
            return runner::parseShardCampaignName(t, &v->index, &v->count,
                                                  &v->base, e);
        },
        [](const ShardName &v) {
            return runner::shardCampaignName(v.base, v.index, v.count);
        });
}

TEST(JsonFuzz, LongNestingRunsFailWithoutStackOverflow)
{
    // A run of bare '{' stops at the first missing key; a run of
    // {"": opens one object per four bytes until the depth cap.
    for (const std::string &unit :
         {std::string("{"), std::string("{\"\":")}) {
        for (std::size_t size : {std::size_t(64) * 1024,
                                 std::size_t(8) * 1024 * 1024}) {
            std::string line;
            line.reserve(size);
            while (line.size() + unit.size() <= size)
                line += unit;
            json::Value v;
            std::string error;
            EXPECT_FALSE(json::parse(line, &v, &error));
            if (unit.size() > 1) {
                EXPECT_NE(error.find("nested too deep"),
                          std::string::npos)
                    << error;
            }

            runner::CellResult r;
            std::string key;
            EXPECT_FALSE(runner::parseJournalLine(line, "camp", &r, &key));
            std::size_t cell = 0;
            EXPECT_FALSE(runner::parseHeartbeatLine(line, "camp", &cell));
            std::map<std::string, std::string> strings;
            std::map<std::string, std::uint64_t> numbers;
            EXPECT_FALSE(serve::parseServeLine(line, &strings, &numbers));
            std::string k, p;
            EXPECT_FALSE(store::ResultStore::parseExportLine(line, &k, &p));
            runner::PerfReport report;
            error.clear();
            EXPECT_FALSE(runner::parsePerfReport(line, &report, &error));
            EXPECT_FALSE(error.empty());
            serve::Request req;
            error.clear();
            EXPECT_FALSE(serve::parseRequest(line, &req, &error));
            EXPECT_FALSE(error.empty());
        }
    }
}

// ---------------------------------------------------------------
// BENCH_perf.json
// ---------------------------------------------------------------

namespace {

std::string
committedPerfFile()
{
    std::ifstream in(SIMALPHA_SOURCE_DIR "/BENCH_perf.json",
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(PerfReportFile, CommittedBenchPerfJsonParses)
{
    std::string text = committedPerfFile();
    ASSERT_FALSE(text.empty());
    runner::PerfReport report;
    std::string error;
    ASSERT_TRUE(runner::parsePerfReport(text, &report, &error)) << error;
    EXPECT_TRUE(report.baseline.valid);
    EXPECT_TRUE(report.current.valid);
    EXPECT_GT(report.current.detailed.ips, 0.0);
}

TEST(PerfReportFile, RenderingReproducesTheCommittedFileByteForByte)
{
    std::string text = committedPerfFile();
    runner::PerfReport report;
    std::string error;
    ASSERT_TRUE(runner::parsePerfReport(text, &report, &error)) << error;
    EXPECT_EQ(runner::perfReportToJson(report), text);
}

TEST(PerfReportFile, RetiredRowsInOlderFilesAreIgnored)
{
    // Files written before the serve, fleet and warm-store rows were
    // retired carry them after inject_idle; they still parse, and the
    // re-rendered file drops them.
    const std::string text = runner::perfReportToJson(sampleReport());
    const std::string retired =
        ",\"serve_cold\":{\"insts\":4000118,\"seconds\":1.476867,"
        "\"ips\":2708515.8},\"serve_warm\":{\"insts\":4000118,"
        "\"seconds\":0.007558,\"ips\":529245298.6},\"fleet_cold\":{"
        "\"insts\":4000118,\"seconds\":0.892818,\"ips\":4480329.6},"
        "\"fleet_warm\":{\"insts\":4000118,\"seconds\":0.005043,"
        "\"ips\":793245161.4},\"warm_store\":{\"insts\":4000118,"
        "\"seconds\":0.004295,\"ips\":931393050.5}";
    std::string older = text;
    for (const char *entry : {"\"baseline\": {", "\"current\": {"}) {
        std::size_t at = older.find('\n', older.find(entry));
        ASSERT_NE(at, std::string::npos) << entry;
        at -= std::string("},").size();
        ASSERT_EQ(older.compare(at, 2, "},"), 0) << entry;
        older.insert(at, retired);
    }
    ASSERT_NE(older, text);

    runner::PerfReport report;
    std::string error;
    ASSERT_TRUE(runner::parsePerfReport(older, &report, &error)) << error;
    EXPECT_EQ(runner::perfReportToJson(report), text);
}

TEST(PerfReportFile, MissingOrIllTypedFieldsNameTheField)
{
    const std::string text = runner::perfReportToJson(sampleReport());
    struct Drift
    {
        std::string from, to, field;
    };
    const std::vector<Drift> drifts = {
        {"\"schema_version\": 1", "\"schema_version\": \"1\"",
         "schema_version"},
        {"\"campaign\": \"table3\"", "\"campaign\": 3", "campaign"},
        {"\"speedup_detailed\"", "\"speedup\"", "speedup_detailed"},
        {"\"build_type\":\"Release\"", "\"build_type\":1", "build_type"},
        {"\"max_insts\":100000", "\"max_insts\":1.5", "max_insts"},
        {"\"detailed\":{", "\"detail\":{", "detailed"},
        {"\"abstract\":{\"insts\":1000013,",
         "\"abstract\":{\"insts\":\"1000013\",", "insts"},
        {"\"seconds\":0.904334,", "", "seconds"},
        {"\"ips\":1105823.2", "\"ips\":true", "ips"},
        {"\"baseline\":", "\"base\":", "baseline"},
    };
    for (const Drift &d : drifts) {
        std::string bad = text;
        std::size_t at = bad.find(d.from);
        ASSERT_NE(at, std::string::npos) << d.from;
        bad.replace(at, d.from.size(), d.to);
        runner::PerfReport report;
        std::string error;
        EXPECT_FALSE(runner::parsePerfReport(bad, &report, &error))
            << bad;
        EXPECT_NE(error.find("\"" + d.field + "\""), std::string::npos)
            << d.field << ": " << error;
    }
}
