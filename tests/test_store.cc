/**
 * @file
 * The persistent result store (`ctest -L store`; also meaningful under
 * -DSIMALPHA_SANITIZE=thread or =address — the concurrency tests below
 * hammer one store from many threads).
 *
 * Three layers are covered:
 *  - the store library alone: round-trips, integrity quarantine,
 *    racing writers/readers, LRU gc (including gc never breaking a
 *    reader holding an open descriptor), export/import;
 *  - the runner integration: a warm store serves byte-identical
 *    results, keyed by manifest × workload × cap so nothing stale is
 *    ever served; and
 *  - the PR acceptance drill: a sharded (--isolate=process) Table-5
 *    campaign run twice against one store shows full hits on the
 *    second run with byte-identical artifacts and journals.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/shard.hh"
#include "runner/supervisor.hh"
#include "store/store.hh"

namespace fs = std::filesystem;

using namespace simalpha;
using namespace simalpha::runner;
using simalpha::store::GcOptions;
using simalpha::store::GcOutcome;
using simalpha::store::ResultStore;
using simalpha::store::StoreCounters;
using simalpha::store::StoreUsage;

namespace {

std::string
uniqueDir(const std::string &stem)
{
    std::string dir = testing::TempDir() + "simalpha-store-" + stem +
                      "-" + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

/** The on-disk entry file for @p key under @p root. */
std::string
entryFile(const std::string &root, const std::string &key)
{
    std::string h = ResultStore::keyHash(key);
    return root + "/" + h.substr(0, 2) + "/" + h.substr(2) + ".json";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A journal file as a sorted multiset of lines — shard drain order
 *  is scheduling-dependent, line *content* is not. */
std::vector<std::string>
sortedLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

} // namespace

// ---------------------------------------------------------------------
// Store library: round-trip, identity, integrity
// ---------------------------------------------------------------------

TEST(Store, PublishThenLookupRoundTripsAcrossHandles)
{
    std::string root = uniqueDir("roundtrip");
    std::string error;

    ResultStore a;
    ASSERT_TRUE(a.open(root, &error)) << error;
    ASSERT_TRUE(a.publish("key-1", "payload one", &error)) << error;
    ASSERT_TRUE(a.publish("key-2", "payload \"two\"\\esc", &error))
        << error;

    // An index.bin an older binary left beside the entries is never
    // opened: garbage there neither hides an entry nor gets quarantined.
    std::string shard =
        fs::path(entryFile(root, "key-1")).parent_path().string();
    std::string stray = shard + "/index.bin";
    const std::string garbage = "not an index \x01\x02";
    {
        std::ofstream out(stray, std::ios::binary);
        out << garbage;
    }

    // A completely independent handle (a different process in spirit)
    // sees the same entries — the layout is the index.
    ResultStore b;
    ASSERT_TRUE(b.open(root, &error)) << error;
    std::string payload;
    ASSERT_TRUE(b.lookup("key-1", &payload));
    EXPECT_EQ(payload, "payload one");
    ASSERT_TRUE(b.lookup("key-2", &payload));
    EXPECT_EQ(payload, "payload \"two\"\\esc");
    EXPECT_FALSE(b.lookup("key-3", &payload));

    StoreCounters c = b.counters();
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.quarantined, 0u);
    EXPECT_GT(c.bytesRead, 0u);

    StoreUsage u = b.usage(&error);
    EXPECT_EQ(u.entries, 2u);
    EXPECT_EQ(u.corrupt, 0u);
    EXPECT_EQ(slurp(stray), garbage);
    fs::remove_all(root);
}

TEST(Store, RepublishSameKeyLastWriterWins)
{
    std::string root = uniqueDir("republish");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("k", "old", &error));
    ASSERT_TRUE(s.publish("k", "new", &error));
    std::string payload;
    ASSERT_TRUE(s.lookup("k", &payload));
    EXPECT_EQ(payload, "new");
    EXPECT_EQ(s.usage(&error).entries, 1u);
    fs::remove_all(root);
}

TEST(Store, PublishRejectsMultilinePayloads)
{
    std::string root = uniqueDir("multiline");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    EXPECT_FALSE(s.publish("k", "line1\nline2", &error));
    EXPECT_FALSE(error.empty());
    fs::remove_all(root);
}

TEST(Store, EntryRecordingAnotherKeyReadsAsMissNeverWrongResult)
{
    // Simulate a hash collision: an entry sitting at key A's path but
    // recording key B. The full-key check must turn this into a miss.
    std::string root = uniqueDir("collision");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("key-B", "B's payload", &error));

    std::string pathA = entryFile(root, "key-A");
    fs::create_directories(fs::path(pathA).parent_path());
    fs::rename(entryFile(root, "key-B"), pathA);

    std::string payload = "unchanged";
    EXPECT_FALSE(s.lookup("key-A", &payload));
    EXPECT_EQ(payload, "unchanged");
    // Not corruption — the entry is intact, just not ours.
    EXPECT_EQ(s.counters().quarantined, 0u);
    fs::remove_all(root);
}

TEST(Store, CorruptedBlobIsQuarantinedThenRepublishable)
{
    std::string root = uniqueDir("corrupt");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("k", "precious payload", &error));

    // Flip one payload byte on disk (bit rot, torn copy, ...).
    std::string path = entryFile(root, "k");
    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() - 3] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    std::string payload;
    EXPECT_FALSE(s.lookup("k", &payload));      // a miss, not a lie
    EXPECT_EQ(s.counters().quarantined, 1u);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));

    // The caller recomputes and republishes; the store heals.
    ASSERT_TRUE(s.publish("k", "precious payload", &error)) << error;
    ASSERT_TRUE(s.lookup("k", &payload));
    EXPECT_EQ(payload, "precious payload");
    EXPECT_EQ(s.usage(&error).corrupt, 1u);     // quarantine remains
    fs::remove_all(root);
}

TEST(Store, VerifyAllQuarantinesEveryDamagedEntry)
{
    std::string root = uniqueDir("verify");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    for (int i = 0; i < 5; i++)
        ASSERT_TRUE(s.publish("key-" + std::to_string(i),
                              "payload-" + std::to_string(i), &error));

    std::string victim = entryFile(root, "key-2");
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out << "not a store entry at all\n";
    }

    std::vector<std::string> corrupt;
    StoreUsage u = s.verifyAll(&corrupt, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(u.entries, 4u);
    EXPECT_EQ(u.corrupt, 1u);
    ASSERT_EQ(corrupt.size(), 1u);
    EXPECT_EQ(corrupt[0], victim);
    EXPECT_TRUE(fs::exists(victim + ".corrupt"));
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Concurrency: racing writers and readers, one store
// ---------------------------------------------------------------------

TEST(Store, RacingWritersSameKeyNeverTearAReader)
{
    std::string root = uniqueDir("race");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;

    constexpr int kWriters = 4;
    constexpr int kRounds = 25;
    std::set<std::string> legal;
    for (int w = 0; w < kWriters; w++)
        for (int r = 0; r < kRounds; r++)
            legal.insert("payload-" + std::to_string(w) + "-" +
                         std::to_string(r));

    // Seed the entry so readers can race from the first instant.
    ASSERT_TRUE(s.publish("hot", "payload-0-0", &error));

    std::atomic<bool> torn{false};
    std::atomic<int> writersLeft{kWriters};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; w++)
        threads.emplace_back([&, w]() {
            std::string werror;
            for (int r = 0; r < kRounds; r++)
                s.publish("hot",
                          "payload-" + std::to_string(w) + "-" +
                              std::to_string(r),
                          &werror);
            writersLeft--;
        });
    for (int rd = 0; rd < 2; rd++)
        threads.emplace_back([&]() {
            // Each reader uses its own handle, like another process.
            ResultStore reader;
            std::string rerror;
            if (!reader.open(root, &rerror)) {
                torn = true;    // surfaced below with the message
                return;
            }
            while (writersLeft.load() > 0) {
                std::string payload;
                if (reader.lookup("hot", &payload) &&
                    !legal.count(payload))
                    torn = true;
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_FALSE(torn.load())
        << "a reader observed a payload no writer ever published";
    std::string last;
    ASSERT_TRUE(s.lookup("hot", &last));
    EXPECT_TRUE(legal.count(last));
    EXPECT_EQ(s.usage(&error).entries, 1u);
    EXPECT_EQ(s.counters().quarantined, 0u);
    fs::remove_all(root);
}

TEST(Store, ConcurrentDistinctKeysAllLand)
{
    std::string root = uniqueDir("fanout");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;

    constexpr int kThreads = 4;
    constexpr int kPerThread = 20;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t]() {
            std::string werror;
            for (int i = 0; i < kPerThread; i++) {
                std::string k = "k-" + std::to_string(t) + "-" +
                                std::to_string(i);
                s.publish(k, "v/" + k, &werror);
            }
        });
    for (std::thread &t : threads)
        t.join();

    for (int t = 0; t < kThreads; t++)
        for (int i = 0; i < kPerThread; i++) {
            std::string k = "k-" + std::to_string(t) + "-" +
                            std::to_string(i);
            std::string payload;
            ASSERT_TRUE(s.lookup(k, &payload)) << k;
            EXPECT_EQ(payload, "v/" + k);
        }
    EXPECT_EQ(s.usage(&error).entries,
              std::uint64_t(kThreads * kPerThread));
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Garbage collection: LRU, bounded, reader-safe
// ---------------------------------------------------------------------

TEST(Store, GcEvictsLeastRecentlyUsedFirst)
{
    std::string root = uniqueDir("gc-lru");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(s.publish("key-" + std::to_string(i),
                              "payload-" + std::to_string(i), &error));

    // Stagger last-use: key-0 coldest ... key-3 hottest.
    auto now = fs::file_time_type::clock::now();
    for (int i = 0; i < 4; i++)
        fs::last_write_time(
            entryFile(root, "key-" + std::to_string(i)) + ".atime",
            now - std::chrono::hours(24 - i));

    StoreUsage before = s.usage(&error);
    // Bound that forces out exactly the two coldest entries.
    std::string e0 = entryFile(root, "key-0");
    std::string e1 = entryFile(root, "key-1");
    std::uint64_t bound = before.bytes - fs::file_size(e0) -
                          fs::file_size(e1);

    GcOptions g;
    g.maxBytes = bound;
    GcOutcome o = s.gc(g, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(o.scanned, 4u);
    EXPECT_EQ(o.removed, 2u);
    EXPECT_EQ(o.entriesKept, 2u);
    EXPECT_LE(o.bytesKept, bound);

    std::string payload;
    EXPECT_FALSE(s.lookup("key-0", &payload));
    EXPECT_FALSE(s.lookup("key-1", &payload));
    EXPECT_TRUE(s.lookup("key-2", &payload));
    EXPECT_TRUE(s.lookup("key-3", &payload));
    fs::remove_all(root);
}

TEST(Store, GcMaxAgeEvictsOnlyStaleEntries)
{
    std::string root = uniqueDir("gc-age");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("stale", "old payload", &error));
    ASSERT_TRUE(s.publish("fresh", "new payload", &error));
    fs::last_write_time(entryFile(root, "stale") + ".atime",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));

    GcOptions g;
    g.maxAgeSeconds = 3600.0;
    GcOutcome o = s.gc(g, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(o.removed, 1u);

    std::string payload;
    EXPECT_FALSE(s.lookup("stale", &payload));
    EXPECT_TRUE(s.lookup("fresh", &payload));
    EXPECT_EQ(payload, "new payload");
    fs::remove_all(root);
}

TEST(Store, GcNeverBreaksAReaderHoldingAnOpenEntry)
{
    std::string root = uniqueDir("gc-read");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("k", "survives unlink", &error));

    // A reader mid-read: descriptor open, no bytes consumed yet.
    std::string path = entryFile(root, "k");
    int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);

    // gc evicts everything while the descriptor is open.
    GcOptions g;
    g.maxBytes = 1;
    GcOutcome o = s.gc(g, &error);
    EXPECT_EQ(o.removed, 1u);
    EXPECT_FALSE(fs::exists(path));

    // POSIX unlink semantics: the open descriptor still reads the
    // complete entry, payload intact.
    std::string bytes;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        bytes.append(buf, std::size_t(n));
    ::close(fd);
    EXPECT_NE(bytes.find("survives unlink"), std::string::npos);
    fs::remove_all(root);
}

TEST(Store, TouchRefreshesLastUseWithoutReading)
{
    std::string root = uniqueDir("touch");
    std::string error;
    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    ASSERT_TRUE(s.publish("kept", "payload-kept", &error));
    ASSERT_TRUE(s.publish("dropped", "payload-dropped", &error));

    // Both entries look cold...
    auto old = fs::file_time_type::clock::now() -
               std::chrono::hours(2);
    fs::last_write_time(entryFile(root, "kept") + ".atime", old);
    fs::last_write_time(entryFile(root, "dropped") + ".atime", old);

    // ...then one is touched (no lookup, no bytes read).
    StoreCounters before = s.counters();
    EXPECT_TRUE(s.touch("kept"));
    EXPECT_FALSE(s.touch("no-such-key"));
    EXPECT_EQ(s.counters().bytesRead, before.bytesRead);

    GcOptions g;
    g.maxAgeSeconds = 3600.0;
    GcOutcome o = s.gc(g, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(o.removed, 1u);

    std::string payload;
    EXPECT_TRUE(s.lookup("kept", &payload));
    EXPECT_EQ(payload, "payload-kept");
    EXPECT_FALSE(s.lookup("dropped", &payload));
    fs::remove_all(root);
}

namespace {

/** Every key the store at @p root holds, sorted. */
std::vector<std::string>
storeKeys(const std::string &root)
{
    ResultStore s;
    std::string error;
    std::vector<std::string> keys;
    EXPECT_TRUE(s.open(root, &error)) << error;
    EXPECT_TRUE(s.exportLines(
        {},
        [&](const std::string &line) {
            std::string key, payload;
            EXPECT_TRUE(ResultStore::parseExportLine(line, &key, &payload));
            keys.push_back(key);
            return true;
        },
        nullptr, &error))
        << error;
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

// Stores written by older builds hold checkpoint blobs and fast-forward
// metadata. Sampled cells now keep their checkpoints in memory: they
// neither read nor publish such entries, their bytes match a storeless
// run, and gc ages the leftovers out like any unused entry.
TEST(StoreGc, LegacyCheckpointEntriesAreIgnoredAndAgeOut)
{
    namespace ck = simalpha::checkpoint;
    std::string root = uniqueDir("gc-legacy-ckpt");
    std::string error;

    checkpoint::SampleSpec sample;
    sample.windows = 3;
    sample.len = 300;
    sample.warmup = 100;
    CampaignSpec spec;
    spec.name = "stat";
    spec.cells.push_back({"sim-outorder", validate::Optimization::None,
                          "C-Ca", 4000, 0, sample, {}});

    // Seed what a sampled run of an older build left behind: the
    // fast-forward metadata and every planned window's checkpoint.
    Program program;
    ASSERT_TRUE(buildWorkload("C-Ca", &program, &error)) << error;
    ck::FastForwardInfo info = ck::fastForward(program, 4000);
    std::vector<std::uint64_t> offsets;
    for (const ck::WindowPlan &w :
         ck::planWindows(info.totalInsts, sample))
        offsets.push_back(w.checkpointAt);
    std::vector<std::string> legacy = {ck::metaKey(program, 4000)};
    {
        ResultStore seed;
        ASSERT_TRUE(seed.open(root, &error)) << error;
        std::vector<Checkpoint> ckpts;
        ASSERT_TRUE(ck::collectCheckpoints(program, offsets, &seed,
                                           &ckpts, &error))
            << error;
        ASSERT_TRUE(
            seed.publish(legacy[0], ck::serializeMeta(info), &error))
            << error;
        for (std::uint64_t at : offsets)
            legacy.push_back(ck::checkpointKey(program, at));
    }
    std::sort(legacy.begin(), legacy.end());
    legacy.erase(std::unique(legacy.begin(), legacy.end()), legacy.end());
    ASSERT_EQ(storeKeys(root), legacy);

    const std::string ref = toJson(ExperimentRunner().run(spec));

    RunnerOptions opts;
    opts.storePath = root;
    ExperimentRunner cold(opts);
    EXPECT_EQ(toJson(cold.run(spec)), ref);
    // The result entry misses and is published; nothing else is read
    // or written.
    EXPECT_EQ(cold.storeCounters().hits, 0u);
    EXPECT_EQ(cold.storeCounters().publishes, spec.cells.size());

    ExperimentRunner warm(opts);
    EXPECT_EQ(toJson(warm.run(spec)), ref);
    EXPECT_EQ(warm.storeCounters().hits, spec.cells.size());
    EXPECT_EQ(warm.storeCounters().publishes, 0u);

    // No run added a checkpoint entry: the only new key is the result.
    std::vector<std::string> added;
    for (const std::string &key : storeKeys(root))
        if (!std::binary_search(legacy.begin(), legacy.end(), key))
            added.push_back(key);
    ASSERT_EQ(added.size(), spec.cells.size());
    for (const std::string &key : added)
        EXPECT_NE(key.rfind("ckpt", 0), 0u) << key;

    // Everything goes cold, then a warm rerun uses its result entry.
    auto old =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    for (const auto &e : fs::recursive_directory_iterator(root))
        if (e.is_regular_file())
            fs::last_write_time(e.path(), old);
    ExperimentRunner rerun(opts);
    EXPECT_EQ(toJson(rerun.run(spec)), ref);

    ResultStore s;
    ASSERT_TRUE(s.open(root, &error)) << error;
    GcOptions g;
    g.maxAgeSeconds = 3600.0;
    GcOutcome o = s.gc(g, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(o.removed, legacy.size());
    EXPECT_EQ(storeKeys(root), added);
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Export / import
// ---------------------------------------------------------------------

TEST(Store, ExportImportRoundTripsEveryEntry)
{
    std::string rootA = uniqueDir("exp-a");
    std::string rootB = uniqueDir("exp-b");
    std::string dump = testing::TempDir() + "simalpha-store-dump-" +
                       std::to_string(::getpid()) + ".jsonl";
    std::string error;

    ResultStore a;
    ASSERT_TRUE(a.open(rootA, &error)) << error;
    for (int i = 0; i < 6; i++)
        ASSERT_TRUE(a.publish("key \"" + std::to_string(i) + "\"",
                              "payload\\" + std::to_string(i),
                              &error));

    std::uint64_t exported = 0;
    ASSERT_TRUE(a.exportTo(dump, &exported, &error)) << error;
    EXPECT_EQ(exported, 6u);

    ResultStore b;
    ASSERT_TRUE(b.open(rootB, &error)) << error;
    std::uint64_t imported = 0;
    ASSERT_TRUE(b.importFrom(dump, &imported, &error)) << error;
    EXPECT_EQ(imported, 6u);

    for (int i = 0; i < 6; i++) {
        std::string payload;
        ASSERT_TRUE(
            b.lookup("key \"" + std::to_string(i) + "\"", &payload));
        EXPECT_EQ(payload, "payload\\" + std::to_string(i));
    }
    std::remove(dump.c_str());
    fs::remove_all(rootA);
    fs::remove_all(rootB);
}

// ---------------------------------------------------------------------
// Shard protocol: the store-summary journal line
// ---------------------------------------------------------------------

TEST(StoreProtocol, SummaryLineRoundTripsAndFoolsNoOtherParser)
{
    StoreTraffic t;
    t.hits = 7;
    t.misses = 3;
    t.bytesRead = 4096;
    t.bytesWritten = 1234;
    std::string line = storeSummaryLine("table5", t);

    StoreTraffic parsed;
    ASSERT_TRUE(parseStoreSummaryLine(line, "table5", &parsed));
    EXPECT_EQ(parsed.hits, 7u);
    EXPECT_EQ(parsed.misses, 3u);
    EXPECT_EQ(parsed.bytesRead, 4096u);
    EXPECT_EQ(parsed.bytesWritten, 1234u);

    // Wrong campaign, torn line: rejected.
    EXPECT_FALSE(parseStoreSummaryLine(line, "table4", &parsed));
    EXPECT_FALSE(parseStoreSummaryLine(
        line.substr(0, line.size() - 2), "table5", &parsed));

    // Neither the result-journal parser nor the heartbeat parser
    // accepts a summary line (so it can never leak into merged
    // results), and the summary parser accepts neither of theirs.
    CellResult result;
    std::string key;
    EXPECT_FALSE(parseJournalLine(line, "table5", &result, &key));
    std::size_t cell = 0;
    EXPECT_FALSE(parseHeartbeatLine(line, "table5", &cell));
    EXPECT_FALSE(parseStoreSummaryLine(
        heartbeatLine("table5", 3, "gcc"), "table5", &parsed));
}

// ---------------------------------------------------------------------
// Runner integration: warm store serves byte-identical results
// ---------------------------------------------------------------------

TEST(StoreRunner, WarmStoreServesByteIdenticalResults)
{
    std::string root = uniqueDir("runner-warm");

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;       // isolate the store tier
    ro.storePath = root;

    ExperimentRunner cold(ro);
    ASSERT_TRUE(cold.storeOpen());
    CampaignResult first = cold.run(smokeCampaign());
    StoreCounters cc = cold.storeCounters();
    EXPECT_EQ(cc.hits, 0u);
    EXPECT_EQ(cc.misses, first.cells.size());
    EXPECT_EQ(cc.publishes, first.cells.size());

    // A fresh runner (fresh process in spirit): every cell a store hit,
    // provenance flagged, results byte-identical.
    ExperimentRunner warm(ro);
    CampaignResult second = warm.run(smokeCampaign());
    StoreCounters wc = warm.storeCounters();
    EXPECT_EQ(wc.hits, second.cells.size());
    EXPECT_EQ(wc.misses, 0u);
    EXPECT_EQ(wc.publishes, 0u);
    for (const CellResult &r : second.cells)
        EXPECT_TRUE(r.fromStore)
            << r.cell.machine << "/" << r.cell.workload;
    for (const CellResult &r : first.cells)
        EXPECT_FALSE(r.fromStore);
    EXPECT_EQ(toJson(first), toJson(second));
    fs::remove_all(root);
}

TEST(StoreRunner, InstructionCapIsPartOfTheKeySoNothingStaleIsServed)
{
    std::string root = uniqueDir("runner-cap");

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ro.storePath = root;

    CampaignSpec capped = smokeCampaign().withMaxInsts(500);
    ExperimentRunner first(ro);
    first.run(capped);

    // Different cap → different identity → all misses, no stale serve.
    ExperimentRunner second(ro);
    CampaignResult other =
        second.run(smokeCampaign().withMaxInsts(700));
    StoreCounters c = second.storeCounters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, other.cells.size());
    for (const CellResult &r : other.cells)
        EXPECT_FALSE(r.fromStore);
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Deterministic failures in the store
// ---------------------------------------------------------------------

namespace {

/** The runner's store identity key for @p cell. */
std::string
storeKeyFor(const Cell &cell)
{
    return cellManifestHash(cell) + "|" + cell.workload + "|" +
           std::to_string(cell.maxInsts) + "|" +
           std::to_string(cellSeed(cell));
}

} // namespace

TEST(StoreFailure, PersistedDeterministicFailureIsServedOnRerun)
{
    std::string root = uniqueDir("fail-served");
    std::string error;

    // Seed the store with a failed entry exactly as the runner
    // publishes one: the distinct "store-failed" tag, keyed by the
    // same identity a successful result would use.
    CampaignSpec spec = smokeCampaign();
    const Cell &target = spec.cells[0];
    CellResult failed;
    failed.cell = target;
    failed.seed = cellSeed(target);
    failed.ok = false;
    failed.error = "machine deadlocked (persisted)";
    failed.errorClass = "deadlock";
    failed.manifestHash = cellManifestHash(target);

    ResultStore seeder;
    ASSERT_TRUE(seeder.open(root, &error)) << error;
    ASSERT_TRUE(seeder.publish(storeKeyFor(target),
                               journalLine("store-failed", failed),
                               &error))
        << error;

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ro.storePath = root;
    ExperimentRunner runner(ro);
    ASSERT_TRUE(runner.storeOpen());
    CampaignResult result = runner.run(spec);

    // The persisted failure is served, not recomputed — and with its
    // error class intact; every other cell computes normally.
    const CellResult &served = result.cells[0];
    EXPECT_FALSE(served.ok);
    EXPECT_TRUE(served.fromStore);
    EXPECT_EQ(served.errorClass, "deadlock");
    EXPECT_EQ(served.error, failed.error);
    for (std::size_t i = 1; i < result.cells.size(); i++)
        EXPECT_TRUE(result.cells[i].ok) << result.cells[i].error;

    StoreCounters c = runner.storeCounters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.publishes, result.cells.size() - 1);
    fs::remove_all(root);
}

TEST(StoreFailure, InjectedFailuresAreNeverPublished)
{
    std::string root = uniqueDir("fail-injected");

    // An injected stall produces the "deadlock" class, but it says
    // nothing about the real configuration: it must not be persisted,
    // and a fault-free rerun must re-execute the cell and succeed.
    RunnerOptions faulty;
    faulty.jobs = 1;
    faulty.cache = false;
    faulty.storePath = root;
    faulty.faults.push_back({0, FaultInjection::Kind::Stall, -1});
    ExperimentRunner first(faulty);
    CampaignResult withFault = first.run(smokeCampaign());
    ASSERT_FALSE(withFault.cells[0].ok);
    EXPECT_EQ(withFault.cells[0].errorClass, "deadlock");
    EXPECT_EQ(first.storeCounters().publishes,
              withFault.cells.size() - 1);

    RunnerOptions clean;
    clean.jobs = 1;
    clean.cache = false;
    clean.storePath = root;
    ExperimentRunner second(clean);
    CampaignResult recovered = second.run(smokeCampaign());
    EXPECT_TRUE(recovered.cells[0].ok) << recovered.cells[0].error;
    EXPECT_FALSE(recovered.cells[0].fromStore);
    StoreCounters c = second.storeCounters();
    EXPECT_EQ(c.hits, recovered.cells.size() - 1);
    EXPECT_EQ(c.publishes, 1u);
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Acceptance: sharded Table-5 rerun against one store
// ---------------------------------------------------------------------

TEST(StoreAcceptance, ShardedTable5RerunHitsStoreByteIdentically)
{
    std::string root = uniqueDir("accept");
    std::string journalCold = uniqueDir("accept-jc") + ".jsonl";
    std::string journalWarm = uniqueDir("accept-jw") + ".jsonl";

    LaunchOptions opts;
    opts.campaign = "table5";
    opts.maxInsts = 2000;   // keep the drill seconds, not minutes
    opts.shards = 2;
    opts.workerBinary = SIMALPHA_BIN;
    opts.storePath = root;
    opts.backoffSeconds = 0.01;

    opts.journalPath = journalCold;
    LaunchOutcome cold = superviseCampaign(opts);
    ASSERT_FALSE(cold.interrupted);
    ASSERT_EQ(cold.result.errorCount(), 0u);
    std::size_t cells = cold.result.cells.size();
    ASSERT_GT(cells, 0u);
    EXPECT_EQ(cold.storeTraffic.hits, 0u);
    EXPECT_EQ(cold.storeTraffic.misses, cells);
    EXPECT_GT(cold.storeTraffic.bytesWritten, 0u);

    opts.journalPath = journalWarm;
    LaunchOutcome warm = superviseCampaign(opts);
    ASSERT_FALSE(warm.interrupted);
    ASSERT_EQ(warm.result.errorCount(), 0u);

    // The acceptance bar: >0 hits on the rerun — in a healthy run,
    // every single cell hits — with byte-identical outputs.
    EXPECT_EQ(warm.storeTraffic.hits, cells);
    EXPECT_EQ(warm.storeTraffic.misses, 0u);
    EXPECT_EQ(warm.storeTraffic.bytesWritten, 0u);
    ASSERT_EQ(warm.shardStore.size(), 2u);
    EXPECT_GT(warm.shardStore[0].hits, 0u);
    EXPECT_GT(warm.shardStore[1].hits, 0u);

    EXPECT_EQ(toJson(cold.result), toJson(warm.result));
    EXPECT_EQ(toCsv(cold.result), toCsv(warm.result));
    // Master journal line order depends on shard drain interleaving;
    // the line *sets* must match exactly.
    EXPECT_EQ(sortedLines(journalCold), sortedLines(journalWarm));

    std::remove(journalCold.c_str());
    std::remove(journalWarm.c_str());
    fs::remove_all(root);
}
