/**
 * @file
 * The multi-host fleet tier (`ctest -L fleet`), covering the PR's
 * acceptance criteria end to end:
 *
 *  - the shard campaign grammar: deterministic round-robin slices a
 *    worker re-derives from the name alone, base-name-preserving so
 *    shard journal lines are byte-identical to single-host lines;
 *  - a campaign through a two-worker loopback fleet streams exactly
 *    the lines (and the order) a single-host `--jobs 1` run settles,
 *    for a plain table campaign and a vuln: injection campaign;
 *  - SIGKILL of one real worker daemon mid-campaign re-dispatches its
 *    shard to the survivor with zero lost and zero duplicated cells;
 *  - a restarted dispatcher replays its master journal byte-identically
 *    and dispatches nothing;
 *  - the sync op round-trips store entries both ways, and a warm fleet
 *    rerun against freshly pre-seeded cold workers computes zero cells
 *    on every worker.
 *
 * Run under -DSIMALPHA_SANITIZE=address and =thread: the dispatcher
 * merges concurrent worker streams under one mutex and must be clean
 * under both.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "fleet/dispatcher.hh"
#include "fleet/registry.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/proto.hh"
#include "serve/server.hh"
#include "store/store.hh"

using namespace simalpha;
using namespace simalpha::fleet;

namespace {

std::string
uniqueDir(const std::string &stem)
{
    static std::atomic<int> counter{0};
    std::string dir = testing::TempDir() + "fl-" + stem + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(counter++);
    std::string cmd = "mkdir -p '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

void
removeDir(const std::string &dir)
{
    if (dir.rfind(testing::TempDir(), 0) == 0)
        std::system(("rm -rf '" + dir + "'").c_str());
}

/** An in-process daemon on its own thread, torn down on scope exit. */
struct TestDaemon
{
    serve::ServeOptions opts;
    std::string dir;
    std::unique_ptr<serve::Server> server;
    std::thread thread;

    explicit TestDaemon(const std::string &stem)
    {
        dir = uniqueDir(stem);
        opts.storePath = dir + "/st";
        opts.listen = dir + "/s.sock";
        opts.jobs = 2;
    }

    ~TestDaemon()
    {
        stop();
        removeDir(dir);
    }

    bool start()
    {
        std::string error;
        server = std::make_unique<serve::Server>(opts);
        if (!server->start(&error)) {
            ADD_FAILURE() << error;
            return false;
        }
        thread = std::thread([this] { server->run(); });
        return true;
    }

    void stop()
    {
        if (server)
            server->requestShutdown();
        if (thread.joinable())
            thread.join();
    }

    serve::ClientOptions client() const
    {
        serve::ClientOptions c;
        c.connect = server->boundAddress();
        c.timeoutSeconds = 120.0;
        c.maxRetries = 0;
        return c;
    }
};

/** A two-worker loopback fleet: worker daemons, dispatcher, and the
 *  front-end daemon the client talks to. */
struct TestFleet
{
    TestDaemon w0{"w0"}, w1{"w1"};
    TestDaemon front{"front"};
    std::unique_ptr<Dispatcher> dispatcher;

    bool start(bool sync = false)
    {
        if (!w0.start() || !w1.start())
            return false;
        FleetOptions fopts;
        fopts.workers = {WorkerConfig{w0.server->boundAddress()},
                         WorkerConfig{w1.server->boundAddress()}};
        fopts.syncStores = sync;
        fopts.backoffSeconds = 0.05;
        fopts.seed = 7;
        dispatcher = std::make_unique<Dispatcher>(fopts);
        std::string error;
        if (!dispatcher->start(&error)) {
            ADD_FAILURE() << error;
            return false;
        }
        front.opts.executor = dispatcher->executor();
        return front.start();
    }
};

/** The journal lines an uninterrupted single-host `--jobs 1` run
 *  settles, in settle (= spec) order — the byte- and order-identity
 *  reference for every fleet stream. */
std::vector<std::string>
referenceLines(const std::string &campaign, std::uint64_t maxInsts)
{
    runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    runner::CampaignSpec spec;
    EXPECT_TRUE(runner::campaignByName(campaign, &spec));
    if (maxInsts)
        spec = spec.withMaxInsts(maxInsts);
    runner::CampaignResult res = runner::ExperimentRunner(ro).run(spec);
    std::vector<std::string> lines;
    for (const runner::CellResult &c : res.cells)
        lines.push_back(runner::journalLine(spec.name, c));
    return lines;
}

std::vector<std::string>
sorted(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    return lines;
}

} // namespace

// ---------------------------------------------------------------
// The shard campaign grammar
// ---------------------------------------------------------------

TEST(FleetShard, NameRoundTripsAndRejectsGarbage)
{
    EXPECT_EQ(runner::shardCampaignName("table3", 2, 5),
              "shard:2/5:table3");

    std::size_t index = 99, count = 99;
    std::string base, error;
    ASSERT_TRUE(runner::parseShardCampaignName(
        "shard:2/5:table3", &index, &count, &base, &error));
    EXPECT_EQ(index, 2u);
    EXPECT_EQ(count, 5u);
    EXPECT_EQ(base, "table3");

    // The base may itself contain colons (vuln: specs).
    ASSERT_TRUE(runner::parseShardCampaignName(
        "shard:0/2:vuln:sim-outorder:C-Ca:800000:60:0:rob", &index,
        &count, &base, &error));
    EXPECT_EQ(base, "vuln:sim-outorder:C-Ca:800000:60:0:rob");

    const char *bad[] = {
        "shard:",          "shard:2:table3",  "shard:2/:table3",
        "shard:/5:table3", "shard:a/5:table3", "shard:2/5:",
        "shard:5/5:table3", "shard:0/0:table3", "shard:2/5",
    };
    for (const char *name : bad) {
        error.clear();
        EXPECT_FALSE(runner::parseShardCampaignName(
            name, &index, &count, &base, &error))
            << name;
        EXPECT_FALSE(error.empty()) << name;
    }
}

TEST(FleetShard, SlicesPartitionTheBaseRoundRobinKeepingItsName)
{
    runner::CampaignSpec whole;
    ASSERT_TRUE(runner::campaignByName("table3", &whole));

    std::vector<std::string> allKeys;
    for (std::size_t n : {1u, 2u, 3u, 7u}) {
        std::size_t total = 0;
        allKeys.clear();
        for (std::size_t i = 0; i < n; i++) {
            runner::CampaignSpec slice;
            ASSERT_TRUE(runner::campaignByName(
                runner::shardCampaignName("table3", i, n), &slice));
            // The slice keeps the *base* name: its journal lines are
            // byte-identical to single-host lines.
            EXPECT_EQ(slice.name, whole.name);
            total += slice.cells.size();
            for (std::size_t c = 0; c < slice.cells.size(); c++) {
                // Round-robin: slice i holds base cells i, i+n, ...
                EXPECT_EQ(runner::journalKey(slice.cells[c]),
                          runner::journalKey(whole.cells[i + c * n]));
                allKeys.push_back(
                    runner::journalKey(slice.cells[c]));
            }
        }
        EXPECT_EQ(total, whole.cells.size()) << n;
        std::set<std::string> unique(allKeys.begin(), allKeys.end());
        EXPECT_EQ(unique.size(), whole.cells.size()) << n;
    }

    // Out-of-range slices never derive.
    runner::CampaignSpec slice;
    EXPECT_FALSE(runner::campaignByName("shard:3/3:table3", &slice));
    EXPECT_FALSE(runner::campaignByName("shard:0/2:nonsense", &slice));
}

TEST(FleetRegistry, WorkerListParsesAndRejectsEmpties)
{
    std::vector<WorkerConfig> workers;
    std::string error;
    ASSERT_TRUE(parseWorkerList("a.sock,tcp:127.0.0.1:9000", &workers,
                                &error));
    ASSERT_EQ(workers.size(), 2u);
    EXPECT_EQ(workers[0].address, "a.sock");
    EXPECT_EQ(workers[1].address, "tcp:127.0.0.1:9000");

    EXPECT_FALSE(parseWorkerList("", &workers, &error));
    EXPECT_FALSE(parseWorkerList("a.sock,,b.sock", &workers, &error));
    EXPECT_FALSE(parseWorkerList("a.sock,", &workers, &error));
}

TEST(FleetRegistry, ProbeRecordsHealthAndDeadWorkersReturnOnProbe)
{
    TestDaemon worker("probe");
    ASSERT_TRUE(worker.start());

    WorkerRegistry registry(
        {WorkerConfig{worker.server->boundAddress()},
         WorkerConfig{worker.dir + "/nonexistent.sock"}},
        10.0, 5.0, 1);
    EXPECT_EQ(registry.probeAll(), 1u);
    std::vector<WorkerStatus> snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_TRUE(snap[0].alive);
    EXPECT_EQ(snap[0].pid, std::uint64_t(::getpid()));
    EXPECT_EQ(snap[0].storePath, worker.opts.storePath);
    EXPECT_FALSE(snap[1].alive);
    EXPECT_FALSE(snap[1].lastError.empty());

    // markDead takes a worker out of rotation; a probe brings it back.
    registry.markDead(0, "test");
    EXPECT_TRUE(registry.liveWorkers().empty());
    EXPECT_TRUE(registry.probe(0));
    ASSERT_EQ(registry.liveWorkers().size(), 1u);
    EXPECT_EQ(registry.liveWorkers()[0], 0u);
}

// ---------------------------------------------------------------
// Byte-identity through the fleet
// ---------------------------------------------------------------

TEST(Fleet, TwoWorkerStreamMatchesASingleHostRunByteForByte)
{
    const std::uint64_t cap = 5000;
    TestFleet fleet;
    ASSERT_TRUE(fleet.start());

    serve::SubmitOutcome o = serve::submitCampaign(
        fleet.front.client(), "smoke", cap);
    ASSERT_TRUE(o.ok) << o.error;

    // Byte-identical *and* order-identical: the dispatcher's merge
    // barrier re-serializes worker deliveries into spec order, the
    // order a single-host `--jobs 1` run settles in.
    EXPECT_EQ(o.lines, referenceLines("smoke", cap));

    // Both workers actually computed a share.
    std::vector<WorkerStatus> snap = fleet.dispatcher->workers();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_GT(snap[0].linesStreamed, 0u);
    EXPECT_GT(snap[1].linesStreamed, 0u);
    EXPECT_EQ(snap[0].shardsCompleted, 1u);
    EXPECT_EQ(snap[1].shardsCompleted, 1u);

    // The master journal holds each cell exactly once, in spec order.
    runner::CampaignSpec spec;
    ASSERT_TRUE(runner::campaignByName("smoke", &spec));
    std::string journal = serve::jobJournalPath(
        fleet.front.opts.storePath,
        serve::jobIdFromKey(serve::jobKey(
            "smoke", cap, checkpoint::SampleSpec())));
    std::ifstream in(journal);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> journalLines;
    std::string line;
    while (std::getline(in, line))
        journalLines.push_back(line);
    EXPECT_EQ(journalLines, referenceLines("smoke", cap));
}

TEST(Fleet, VulnCampaignThroughTheFleetMatchesSingleHost)
{
    // An injection campaign: colons in the name, golden-reference
    // generation on the workers, classification in every line.
    const std::string campaign = "vuln:sim-outorder:C-Ca:60000:6:0:rob";
    TestFleet fleet;
    ASSERT_TRUE(fleet.start());

    serve::SubmitOutcome o =
        serve::submitCampaign(fleet.front.client(), campaign);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.lines, referenceLines(campaign, 0));
}

// ---------------------------------------------------------------
// Warm replay: a restarted dispatcher serves the master journal
// ---------------------------------------------------------------

TEST(Fleet, RestartedDispatcherReplaysTheMasterJournalWithoutDispatch)
{
    const std::uint64_t cap = 5000;
    TestFleet fleet;
    ASSERT_TRUE(fleet.start());

    serve::SubmitOutcome first = serve::submitCampaign(
        fleet.front.client(), "smoke", cap);
    ASSERT_TRUE(first.ok) << first.error;

    // "Restart" the front-end: new server, new dispatcher, same
    // master store. The workers keep running (their stores don't
    // matter — the master journal already has every line). The old
    // Server must be destroyed, not just drained: it holds the
    // listening socket until then, and the revived one probes it.
    fleet.front.stop();
    fleet.front.server.reset();
    FleetOptions fopts;
    fopts.workers = {WorkerConfig{fleet.w0.server->boundAddress()},
                     WorkerConfig{fleet.w1.server->boundAddress()}};
    fopts.seed = 8;
    Dispatcher revived(fopts);
    std::string error;
    ASSERT_TRUE(revived.start(&error)) << error;

    serve::ServeOptions ropts = fleet.front.opts;
    ropts.executor = revived.executor();
    serve::Server server(ropts);
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread thread([&server] { server.run(); });

    serve::ClientOptions c;
    c.connect = server.boundAddress();
    c.timeoutSeconds = 120.0;
    serve::SubmitOutcome again =
        serve::submitCampaign(c, "smoke", cap);
    server.requestShutdown();
    thread.join();
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.lines, first.lines);

    FleetStats stats = revived.stats();
    EXPECT_EQ(stats.shardsDispatched, 0u);
    EXPECT_EQ(stats.cellsMerged, 0u);
    EXPECT_EQ(stats.cellsReplayed, again.lines.size());
}

// ---------------------------------------------------------------
// Worker death: SIGKILL a real worker daemon mid-campaign
// ---------------------------------------------------------------

namespace {

pid_t
spawnServeDaemon(const std::string &store, const std::string &sock)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
            ::close(devnull);
        }
        ::execl(SIMALPHA_BIN, SIMALPHA_BIN, "serve", "--store",
                store.c_str(), "--listen", sock.c_str(), "--jobs",
                "1", static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

bool
waitHealthy(const std::string &sock, double seconds)
{
    serve::ClientOptions c;
    c.connect = sock;
    c.timeoutSeconds = 2.0;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(long(seconds * 1000));
    while (std::chrono::steady_clock::now() < deadline) {
        std::string reply, error;
        if (serve::requestOnce(c, "{\"op\":\"health\"}", &reply,
                               &error))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

std::size_t
completeJournalLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();
    return std::size_t(std::count(data.begin(), data.end(), '\n'));
}

} // namespace

TEST(Fleet, KilledWorkerShardRedispatchesWithZeroLostCells)
{
    const std::uint64_t cap = 200000;
    std::string dir = uniqueDir("kill");
    std::string store0 = dir + "/w0st", store1 = dir + "/w1st";
    std::string sock0 = dir + "/w0.sock", sock1 = dir + "/w1.sock";

    pid_t doomed = spawnServeDaemon(store0, sock0);
    pid_t survivor = spawnServeDaemon(store1, sock1);
    ASSERT_GT(doomed, 0);
    ASSERT_GT(survivor, 0);
    ASSERT_TRUE(waitHealthy(sock0, 30.0));
    ASSERT_TRUE(waitHealthy(sock1, 30.0));

    FleetOptions fopts;
    fopts.workers = {WorkerConfig{sock0}, WorkerConfig{sock1}};
    fopts.maxRetries = 1;   // fail over fast once the worker is gone
    fopts.backoffSeconds = 0.05;
    fopts.seed = 9;
    Dispatcher dispatcher(fopts);
    std::string error;
    ASSERT_TRUE(dispatcher.start(&error)) << error;

    serve::ServeOptions front;
    front.storePath = dir + "/front";
    front.listen = dir + "/front.sock";
    front.executor = dispatcher.executor();
    serve::Server server(front);
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread io([&server] { server.run(); });

    serve::ClientOptions c;
    c.connect = server.boundAddress();
    c.timeoutSeconds = 300.0;
    c.maxRetries = 3;
    c.backoffSeconds = 0.05;
    serve::SubmitOutcome outcome;
    std::thread client(
        [&] { outcome = serve::submitCampaign(c, "smoke", cap); });

    // Shard 0 lands on worker 0 (configured order). SIGKILL it once
    // real cells have settled into its shard journal — mid-campaign,
    // no drain.
    std::string shard0Journal = serve::jobJournalPath(
        store0, serve::jobIdFromKey(serve::jobKey(
                    "shard:0/2:smoke", cap,
                    checkpoint::SampleSpec())));
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    while (completeJournalLines(shard0Journal) < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "worker 0 never journaled a cell";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(::kill(doomed, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(doomed, &status, 0), doomed);
    ASSERT_TRUE(WIFSIGNALED(status));

    client.join();
    server.requestShutdown();
    io.join();

    // The stream completed through the survivor, byte- and
    // order-identical, with zero lost and zero duplicated cells.
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.lines, referenceLines("smoke", cap));

    FleetStats stats = dispatcher.stats();
    EXPECT_GE(stats.redispatches, 1u);
    std::vector<WorkerStatus> snap = dispatcher.workers();
    EXPECT_FALSE(snap[0].alive);
    EXPECT_FALSE(snap[0].lastError.empty());

    // Clean shutdown of the survivor.
    serve::ClientOptions sc;
    sc.connect = sock1;
    sc.timeoutSeconds = 10.0;
    std::string reply;
    EXPECT_TRUE(serve::requestOnce(sc, "{\"op\":\"shutdown\"}",
                                   &reply, &error))
        << error;
    EXPECT_EQ(::waitpid(survivor, &status, 0), survivor);
    removeDir(dir);
}

// ---------------------------------------------------------------
// Store sync: push/pull round trip, and the warm-fleet acceptance
// ---------------------------------------------------------------

TEST(FleetSync, PushPullRoundTripsStoreEntries)
{
    TestDaemon worker("sync");
    ASSERT_TRUE(worker.start());

    std::string dir = uniqueDir("syncstores");
    store::ResultStore local;
    std::string error;
    ASSERT_TRUE(local.open(dir + "/a", &error)) << error;
    ASSERT_TRUE(local.publish("key-1", "payload-1", &error));
    ASSERT_TRUE(local.publish("key-2", std::string(600000, 'x'),
                              &error));   // dwarfs kMaxLineBytes

    std::uint64_t pushed = 0;
    ASSERT_TRUE(serve::syncPush(worker.client(), local,
                                store::ExportFilter{}, &pushed,
                                &error))
        << error;
    EXPECT_EQ(pushed, 2u);

    store::ResultStore back;
    ASSERT_TRUE(back.open(dir + "/b", &error)) << error;
    std::uint64_t pulled = 0;
    ASSERT_TRUE(serve::syncPull(worker.client(), &back, 0, &pulled,
                                &error))
        << error;
    EXPECT_EQ(pulled, 2u);
    std::string payload;
    ASSERT_TRUE(back.lookup("key-1", &payload));
    EXPECT_EQ(payload, "payload-1");
    ASSERT_TRUE(back.lookup("key-2", &payload));
    EXPECT_EQ(payload, std::string(600000, 'x'));

    removeDir(dir);
}

TEST(Fleet, WarmRerunAfterSyncComputesZeroCellsOnEveryWorker)
{
    const std::uint64_t cap = 5000;

    // Cold pass with store sync on: the dispatcher harvests every
    // worker-published result back into the front store.
    TestFleet cold;
    ASSERT_TRUE(cold.start(/*sync=*/true));
    serve::SubmitOutcome first = serve::submitCampaign(
        cold.front.client(), "smoke", cap);
    ASSERT_TRUE(first.ok) << first.error;
    FleetStats coldStats = cold.dispatcher->stats();
    EXPECT_GT(coldStats.syncPulledEntries, 0u)
        << coldStats.lastSyncError;

    // Warm pass: brand-new workers with *empty* stores, same front
    // store but the master journal removed, so the job re-dispatches.
    // The pre-seed sync push gives the cold workers every result;
    // they serve, never compute.
    std::string journal = serve::jobJournalPath(
        cold.front.opts.storePath,
        serve::jobIdFromKey(serve::jobKey(
            "smoke", cap, checkpoint::SampleSpec())));
    ASSERT_EQ(std::remove(journal.c_str()), 0);

    TestDaemon w2("w2"), w3("w3");
    ASSERT_TRUE(w2.start());
    ASSERT_TRUE(w3.start());
    FleetOptions fopts;
    fopts.workers = {WorkerConfig{w2.server->boundAddress()},
                     WorkerConfig{w3.server->boundAddress()}};
    fopts.syncStores = true;
    fopts.seed = 11;
    Dispatcher warm(fopts);
    std::string error;
    ASSERT_TRUE(warm.start(&error)) << error;

    cold.front.stop();
    cold.front.server.reset();   // release the listening socket
    serve::ServeOptions wopts = cold.front.opts;
    wopts.executor = warm.executor();
    serve::Server server(wopts);
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread io([&server] { server.run(); });

    serve::ClientOptions c;
    c.connect = server.boundAddress();
    c.timeoutSeconds = 120.0;
    serve::SubmitOutcome again =
        serve::submitCampaign(c, "smoke", cap);
    server.requestShutdown();
    io.join();

    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.lines, first.lines);

    FleetStats stats = warm.stats();
    EXPECT_GT(stats.syncPushedEntries, 0u) << stats.lastSyncError;
    EXPECT_EQ(stats.cellsMerged, again.lines.size());

    // The acceptance criterion: zero cells computed on every worker.
    EXPECT_EQ(w2.server->stats().cellsComputed, 0u);
    EXPECT_EQ(w3.server->stats().cellsComputed, 0u);
    EXPECT_GT(w2.server->stats().cellsServed +
                  w3.server->stats().cellsServed,
              0u);
}

// ---------------------------------------------------------------
// Failure honesty
// ---------------------------------------------------------------

TEST(Fleet, AllWorkersDeadIsAnExplicitStartFailure)
{
    std::string dir = uniqueDir("deadstart");
    FleetOptions fopts;
    fopts.workers = {WorkerConfig{dir + "/no-such-0.sock"},
                     WorkerConfig{dir + "/no-such-1.sock"}};
    fopts.connectTimeoutSeconds = 1.0;
    Dispatcher dispatcher(fopts);
    std::string error;
    EXPECT_FALSE(dispatcher.start(&error));
    EXPECT_NE(error.find("no live workers"), std::string::npos)
        << error;
    removeDir(dir);
}

TEST(Fleet, UnknownCampaignThroughTheFleetIsATerminalRejection)
{
    TestFleet fleet;
    ASSERT_TRUE(fleet.start());
    serve::SubmitOutcome o = serve::submitCampaign(
        fleet.front.client(), "no-such-campaign");
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.errorCode, "unknown_campaign");
    EXPECT_EQ(o.attempts, 1);   // terminal: never retried
}

// ---------------------------------------------------------------
// The replay rule: a stale master-journal line settles nothing
// ---------------------------------------------------------------

TEST(Fleet, StaleMasterJournalLineIsRedispatchedNotReplayed)
{
    const std::uint64_t cap = 5000;
    TestFleet fleet;
    ASSERT_TRUE(fleet.start());

    // The master journal already holds all 12 lines, but cell 0's was
    // written under a different machine definition (its manifest hash
    // no longer matches): only that cell may be recomputed.
    const std::vector<std::string> reference =
        referenceLines("smoke", cap);
    std::string stale = reference[0];
    const std::size_t at = stale.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    stale.replace(at + 17, 4, "zzzz");
    {
        std::ofstream out(
            serve::jobJournalPath(
                fleet.front.opts.storePath,
                serve::jobIdFromKey(serve::jobKey(
                    "smoke", cap, checkpoint::SampleSpec()))),
            std::ios::binary);
        out << stale << '\n';
        for (std::size_t i = 1; i < reference.size(); i++)
            out << reference[i] << '\n';
    }

    serve::SubmitOutcome o = serve::submitCampaign(
        fleet.front.client(), "smoke", cap);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.lines, reference);

    FleetStats stats = fleet.dispatcher->stats();
    EXPECT_GE(stats.shardsDispatched, 1u);
    EXPECT_EQ(stats.cellsMerged, 1u);
    EXPECT_EQ(stats.cellsReplayed, reference.size() - 1);
}
