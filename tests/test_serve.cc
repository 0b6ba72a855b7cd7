/**
 * @file
 * The campaign service suite (`ctest -L serve`), covering the PR's
 * acceptance criteria end to end:
 *
 *  - hostile input: malformed, truncated, oversized, and binary
 *    request lines each cost one `error` reply (or a dropped
 *    connection) and never crash or wedge the daemon;
 *  - a submitted campaign streams exactly the journal lines an
 *    uninterrupted local run would have written, byte for byte, and
 *    the stream reassembles into the identical artifact;
 *  - concurrent clients submitting the same identity share one
 *    computation and collect identical streams;
 *  - a full queue is an explicit `busy` reply that loses and
 *    duplicates nothing, and `busy` is retryable — backed-off clients
 *    eventually succeed;
 *  - cell budgets are explicit `budget` rejections;
 *  - a SIGKILLed daemon restarted over the same store completes a
 *    resubmission byte-identical to an uninterrupted run (the real
 *    binary via SIMALPHA_BIN, hence the ctest TIMEOUT).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
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
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/proto.hh"
#include "serve/server.hh"

using namespace simalpha;
using namespace simalpha::serve;

namespace {

std::string
uniqueDir(const std::string &stem)
{
    static std::atomic<int> counter{0};
    std::string dir = testing::TempDir() + "sv-" + stem + "-" +
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
    ServeOptions opts;
    std::string dir;
    std::unique_ptr<Server> server;
    std::thread thread;
    std::atomic<int> exitCode{-1};

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
        server = std::make_unique<Server>(opts);
        if (!server->start(&error)) {
            ADD_FAILURE() << error;
            return false;
        }
        thread = std::thread([this] { exitCode = server->run(); });
        return true;
    }

    void stop()
    {
        if (server)
            server->requestShutdown();
        if (thread.joinable())
            thread.join();
    }

    ClientOptions client() const
    {
        ClientOptions c;
        // The bound address, not opts.listen: "tcp:0" binds a
        // kernel-assigned port only boundAddress() knows.
        c.connect = server ? server->boundAddress() : opts.listen;
        c.timeoutSeconds = 120.0;
        c.maxRetries = 0;
        return c;
    }
};

/** The sorted journal-line set an uninterrupted local run produces —
 *  the byte-identity reference for every streaming test. */
std::vector<std::string>
referenceLines(std::uint64_t maxInsts)
{
    runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    runner::CampaignSpec spec = runner::smokeCampaign();
    if (maxInsts)
        spec = spec.withMaxInsts(maxInsts);
    runner::CampaignResult res =
        runner::ExperimentRunner(ro).run(spec);
    std::vector<std::string> lines;
    for (const runner::CellResult &c : res.cells)
        lines.push_back(runner::journalLine("smoke", c));
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::vector<std::string>
sorted(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    return lines;
}

// ---------------------------------------------------------------
// Raw-socket helpers for the hostile-input tests: the client library
// is deliberately too well-behaved to send garbage.
// ---------------------------------------------------------------

int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send @p payload verbatim, then collect reply lines until @p want
 *  lines arrived, EOF, or ~2s of silence. */
std::vector<std::string>
rawExchange(const std::string &path, const std::string &payload,
            std::size_t want)
{
    std::vector<std::string> lines;
    int fd = rawConnect(path);
    if (fd < 0)
        return lines;
    (void)!::write(fd, payload.data(), payload.size());
    std::string carry;
    while (lines.size() < want) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 2000) <= 0)
            break;
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        carry.append(buf, std::size_t(n));
        std::size_t pos;
        while ((pos = carry.find('\n')) != std::string::npos) {
            lines.push_back(carry.substr(0, pos));
            carry.erase(0, pos + 1);
        }
    }
    ::close(fd);
    return lines;
}

std::string
serveEvent(const std::string &line)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    if (!parseServeLine(line, &strings, &numbers))
        return "";
    return strings["event"];
}

std::string
serveCode(const std::string &line)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    if (!parseServeLine(line, &strings, &numbers))
        return "";
    return strings["code"];
}

} // namespace

// ---------------------------------------------------------------
// Protocol parser: hostile input never crashes, valid input parses
// ---------------------------------------------------------------

TEST(ServeProto, FuzzedRequestLinesNeverCrashTheParser)
{
    const std::vector<std::string> garbage = {
        "",
        "garbage",
        "{",
        "}",
        "null",
        "42",
        "\"string\"",
        "[1,2,3]",
        "{\"op\":}",
        "{\"op\":123}",
        "{\"op\":\"submit\",}",
        "{\"op\":{\"nested\":1}}",
        "{\"op\":[\"a\"]}",
        "{\"max_insts\":\"not-a-number\"}",
        "{\"max_insts\":999999999999999999999999}",
        "{\"op\":\"submit\"  \"campaign\":\"smoke\"}",
        "{\"op\":\"submit\",\"campaign\":\"smo",
        std::string("\x01\x02\xff\xfe", 4),
        std::string(1000, '{'),
        "{\"\\u0041\":\"x\"}",
    };
    for (const std::string &line : garbage) {
        Request req;
        std::string error;
        // Must return, never throw or read out of bounds; a false
        // return must carry an error message.
        bool ok = parseRequest(line, &req, &error);
        if (!ok) {
            EXPECT_FALSE(error.empty()) << "input: " << line;
        }
    }

    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest("{\"op\":\"submit\",\"campaign\":"
                             "\"smoke\",\"max_insts\":12345,"
                             "\"sample\":\"windows=3,len=500\"}",
                             &req, &error))
        << error;
    EXPECT_EQ(req.op, "submit");
    EXPECT_EQ(req.campaign, "smoke");
    EXPECT_EQ(req.maxInsts, 12345u);
    EXPECT_EQ(req.sample, "windows=3,len=500");
}

TEST(ServeProto, ControlLinesRoundTripAndClassify)
{
    std::string line = errorLine("busy", "queue full");
    EXPECT_TRUE(isServeLine(line));
    EXPECT_EQ(serveEvent(line), "error");
    EXPECT_EQ(serveCode(line), "busy");

    // A journal/result line is not a control line.
    EXPECT_FALSE(isServeLine("{\"campaign\":\"smoke\",...}"));

    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(parseServeLine(
        doneLine("smoke", "abcd", 12, 11, 1, "complete"), &strings,
        &numbers));
    EXPECT_EQ(strings["outcome"], "complete");
    EXPECT_EQ(numbers["cells"], 12u);
    EXPECT_EQ(numbers["ok"], 11u);
    EXPECT_EQ(numbers["failed"], 1u);
}

TEST(ServeProto, IllTypedFieldsAreBadRequestsNamingTheField)
{
    // Each of these once parsed with the field silently dropped or
    // saturated, running an uncapped, unsampled or whole-store job.
    const std::vector<std::pair<std::string, std::string>> lines = {
        {"{\"op\":\"submit\",\"campaign\":\"table3\","
         "\"max_insts\":\"20000\"}",
         "max_insts"},
        {"{\"op\":\"submit\",\"campaign\":\"table3\",\"sample\":5}",
         "sample"},
        {"{\"op\":\"sync\",\"mode\":\"pull\",\"newer_than\":\"60\"}",
         "newer_than"},
        {"{\"op\":\"submit\",\"campaign\":\"table3\","
         "\"max_insts\":99999999999999999999}",
         "max_insts"},
    };
    for (const auto &[line, field] : lines) {
        Request req;
        std::string error;
        EXPECT_FALSE(parseRequest(line, &req, &error)) << line;
        EXPECT_NE(error.find("\"" + field + "\""), std::string::npos)
            << line << ": " << error;
    }
}

TEST(ServeProto, RawControlBytesAreRejectedAndEscapedOnesEchoBack)
{
    Request req;
    std::string error;
    EXPECT_FALSE(parseRequest("{\"op\":\"a\x01\"}", &req, &error));
    EXPECT_FALSE(error.empty());

    // The escaped spelling parses, and the error reply that echoes it
    // is a control line the client can read.
    ASSERT_TRUE(parseRequest("{\"op\":\"a\\u0001\"}", &req, &error))
        << error;
    EXPECT_EQ(req.op, "a\x01");
    std::string reply = errorLine("bad_request", "unknown op '" + req.op +
                                                     "'");
    EXPECT_EQ(serveCode(reply), "bad_request") << reply;
}

// ---------------------------------------------------------------
// Hostile input over the socket: one error line each, daemon survives
// ---------------------------------------------------------------

TEST(Serve, MalformedRequestsGetErrorRepliesAndTheDaemonSurvives)
{
    TestDaemon daemon("fuzz");
    ASSERT_TRUE(daemon.start());

    const std::vector<std::string> garbage = {
        "garbage\n",
        "{\n",
        "{\"op\":123}\n",
        "{\"op\":\"frobnicate\"}\n",
        "{\"op\":\"submit\"}\n",                       // no campaign
        "{\"op\":\"submit\",\"campaign\":\"nope\"}\n", // unknown
        "{\"op\":\"submit\",\"campaign\":\"smoke\","
        "\"sample\":\"windows=bogus\"}\n",             // bad sample
        std::string("\x00\x01\xff", 3) + "\n",
    };
    for (const std::string &payload : garbage) {
        std::vector<std::string> replies =
            rawExchange(daemon.opts.listen, payload, 1);
        ASSERT_EQ(replies.size(), 1u) << "payload: " << payload;
        EXPECT_EQ(serveEvent(replies[0]), "error")
            << "payload: " << payload << " reply: " << replies[0];
    }

    // An oversized line (over the 64 KiB cap) drops the connection —
    // either way the daemon survives it.
    rawExchange(daemon.opts.listen,
                std::string(2 * kMaxLineBytes, 'a') + "\n", 1);

    // A truncated request (bytes, no newline, close) is not a request.
    {
        int fd = rawConnect(daemon.opts.listen);
        ASSERT_GE(fd, 0);
        (void)!::write(fd, "{\"op\":\"sub", 10);
        ::close(fd);
    }

    // The daemon is still healthy and can still run a real campaign.
    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}",
                            &reply, &error))
        << error;
    EXPECT_EQ(serveEvent(reply), "health");
    // unknown_campaign / bad-sample rejections are not "bad requests"
    // (they parsed fine); everything else in the set is.
    EXPECT_GE(daemon.server->stats().badRequests, 5u);

    SubmitOutcome o =
        submitCampaign(daemon.client(), "smoke", 20000);
    EXPECT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.lines.size(), 12u);
}

TEST(Serve, IllTypedFieldsGetBadRequestRepliesNamingTheField)
{
    TestDaemon daemon("typed");
    ASSERT_TRUE(daemon.start());

    std::vector<std::string> replies = rawExchange(
        daemon.opts.listen,
        "{\"op\":\"submit\",\"campaign\":\"smoke\","
        "\"max_insts\":\"20000\"}\n",
        1);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(serveCode(replies[0]), "bad_request") << replies[0];
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(parseServeLine(replies[0], &strings, &numbers));
    EXPECT_NE(strings["message"].find("max_insts"), std::string::npos)
        << strings["message"];

    // An escaped control byte comes back in an error reply that the
    // client parses like any other.
    replies = rawExchange(daemon.opts.listen,
                          "{\"op\":\"\\u0001\\r\"}\n", 1);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(serveCode(replies[0]), "bad_request") << replies[0];
    EXPECT_EQ(daemon.server->stats().badRequests, 2u);
}

// ---------------------------------------------------------------
// Byte identity: served stream == local journal == local artifact
// ---------------------------------------------------------------

TEST(Serve, SubmittedStreamIsByteIdenticalToALocalRun)
{
    TestDaemon daemon("ident");
    ASSERT_TRUE(daemon.start());

    SubmitOutcome o =
        submitCampaign(daemon.client(), "smoke", 20000);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.attempts, 1);
    EXPECT_EQ(sorted(o.lines), referenceLines(20000));

    // The stream reassembles into the exact artifact a local
    // `--campaign smoke` run would have written.
    runner::CampaignResult served;
    std::string error;
    ASSERT_TRUE(
        linesToResult("smoke", 20000, "", o.lines, &served, &error))
        << error;
    runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    runner::CampaignResult local = runner::ExperimentRunner(ro).run(
        runner::smokeCampaign().withMaxInsts(20000));
    EXPECT_EQ(runner::toJson(served), runner::toJson(local));
}

TEST(Serve, RestartedDaemonServesWarmCellsFromTheStore)
{
    std::vector<std::string> first, second;
    std::string dir;
    {
        TestDaemon daemon("warm1");
        dir = daemon.dir;
        ASSERT_TRUE(daemon.start());
        SubmitOutcome o =
            submitCampaign(daemon.client(), "smoke", 20000);
        ASSERT_TRUE(o.ok) << o.error;
        first = sorted(o.lines);
        daemon.stop();

        // Remove the job journal: the fresh daemon must answer from
        // the store, not from journal replay.
        std::string journal = jobJournalPath(
            daemon.opts.storePath,
            jobIdFromKey(
                jobKey("smoke", 20000, checkpoint::SampleSpec())));
        ASSERT_EQ(std::remove(journal.c_str()), 0);

        TestDaemon warm("warm2");
        // Point the second daemon at the first daemon's store.
        warm.opts.storePath = daemon.opts.storePath;
        ASSERT_TRUE(warm.start());
        SubmitOutcome o2 =
            submitCampaign(warm.client(), "smoke", 20000);
        ASSERT_TRUE(o2.ok) << o2.error;
        second = sorted(o2.lines);
        EXPECT_EQ(warm.server->stats().cellsServed, 12u);
        EXPECT_EQ(warm.server->stats().cellsComputed, 0u);
    }
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, referenceLines(20000));
}

// ---------------------------------------------------------------
// Concurrency: same identity → one computation, every line to all
// ---------------------------------------------------------------

TEST(Serve, ConcurrentClientsOfOneIdentityShareOneComputation)
{
    std::atomic<bool> hold{true};
    TestDaemon daemon("attach");
    daemon.opts.testHoldExecutor = &hold;
    ASSERT_TRUE(daemon.start());

    SubmitOutcome a, b;
    std::thread ta([&] {
        a = submitCampaign(daemon.client(), "smoke", 20000);
    });
    std::thread tb([&] {
        b = submitCampaign(daemon.client(), "smoke", 20000);
    });

    // Wait until both submissions landed (one new job + one attach),
    // then let the executor run the single shared job.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    for (;;) {
        ServeStats st = daemon.server->stats();
        if (st.submits + st.attaches >= 2)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "submissions never landed";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    hold = false;
    ta.join();
    tb.join();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    // Identical streams — same order, same bytes — and only one
    // computation ever happened.
    EXPECT_EQ(a.lines, b.lines);
    EXPECT_EQ(sorted(a.lines), referenceLines(20000));
    ServeStats st = daemon.server->stats();
    EXPECT_EQ(st.submits, 1u);
    EXPECT_EQ(st.attaches, 1u);
    EXPECT_EQ(st.cellsComputed, 12u);
    EXPECT_EQ(st.jobsDone, 1u);
}

// ---------------------------------------------------------------
// Admission control: busy is explicit, lossless, and retryable
// ---------------------------------------------------------------

TEST(Serve, FullQueueRejectsBusyAndLosesNoCells)
{
    std::atomic<bool> hold{true};
    TestDaemon daemon("busy");
    daemon.opts.maxPending = 1;
    daemon.opts.testHoldExecutor = &hold;
    ASSERT_TRUE(daemon.start());

    // First identity fills the queue (the executor is held).
    SubmitOutcome a;
    std::thread ta([&] {
        a = submitCampaign(daemon.client(), "smoke", 20000);
    });
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (daemon.server->stats().submits < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // A different identity now bounces with an explicit busy reply.
    SubmitOutcome b =
        submitCampaign(daemon.client(), "smoke", 20001);
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(b.errorCode, "busy");
    EXPECT_GE(daemon.server->stats().busyRejections, 1u);

    // ... but the same identity still attaches (no lost work, no
    // double submission).
    SubmitOutcome c;
    std::thread tc([&] {
        c = submitCampaign(daemon.client(), "smoke", 20000);
    });
    while (daemon.server->stats().attaches < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    hold = false;
    ta.join();
    tc.join();
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(a.lines, c.lines);

    // Zero lost, zero duplicated journaled cells.
    std::string journal = jobJournalPath(
        daemon.opts.storePath,
        jobIdFromKey(jobKey("smoke", 20000, checkpoint::SampleSpec())));
    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::set<std::string> keys;
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        lines++;
        runner::CellResult r;
        std::string key;
        ASSERT_TRUE(
            runner::parseJournalLine(line, "smoke", &r, &key));
        keys.insert(key);
    }
    EXPECT_EQ(lines, 12u);
    EXPECT_EQ(keys.size(), 12u);
}

TEST(Serve, BusyIsRetryableAndBackedOffClientsEventuallySucceed)
{
    std::atomic<bool> hold{true};
    TestDaemon daemon("retry");
    daemon.opts.maxPending = 1;
    daemon.opts.testHoldExecutor = &hold;
    ASSERT_TRUE(daemon.start());

    SubmitOutcome a;
    std::thread ta([&] {
        a = submitCampaign(daemon.client(), "smoke", 20000);
    });
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (daemon.server->stats().submits < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // The retrying client keeps bouncing off the full queue until the
    // hold lifts, then lands.
    std::thread release([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        hold = false;
    });
    ClientOptions retry = daemon.client();
    retry.maxRetries = 50;
    retry.backoffSeconds = 0.05;
    retry.seed = 7;
    SubmitOutcome b = submitCampaign(retry, "smoke", 20001);
    release.join();
    ta.join();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_GT(b.attempts, 1);
    EXPECT_GE(daemon.server->stats().busyRejections, 1u);
}

TEST(Serve, CellBudgetsAreExplicitBudgetRejections)
{
    TestDaemon daemon("budget");
    daemon.opts.maxCellsPerCampaign = 5;   // smoke has 12
    ASSERT_TRUE(daemon.start());

    SubmitOutcome o =
        submitCampaign(daemon.client(), "smoke", 20000);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.errorCode, "budget");
    EXPECT_EQ(daemon.server->stats().budgetRejections, 1u);
    EXPECT_EQ(daemon.server->stats().submits, 0u);
}

TEST(Serve, PerClientCellBudgetCapsAConnectionsLifetimeSubmissions)
{
    TestDaemon daemon("clientbudget");
    daemon.opts.maxClientCells = 13;       // one smoke fits, two don't
    ASSERT_TRUE(daemon.start());

    // Two sequential submissions on ONE connection: a connection may
    // hold one result stream at a time, so wait for the first done
    // line — then the second submission exhausts the lifetime budget.
    int fd = rawConnect(daemon.opts.listen);
    ASSERT_GE(fd, 0);
    auto sendLine = [&](const std::string &line) {
        std::string payload = line + "\n";
        ASSERT_EQ(::write(fd, payload.data(), payload.size()),
                  ssize_t(payload.size()));
    };
    std::string carry;
    auto readLine = [&]() -> std::string {
        for (;;) {
            std::size_t pos = carry.find('\n');
            if (pos != std::string::npos) {
                std::string line = carry.substr(0, pos);
                carry.erase(0, pos + 1);
                return line;
            }
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, 30000) <= 0)
                return "";
            char buf[4096];
            ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0)
                return "";
            carry.append(buf, std::size_t(n));
        }
    };

    sendLine("{\"op\":\"submit\",\"campaign\":\"smoke\","
             "\"max_insts\":20000}");
    std::size_t accepted = 0, results = 0, done = 0;
    for (;;) {
        std::string line = readLine();
        ASSERT_FALSE(line.empty()) << "stream ended early";
        if (!isServeLine(line)) {
            results++;
            continue;
        }
        std::string event = serveEvent(line);
        if (event == "accepted")
            accepted++;
        if (event == "done") {
            done++;
            break;
        }
    }
    EXPECT_EQ(accepted, 1u);
    EXPECT_EQ(results, 12u);
    EXPECT_EQ(done, 1u);

    // 12 of 13 budget cells used: the next submission is an explicit
    // budget rejection on this connection...
    sendLine("{\"op\":\"submit\",\"campaign\":\"smoke\","
             "\"max_insts\":20001}");
    std::string reply = readLine();
    EXPECT_EQ(serveEvent(reply), "error") << reply;
    EXPECT_EQ(serveCode(reply), "budget") << reply;
    ::close(fd);
    EXPECT_EQ(daemon.server->stats().budgetRejections, 1u);

    // ... while a fresh connection still has its full budget.
    SubmitOutcome fresh =
        submitCampaign(daemon.client(), "smoke", 20001);
    EXPECT_TRUE(fresh.ok) << fresh.error;
}

// ---------------------------------------------------------------
// Status / results ops
// ---------------------------------------------------------------

TEST(Serve, StatusAndResultsReportAbsentJobsHonestly)
{
    TestDaemon daemon("status");
    ASSERT_TRUE(daemon.start());

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(),
                            "{\"op\":\"status\",\"campaign\":"
                            "\"smoke\",\"max_insts\":20000}",
                            &reply, &error))
        << error;
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(parseServeLine(reply, &strings, &numbers));
    EXPECT_EQ(strings["state"], "absent");

    SubmitOutcome miss = submitCampaign(daemon.client(), "smoke",
                                        20000, "", true /*results*/);
    EXPECT_FALSE(miss.ok);
    EXPECT_EQ(miss.errorCode, "not_found");

    SubmitOutcome run =
        submitCampaign(daemon.client(), "smoke", 20000);
    ASSERT_TRUE(run.ok) << run.error;

    // results now replays the settled job without recomputing.
    SubmitOutcome hit = submitCampaign(daemon.client(), "smoke",
                                       20000, "", true /*results*/);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_EQ(sorted(hit.lines), sorted(run.lines));
}

// ---------------------------------------------------------------
// Drain: shutdown finishes the in-flight job, then exits 0
// ---------------------------------------------------------------

TEST(Serve, ShutdownDrainsTheInFlightJobThenExits)
{
    TestDaemon daemon("drain");
    ASSERT_TRUE(daemon.start());

    SubmitOutcome o;
    std::thread t([&] {
        o = submitCampaign(daemon.client(), "smoke", 20000);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon.server->requestShutdown();
    t.join();
    daemon.stop();

    // The subscriber still got its complete stream and the daemon
    // exited cleanly.
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(sorted(o.lines), referenceLines(20000));
    EXPECT_EQ(daemon.exitCode.load(), 0);
}

// ---------------------------------------------------------------
// Client backoff: deterministic, bounded, desynchronized
// ---------------------------------------------------------------

TEST(ServeClient, RetryBackoffIsDeterministicBoundedAndJittered)
{
    for (int attempt = 0; attempt < 8; attempt++) {
        double d1 = retryBackoffSeconds(0.2, attempt, 42);
        double d2 = retryBackoffSeconds(0.2, attempt, 42);
        EXPECT_EQ(d1, d2);      // reproducible
        double nominal = 0.2 * double(1u << attempt);
        EXPECT_GE(d1, nominal * 0.75);
        EXPECT_LT(d1, nominal * 1.25);
    }
    // Different seeds (clients) never retry in lockstep.
    bool differs = false;
    for (int attempt = 0; attempt < 8; attempt++)
        if (retryBackoffSeconds(0.2, attempt, 1) !=
            retryBackoffSeconds(0.2, attempt, 2))
            differs = true;
    EXPECT_TRUE(differs);
    // The exponent is clamped — no overflow into nonsense.
    EXPECT_GT(retryBackoffSeconds(0.2, 1000, 0), 0.0);
}

// ---------------------------------------------------------------
// The headline drill: SIGKILL the daemon mid-campaign, restart it,
// resubmit — byte-identical to an uninterrupted run. Real processes.
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
    ClientOptions c;
    c.connect = sock;
    c.timeoutSeconds = 2.0;
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(long(seconds * 1000));
    while (std::chrono::steady_clock::now() < deadline) {
        std::string reply, error;
        if (requestOnce(c, "{\"op\":\"health\"}", &reply, &error))
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
    return std::size_t(
        std::count(data.begin(), data.end(), '\n'));
}

} // namespace

TEST(Serve, KilledDaemonRestartsAndResumesByteIdentical)
{
    const std::uint64_t cap = 300000;
    std::string dir = uniqueDir("kill");
    std::string store = dir + "/st";
    std::string sock = dir + "/s.sock";
    std::string journal = jobJournalPath(
        store,
        jobIdFromKey(jobKey("smoke", cap, checkpoint::SampleSpec())));

    pid_t daemon = spawnServeDaemon(store, sock);
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitHealthy(sock, 30.0));

    // Submit in the background with no retries: this client is the
    // casualty and must observe a torn stream, not a hang.
    ClientOptions doomed;
    doomed.connect = sock;
    doomed.timeoutSeconds = 120.0;
    doomed.maxRetries = 0;
    SubmitOutcome torn;
    std::thread victim(
        [&] { torn = submitCampaign(doomed, "smoke", cap); });

    // SIGKILL the daemon once real cells have settled into the job
    // journal — mid-campaign, no drain, no flush.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    while (completeJournalLines(journal) < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "no cells ever journaled";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(::kill(daemon, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
    ASSERT_TRUE(WIFSIGNALED(status));
    victim.join();
    EXPECT_FALSE(torn.ok);

    const std::size_t settled = completeJournalLines(journal);
    ASSERT_GE(settled, 2u);

    // Restart over the same store; a retrying resubmission replays
    // the journaled cells and computes only the remainder.
    pid_t revived = spawnServeDaemon(store, sock);
    ASSERT_GT(revived, 0);
    ASSERT_TRUE(waitHealthy(sock, 30.0));

    ClientOptions retry;
    retry.connect = sock;
    retry.timeoutSeconds = 120.0;
    retry.maxRetries = 3;
    retry.backoffSeconds = 0.05;
    SubmitOutcome resumed = submitCampaign(retry, "smoke", cap);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.lines.size(), 12u);
    EXPECT_EQ(sorted(resumed.lines), referenceLines(cap));

    // The journal holds each cell exactly once — nothing lost to the
    // SIGKILL, nothing recomputed into a duplicate.
    std::ifstream in(journal);
    std::set<std::string> keys;
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        lines++;
        runner::CellResult r;
        std::string key;
        ASSERT_TRUE(
            runner::parseJournalLine(line, "smoke", &r, &key));
        keys.insert(key);
    }
    EXPECT_EQ(lines, 12u);
    EXPECT_EQ(keys.size(), 12u);

    // Clean shutdown of the revived daemon.
    std::string reply, error;
    EXPECT_TRUE(requestOnce(retry, "{\"op\":\"shutdown\"}", &reply,
                            &error))
        << error;
    EXPECT_EQ(::waitpid(revived, &status, 0), revived);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    removeDir(dir);
}

// ---------------------------------------------------------------
// TCP path: everything above runs over Unix sockets; the fleet tier
// talks TCP, so the transport-sensitive behaviors get loopback
// coverage of their own.
// ---------------------------------------------------------------

namespace {

/** Raw loopback TCP connect to a "tcp:PORT"/"tcp:HOST:PORT" bound
 *  address, for the hostile-input tests. */
int
rawConnectTcp(const std::string &bound)
{
    std::string host;
    std::uint16_t port = 0;
    std::string error;
    if (!parseTcpAddress(bound, &host, &port, &error))
        return -1;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

TEST(ServeTcp, AddressGrammarAcceptsHostPortAndRejectsGarbage)
{
    std::string host, error;
    std::uint16_t port = 0;
    ASSERT_TRUE(parseTcpAddress("tcp:9000", &host, &port, &error));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000);
    ASSERT_TRUE(
        parseTcpAddress("tcp:0.0.0.0:80", &host, &port, &error));
    EXPECT_EQ(host, "0.0.0.0");
    EXPECT_EQ(port, 80);

    for (const char *bad :
         {"tcp:", "tcp:abc", "tcp:70000", "tcp:1.2.3.4:",
          "tcp:1.2.3.4:x", "tcp::9000", "tcp:1.2.3.4:99999"}) {
        error.clear();
        EXPECT_FALSE(parseTcpAddress(bad, &host, &port, &error))
            << bad;
        EXPECT_NE(error.find("bad TCP address"), std::string::npos)
            << bad;
    }
}

TEST(ServeTcp, StreamOverLoopbackIsByteIdenticalToUnixSocket)
{
    std::vector<std::string> viaUnix, viaTcp;
    {
        TestDaemon daemon("tcpref");
        ASSERT_TRUE(daemon.start());
        SubmitOutcome o =
            submitCampaign(daemon.client(), "smoke", 5000);
        ASSERT_TRUE(o.ok) << o.error;
        viaUnix = o.lines;
    }
    {
        TestDaemon daemon("tcp");
        daemon.opts.listen = "tcp:0";   // kernel-assigned port
        ASSERT_TRUE(daemon.start());
        const std::string bound = daemon.server->boundAddress();
        ASSERT_EQ(bound.rfind("tcp:", 0), 0u) << bound;
        SubmitOutcome o =
            submitCampaign(daemon.client(), "smoke", 5000);
        ASSERT_TRUE(o.ok) << o.error;
        viaTcp = o.lines;
    }
    // Sorted: the daemon settles cells on two runner threads, so
    // arrival order is timing; the *byte set* must be identical.
    EXPECT_EQ(sorted(viaTcp), sorted(viaUnix));
    EXPECT_EQ(sorted(viaTcp), referenceLines(5000));
}

TEST(ServeTcp, ExplicitHostBindReportsHostPortAndServes)
{
    TestDaemon daemon("tcphost");
    daemon.opts.listen = "tcp:127.0.0.1:0";
    ASSERT_TRUE(daemon.start());
    const std::string bound = daemon.server->boundAddress();
    EXPECT_EQ(bound.rfind("tcp:127.0.0.1:", 0), 0u) << bound;

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"hello\"}",
                            &reply, &error))
        << error;
    EXPECT_EQ(serveEvent(reply), "hello");
}

TEST(ServeTcp, BadBindAddressesFailWithClearMessages)
{
    {
        TestDaemon daemon("tcpbad1");
        daemon.opts.listen = "tcp:70000";
        std::string error;
        daemon.server =
            std::make_unique<Server>(daemon.opts);
        EXPECT_FALSE(daemon.server->start(&error));
        EXPECT_NE(error.find("bad TCP address"), std::string::npos)
            << error;
    }
    {
        TestDaemon daemon("tcpbad2");
        daemon.opts.listen = "tcp:not.an.ip.addr:80";
        std::string error;
        daemon.server =
            std::make_unique<Server>(daemon.opts);
        EXPECT_FALSE(daemon.server->start(&error));
        EXPECT_NE(error.find("not an IPv4 address"),
                  std::string::npos)
            << error;
    }
}

TEST(ServeTcp, OversizedLineOverTcpIsRejectedNotBuffered)
{
    TestDaemon daemon("tcphuge");
    daemon.opts.listen = "tcp:0";
    ASSERT_TRUE(daemon.start());

    int fd = rawConnectTcp(daemon.server->boundAddress());
    ASSERT_GE(fd, 0);
    // A request line far over kMaxLineBytes, never newline-terminated:
    // the daemon must cut the connection (or error), not buffer it.
    std::string huge(kMaxLineBytes + 4096, 'a');
    (void)!::write(fd, huge.data(), huge.size());
    char buf[4096];
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
        std::string reply(buf, std::size_t(n));
        EXPECT_NE(reply.find("error"), std::string::npos) << reply;
    }   // n <= 0: dropped outright — equally acceptable
    ::close(fd);

    // The daemon survived.
    std::string reply, error;
    EXPECT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}",
                            &reply, &error))
        << error;
}

TEST(ServeTcp, TornTcpStreamReattachesToByteIdenticalCompletion)
{
    TestDaemon daemon("tcptorn");
    daemon.opts.listen = "tcp:0";
    ASSERT_TRUE(daemon.start());

    // Tear a stream client-side: submit over raw TCP, read a little,
    // hang up mid-job.
    int fd = rawConnectTcp(daemon.server->boundAddress());
    ASSERT_GE(fd, 0);
    const std::string req =
        "{\"op\":\"submit\",\"campaign\":\"smoke\","
        "\"max_insts\":20000}\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              ssize_t(req.size()));
    char buf[512];
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 30000), 0);
    ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);
    ::close(fd);    // the tear

    // A retrying client resubmitting the same identity attaches (or
    // replays) and collects the complete byte-identical set.
    ClientOptions c = daemon.client();
    c.maxRetries = 3;
    c.backoffSeconds = 0.05;
    SubmitOutcome o = submitCampaign(c, "smoke", 20000);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(sorted(o.lines), referenceLines(20000));
}

TEST(ServeTcp, HealthAndCapabilitiesReportDaemonIdentity)
{
    TestDaemon daemon("tcphealth");
    daemon.opts.listen = "tcp:0";
    daemon.opts.maxPending = 3;
    ASSERT_TRUE(daemon.start());

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}",
                            &reply, &error))
        << error;
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(parseServeLine(reply, &strings, &numbers));
    EXPECT_EQ(strings["event"], "health");
    // The fleet registry's worker-admission fields: who the daemon
    // is, where its store lives, how deep its queue runs.
    EXPECT_EQ(numbers["pid"], std::uint64_t(::getpid()));
    EXPECT_EQ(strings["store_path"], daemon.opts.storePath);
    EXPECT_TRUE(numbers.count("uptime_s"));
    EXPECT_TRUE(numbers.count("jobs_pending"));

    ASSERT_TRUE(requestOnce(daemon.client(),
                            "{\"op\":\"capabilities\"}", &reply,
                            &error))
        << error;
    strings.clear();
    numbers.clear();
    ASSERT_TRUE(parseServeLine(reply, &strings, &numbers));
    EXPECT_EQ(strings["event"], "capabilities");
    EXPECT_EQ(numbers["version"], std::uint64_t(kProtoVersion));
    EXPECT_EQ(numbers["max_pending"], 3u);
    EXPECT_EQ(strings["store_path"], daemon.opts.storePath);
    EXPECT_NE(strings["ops"].find("sync"), std::string::npos);
}

// ---------------------------------------------------------------
// Journal replay: status and results read by the replay rule
// ---------------------------------------------------------------

namespace {

/** The smoke campaign's journal lines at @p maxInsts in spec order —
 *  the order a `--jobs 1` run settles in. */
std::vector<std::string>
specOrderLines(std::uint64_t maxInsts)
{
    runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    runner::CampaignResult res = runner::ExperimentRunner(ro).run(
        runner::smokeCampaign().withMaxInsts(maxInsts));
    std::vector<std::string> lines;
    for (const runner::CellResult &c : res.cells)
        lines.push_back(runner::journalLine("smoke", c));
    return lines;
}

} // namespace

TEST(Serve, StatusAndResultsSkipStaleAndDuplicateJournalLines)
{
    TestDaemon daemon("replayrule");
    ASSERT_TRUE(daemon.start());

    // A job journal no live job owns: cell 0's line is stale (written
    // under another machine definition) and cell 1 appears twice.
    const std::vector<std::string> lines = specOrderLines(20000);
    std::string stale = lines[0];
    const std::size_t at = stale.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    stale.replace(at + 17, 4, "zzzz");
    {
        std::ofstream out(
            jobJournalPath(daemon.opts.storePath,
                           jobIdFromKey(jobKey(
                               "smoke", 20000, checkpoint::SampleSpec()))),
            std::ios::binary);
        out << stale << '\n';
        for (std::size_t i = 1; i < lines.size(); i++)
            out << lines[i] << '\n';
        out << lines[1] << '\n';
    }

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(),
                            "{\"op\":\"status\",\"campaign\":"
                            "\"smoke\",\"max_insts\":20000}",
                            &reply, &error))
        << error;
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    ASSERT_TRUE(parseServeLine(reply, &strings, &numbers)) << reply;
    EXPECT_EQ(strings["state"], "journal");
    EXPECT_EQ(numbers["settled"], 11u) << reply;
    EXPECT_EQ(numbers["cells"], 12u) << reply;

    SubmitOutcome results = submitCampaign(daemon.client(), "smoke",
                                           20000, "", true /*results*/);
    ASSERT_TRUE(results.ok) << results.error;
    EXPECT_EQ(results.lines,
              std::vector<std::string>(lines.begin() + 1, lines.end()));
    EXPECT_EQ(results.doneStrings["outcome"], "partial");
}

// ---------------------------------------------------------------
// Process isolation behind the daemon
// ---------------------------------------------------------------

TEST(Serve, ProcessIsolationStreamsInSpecOrderAndRestartReplays)
{
    const std::vector<std::string> lines = specOrderLines(20000);
    TestDaemon daemon("proc");
    daemon.opts.isolate = "process";
    daemon.opts.shards = 3;
    daemon.opts.workerBinary = SIMALPHA_BIN;
    ASSERT_TRUE(daemon.start());

    // Three worker processes settle in any order; the stream leaves
    // in spec order, byte-identical to a `--jobs 1` run.
    SubmitOutcome o = submitCampaign(daemon.client(), "smoke", 20000);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.lines, lines);
    EXPECT_EQ(daemon.server->stats().cellsComputed, lines.size());
    daemon.stop();

    // A restarted daemon over the same store replays the job journal:
    // the same stream, nothing computed, no worker needed.
    TestDaemon again("proc-again");
    again.opts.storePath = daemon.opts.storePath;
    again.opts.isolate = "process";
    again.opts.shards = 3;
    again.opts.workerBinary = SIMALPHA_BIN;
    ASSERT_TRUE(again.start());
    SubmitOutcome replayed =
        submitCampaign(again.client(), "smoke", 20000);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    EXPECT_EQ(replayed.lines, lines);
    EXPECT_EQ(again.server->stats().cellsServed, lines.size());
    EXPECT_EQ(again.server->stats().cellsComputed, 0u);
}

// ---------------------------------------------------------------
// Shard names with hostile counts
// ---------------------------------------------------------------

TEST(Serve, HugeShardCountsServeOneSliceAndTheDaemonKeepsAnswering)
{
    const std::vector<std::string> lines = specOrderLines(20000);
    TestDaemon daemon("hugeshard");
    ASSERT_TRUE(daemon.start());

    // A slice of a count far beyond the cell count holds one cell; its
    // name must cost that cell, not a vector per shard.
    for (const char *count : {"18446744073709551615", "1000000000"}) {
        const std::string name =
            std::string("shard:0/") + count + ":smoke";
        SubmitOutcome o = submitCampaign(daemon.client(), name, 20000);
        ASSERT_TRUE(o.ok) << name << ": " << o.error;
        EXPECT_EQ(o.lines, std::vector<std::string>{lines[0]}) << name;

        std::string reply, error;
        ASSERT_TRUE(requestOnce(daemon.client(),
                                "{\"op\":\"status\",\"campaign\":\"" +
                                    name + "\",\"max_insts\":20000}",
                                &reply, &error))
            << error;
        EXPECT_NE(reply.find("\"cells\":1"), std::string::npos) << reply;
    }

    // A count past 64 bits is no campaign at all.
    SubmitOutcome bad = submitCampaign(
        daemon.client(), "shard:0/18446744073709551616:smoke", 20000);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, "unknown_campaign");

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}", &reply,
                            &error))
        << error;
    EXPECT_NE(reply.find("\"event\":\"health\""), std::string::npos)
        << reply;
}

// ---------------------------------------------------------------
// Vulnerability names with hostile cell counts
// ---------------------------------------------------------------

TEST(Serve, HugeVulnCampaignsMeetTheBudgetBeforeAnyCellIsBuilt)
{
    // A billion declared cells, bare or in a shard: slice, is a budget
    // rejection; building the cells first would exhaust memory. A
    // slice is held to its whole base, which is built before it is
    // sliced: slice 0 of 10^8 holds 100 of 10^10 cells.
    const std::string vuln =
        "vuln:sim-alpha:C-Ca:1000:1000000000:1:regfile";
    const std::vector<std::string> names = {
        vuln, "shard:0/2:" + vuln,
        "shard:0/100000000:vuln:sim-alpha:C-Ca:1000:10000000000:1:"
        "regfile"};
    // Each budget holds on its own.
    for (bool perClient : {false, true}) {
        TestDaemon daemon(perClient ? "hugevuln-client" : "hugevuln");
        if (perClient)
            daemon.opts.maxClientCells = 100;
        else
            daemon.opts.maxCellsPerCampaign = 100;
        ASSERT_TRUE(daemon.start());

        for (const std::string &name : names) {
            SubmitOutcome o = submitCampaign(daemon.client(), name, 0);
            EXPECT_FALSE(o.ok) << name;
            EXPECT_EQ(o.errorCode, "budget") << name << ": " << o.error;

            std::string reply, error;
            ASSERT_TRUE(requestOnce(daemon.client(),
                                    "{\"op\":\"status\",\"campaign\":\"" +
                                        name + "\"}",
                                    &reply, &error))
                << error;
            EXPECT_EQ(serveCode(reply), "budget") << reply;
        }
        EXPECT_EQ(daemon.server->stats().submits, 0u);

        std::string reply, error;
        ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}",
                                &reply, &error))
            << error;
        EXPECT_EQ(serveEvent(reply), "health") << reply;
    }
}

TEST(Serve, ARequestThatThrowsGetsAnErrorLineAndTheDaemonKeepsAnswering)
{
    TestDaemon daemon("throws");
    ASSERT_TRUE(daemon.start());

    // No budget here: planning 2^64-1 injection cells throws
    // length_error before any memory is taken.
    SubmitOutcome o = submitCampaign(
        daemon.client(),
        "vuln:sim-outorder:C-Ca:1000:18446744073709551615:1:regfile", 0);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.errorCode, "internal") << o.error;

    std::string reply, error;
    ASSERT_TRUE(requestOnce(daemon.client(), "{\"op\":\"health\"}", &reply,
                            &error))
        << error;
    EXPECT_EQ(serveEvent(reply), "health") << reply;
}

TEST(Serve, ThreadPoolStreamsInSpecOrderLikeJobsOne)
{
    // Four pool threads settle in any order; the stream leaves in spec
    // order, the `--jobs 1` lines unsorted.
    TestDaemon daemon("threadorder");
    daemon.opts.jobs = 4;
    ASSERT_TRUE(daemon.start());
    SubmitOutcome o = submitCampaign(daemon.client(), "smoke", 20000);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.lines, specOrderLines(20000));
    EXPECT_EQ(daemon.server->stats().cellsComputed, o.lines.size());
}
