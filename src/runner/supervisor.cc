#include "supervisor.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/error.hh"
#include "runner/sharded.hh"

extern char **environ;

namespace simalpha {
namespace runner {

namespace {

using Clock = std::chrono::steady_clock;

/** Worker respawns allowed per shard after a death. */
constexpr int kMaxRespawns = 2;
/** How long a SIGTERMed worker gets to drain before the supervisor
 *  escalates to SIGKILL. */
constexpr double kTermGraceSeconds = 2.0;

std::string
cellLabel(const Cell &cell)
{
    std::string label = "'" + cell.workload + "' on '" + cell.machine;
    if (cell.opt != validate::Optimization::None)
        label.append("+").append(validate::optimizationName(cell.opt));
    label += "'";
    return label;
}

/** Spawn `simalpha --shard` for @p cells, journaling into @p journal
 *  and logging into @p log; -1 when posix_spawn fails. */
pid_t
spawnWorker(const SupervisorOptions &opts,
            const std::vector<std::size_t> &cells,
            const std::string &journal, const std::string &log)
{
    std::vector<std::string> args = {
        opts.workerBinary,     "--shard",   "--campaign", opts.campaign,
        "--cells", formatCellList(cells), "--journal",  journal};
    auto add = [&](const char *flag, const std::string &value) {
        args.push_back(flag);
        args.push_back(value);
    };
    if (opts.maxInsts)
        add("--max-insts", std::to_string(opts.maxInsts));
    if (opts.sample.enabled())
        add("--sample", checkpoint::formatSampleSpec(opts.sample));
    if (!opts.storePath.empty())
        add("--store", opts.storePath);
    if (opts.maxRetries)
        add("--retries", std::to_string(opts.maxRetries));
    for (const FaultInjection &fault : opts.faults)
        add("--inject", formatFaultSpec(fault));
    if (opts.journalSync)
        args.push_back("--journal-sync");

    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, opts.workerBinary.c_str(), &actions,
                         nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? pid : -1;
}

/** What one slice's worker attempts did, summed after the run. */
struct SliceTally
{
    int spawns = 0;
    int respawns = 0;
    std::size_t crashed = 0;
    std::size_t timedOut = 0;
    StoreTraffic store;
};

/**
 * The process transport for one slice. Spawn a worker for the slice's
 * unsettled cells and tail its journal: heartbeats name the in-flight
 * cell, result lines go to the run. The worker's end becomes
 * declarations — a death names the in-flight (poison) cell, a budget
 * overrun is a timeout, a clean exit leaves nothing unsettled — and
 * the rest of the slice respawns with backoff, or is given up once
 * the respawn budget is spent.
 */
void
runProcessSlice(const Slice &slice, ShardedRun &run,
                const SupervisorOptions &opts, const std::string &scratch,
                SliceTally &tally)
{
    const CampaignSpec &spec = run.spec();
    const std::string shard = "shard " + std::to_string(slice.index);
    const std::string stem = scratch + "/shard-" +
                             std::to_string(slice.index);
    const std::string log = stem + ".log";
    const auto grace = std::chrono::duration<double>(kTermGraceSeconds);
    const auto budget = std::chrono::duration<double>(opts.cellTimeout);

    auto declare = [&](std::size_t cell, const std::string &errorClass,
                       const std::string &message) {
        if (run.declare(cell, errorClass, message))
            (errorClass == "timeout" ? tally.timedOut : tally.crashed)++;
    };
    auto unsettled = [&] {
        std::vector<std::size_t> left;
        for (std::size_t cell : slice.cells)
            if (!run.settled(cell))
                left.push_back(cell);
        return left;
    };

    for (;;) {
        const std::vector<std::size_t> cells = unsettled();
        if (cells.empty() || run.stopping())
            return;
        const std::string journal = unusedJournalPath(stem + "-try");
        tally.spawns++;
        const pid_t pid = spawnWorker(opts, cells, journal, log);
        std::string why = "posix_spawn failed";

        if (pid > 0) {
            long inFlight = -1;     ///< cell of the last heartbeat
            Clock::time_point since;
            std::streamoff offset = 0;
            // Complete lines only: a line torn by a kill is never read.
            auto drain = [&] {
                std::ifstream in(journal, std::ios::binary);
                if (!in || !in.seekg(offset))
                    return;
                std::ostringstream chunk;
                chunk << in.rdbuf();
                const std::string data = chunk.str();
                std::size_t pos = 0, nl;
                while ((nl = data.find('\n', pos)) != std::string::npos) {
                    const std::string line = data.substr(pos, nl - pos);
                    offset += std::streamoff(nl + 1 - pos);
                    pos = nl + 1;
                    std::size_t cell = 0;
                    StoreTraffic t;
                    if (parseHeartbeatLine(line, spec.name, &cell)) {
                        inFlight = long(cell);
                        since = Clock::now();
                    } else if (parseStoreSummaryLine(line, spec.name,
                                                     &t)) {
                        // Bookkeeping only, never released: journals
                        // stay byte-comparable with in-process runs.
                        tally.store.hits += t.hits;
                        tally.store.misses += t.misses;
                        tally.store.bytesRead += t.bytesRead;
                        tally.store.bytesWritten += t.bytesWritten;
                    } else if (run.deliver(line)) {
                        inFlight = -1;
                    }
                }
            };

            bool timeoutKilled = false, terminated = false,
                 killed = false;
            Clock::time_point terminatedAt;
            int status = 0;
            for (;;) {
                drain();
                const auto now = Clock::now();
                if (run.stopping() && !terminated) {
                    terminated = true;
                    terminatedAt = now;
                    ::kill(pid, SIGTERM);
                }
                // A worker wedged past the drain grace (in a cell, or
                // a fault-injected hang) is escalated to SIGKILL once.
                if (terminated && !killed && now - terminatedAt > grace) {
                    killed = true;
                    ::kill(pid, SIGKILL);
                }
                if (opts.cellTimeout > 0 && inFlight >= 0 &&
                    !timeoutKilled && now - since > budget) {
                    timeoutKilled = true;
                    ::kill(pid, SIGKILL);
                }
                if (::waitpid(pid, &status, WNOHANG) == pid)
                    break;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            drain();

            std::string errorClass;
            const bool clean =
                describeWaitStatus(status, &errorClass, &why);
            if (timeoutKilled && inFlight >= 0) {
                std::ostringstream msg;
                msg << "cell " << cellLabel(spec.cells[inFlight])
                    << " exceeded its " << opts.cellTimeout
                    << "s wall-clock timeout; " << shard
                    << " worker killed";
                declare(std::size_t(inFlight), "timeout", msg.str());
            } else if (!clean && !terminated && inFlight >= 0) {
                declare(std::size_t(inFlight), errorClass,
                        why + " (" + shard + ", cell " +
                            cellLabel(spec.cells[inFlight]) +
                            " in flight)");
            }
            if (terminated)
                return;
            if (clean) {
                for (std::size_t cell : unsettled())
                    declare(cell, "crash",
                            "worker exited without producing a result "
                            "for this cell (" + shard + ")");
                return;
            }
        }

        const std::vector<std::size_t> left = unsettled();
        if (left.empty())
            return;
        const int respawnsUsed = tally.spawns - 1;
        if (respawnsUsed >= kMaxRespawns) {
            for (std::size_t cell : left)
                declare(cell, "crash",
                        shard + " worker died " +
                            std::to_string(tally.spawns) +
                            " times; giving up on this cell (" + why +
                            ")");
            return;
        }
        tally.respawns++;
        if (!run.sleepFor(respawnBackoffSeconds(
                opts.backoffSeconds, respawnsUsed, slice.index)))
            return;
    }
}

} // namespace

SupervisorOutcome
superviseCampaign(const SupervisorOptions &opts)
{
    CampaignSpec spec;
    if (!campaignByName(opts.campaign, &spec))
        throw ConfigError("unknown campaign '" + opts.campaign +
                          "' (table2..table5, smoke, dramsweep)");
    if (opts.maxInsts)
        spec = spec.withMaxInsts(opts.maxInsts);
    if (opts.sample.enabled())
        spec = spec.withSampling(opts.sample);
    if (opts.workerBinary.empty() ||
        ::access(opts.workerBinary.c_str(), X_OK) != 0)
        throw ConfigError("worker binary '" + opts.workerBinary +
                          "' is not executable");

    // Scratch directory for slice journals, declared failures and
    // worker logs; the run creates it, replays or deletes what a
    // killed run kept there, and removes it once healthy.
    std::string scratch = opts.scratchDir;
    if (scratch.empty() && !opts.masterJournalPath.empty())
        scratch = opts.masterJournalPath + ".shards.d";
    if (scratch.empty()) {
        char tmpl[] = "/tmp/simalpha-shards-XXXXXX";
        if (!::mkdtemp(tmpl))
            throw ConfigError("cannot create scratch directory for "
                              "shard journals");
        scratch = tmpl;
    }
    ShardedOptions so;
    so.journalPath = opts.masterJournalPath;
    so.journalSync = opts.journalSync;
    so.resume = opts.resume;
    so.scratchDir = scratch;
    so.spreadUnsettled = true;
    so.cancel = opts.interrupted;
    so.sink = opts.onLine;
    ShardedRun run(spec, so);

    std::size_t slices = std::size_t(opts.shards);
    if (opts.shards <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        slices = hw ? hw : 1;
    }
    slices = std::min(slices, run.unsettled());
    std::vector<SliceTally> tallies(slices);
    ShardedOutcome done =
        run.run(slices, [&](const Slice &slice, ShardedRun &r,
                            std::string *) {
            runProcessSlice(slice, r, opts, scratch,
                            tallies[slice.index]);
            return true;
        });
    if (!done.failure.empty())
        throw std::runtime_error(done.failure);

    SupervisorOutcome out;
    out.result = std::move(done.result);
    out.interrupted = done.cancelled;
    out.replayedCells = done.replayed;
    out.scratchRetained = done.scratchRetained;
    for (const SliceTally &t : tallies) {
        out.spawns += t.spawns;
        out.respawns += t.respawns;
        out.crashedCells += t.crashed;
        out.timedOutCells += t.timedOut;
        out.shardStore.push_back(t.store);
        out.storeTraffic.hits += t.store.hits;
        out.storeTraffic.misses += t.store.misses;
        out.storeTraffic.bytesRead += t.store.bytesRead;
        out.storeTraffic.bytesWritten += t.store.bytesWritten;
    }

    return out;
}

} // namespace runner
} // namespace simalpha
