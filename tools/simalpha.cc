/**
 * @file
 * simalpha — the command-line driver.
 *
 * Runs any machine configuration against any bundled workload and
 * reports timing, event counters, and (optionally) the full parameter
 * manifest, so one shell command reproduces any cell of the paper's
 * tables:
 *
 *   simalpha --machine sim-alpha --workload C-R
 *   simalpha --machine ds10l --workload art --stats
 *   simalpha --machine sim-alpha-no-luse --workload M-D --manifest
 *   simalpha --list
 *
 * Campaign mode runs a whole table's (machine × workload) grid through
 * the parallel ExperimentRunner and writes a JSON/CSV artifact:
 *
 *   simalpha --campaign table2 --jobs 8 --out table2.json
 *   simalpha --campaign table5 --jobs 4 --max-insts 100000 --out t5.csv
 *
 * Two isolation modes share artifacts and journals byte for byte:
 * the default `--isolate=thread` pool contains any fault that surfaces
 * as a C++ exception, while `--isolate=process` shards the campaign
 * over `simalpha --shard` worker processes so even a SIGSEGV, an OOM
 * kill, or a hung cell is contained to that cell:
 *
 *   simalpha --campaign table4 --isolate=process --shards 8 \
 *            --cell-timeout 120 --out table4.json
 *
 * Campaigns with --out keep an append-only journal (<out>.journal.jsonl)
 * of settled cells in spec order, at any --jobs (cells held back behind
 * a slower one wait in <out>.journal.jsonl.shards.d); a killed or
 * Ctrl-C'd campaign restarted with --resume serves journaled cells and
 * re-executes only the rest, with byte-identical artifacts.
 *
 * This is the only place a simulator error is turned into a process
 * exit: 0 = success, 1 = cell/run failures, 2 = usage/config errors,
 * 3 = interrupted (SIGINT/SIGTERM; the journal is intact, resume).
 */

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "common/error.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "inject/inject.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/perfbench.hh"
#include "runner/runner.hh"
#include "runner/shard.hh"
#include "runner/supervisor.hh"
#include "fleet/dispatcher.hh"
#include "fleet/registry.hh"
#include "serve/client.hh"
#include "serve/proto.hh"
#include "serve/server.hh"
#include "store/store.hh"
#include "validate/machines.hh"
#include "validate/manifest.hh"

using namespace simalpha;
using namespace simalpha::validate;

namespace {

/**
 * Ctrl-C / SIGTERM: the handler only sets a flag; campaign loops and
 * the supervisor poll it between cells, flush what is settled into the
 * journal, reap any workers, and exit 3 — so --resume always picks up
 * where the interrupt landed. A lock-free atomic store is
 * async-signal-safe, and threads read the flag without a race.
 */
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free);

extern "C" void
onInterrupt(int)
{
    g_interrupted = true;
}

void
installInterruptHandlers()
{
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
}

/** Absolute path of this binary, for exec'ing shard workers. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "simalpha";
}

std::vector<std::string>
machineNames()
{
    std::vector<std::string> names{"ds10l", "sim-alpha", "sim-initial",
                                   "sim-stripped", "sim-outorder"};
    for (const std::string &f : featureNames())
        names.push_back("sim-alpha-no-" + f);
    return names;
}

/** Everything campaign mode parsed off the command line. */
struct CampaignCli
{
    std::string campaign;
    std::string isolate = "thread";     ///< "thread" or "process"
    int jobs = 0;
    int shards = 0;
    double cellTimeout = 0.0;
    bool noCache = false;
    std::string storePath;
    std::uint64_t maxInsts = 0;
    checkpoint::SampleSpec sample;
    std::string outPath;
    int retries = 0;
    bool resume = false;
    bool noJournal = false;
    bool journalSync = false;
    std::vector<runner::FaultInjection> faults;
    std::string workerBinary;           ///< for --isolate=process
};

/** The flags campaigns and `simalpha serve` share. */
flags::Group
isolationFlags(std::string *mode, int *shards)
{
    return {"process isolation",
            {{"--isolate", "<mode>",
              "thread (default): in-process pool, C++ exceptions contained "
              "per cell; process: shard over worker processes, so signal "
              "deaths, OOM kills and hangs are also contained per cell",
              [mode](const std::string &v) {
                  if (v != "thread" && v != "process")
                      fatal("unknown isolation mode '%s' (thread, process)",
                            v.c_str());
                  *mode = v;
              }},
             flags::number("--shards", "<n>", shards,
                           "worker processes of --isolate process (0 = all "
                           "cores)")}};
}

/** The flags `simalpha --campaign` and `simalpha vuln` share, with
 *  isolationFlags. */
flags::Group
campaignFlags(CampaignCli &cli)
{
    return {"campaign options",
            {flags::number("--jobs", "<n>", &cli.jobs,
                           "worker threads (0 = all cores; default 0)"),
             flags::text("--out", "<file>", &cli.outPath,
                         "write the artifact (.csv = CSV, else JSON; '-' = "
                         "JSON to stdout)"),
             flags::toggle("--no-cache", &cli.noCache,
                           "disable the (manifest, workload) result cache"),
             flags::text("--store", "<dir>", &cli.storePath,
                         "persistent result store: cells whose identity is "
                         "already stored are served from disk, new results are "
                         "published; shared across runs, shards and isolation "
                         "modes"),
             flags::number("--retries", "<n>", &cli.retries,
                           "re-run cells failing with a retryable (transient) "
                           "class up to n times"),
             flags::toggle("--resume", &cli.resume,
                           "skip cells already in <out>.journal.jsonl (from an "
                           "interrupted run of the same campaign)"),
             flags::toggle("--no-journal", &cli.noJournal,
                           "do not keep a journal next to --out"),
             flags::toggle("--journal-sync", &cli.journalSync,
                           "fsync the journal after every line, so even a "
                           "machine crash loses no settled cell"),
             flags::number("--cell-timeout", "<s>", &cli.cellTimeout,
                           "under --isolate process, kill a cell exceeding s "
                           "seconds of wall-clock (0 = no timeout)")}};
}

/** The flags `simalpha serve` and `simalpha fleet` share. */
flags::Group
daemonFlags(serve::ServeOptions &sopts)
{
    return {"daemon options",
            {flags::text("--store", "<dir>", &sopts.storePath,
                         "the daemon's store: results and job journals"),
             flags::text("--listen", "<addr>", &sopts.listen,
                         "socket path, or tcp:PORT for 127.0.0.1 TCP (default "
                         "<store>/serve.sock)"),
             flags::number("--max-pending", "<n>", &sopts.maxPending,
                           "queued jobs before a `busy` reply (default 4)"),
             flags::number("--max-clients", "<n>", &sopts.maxClients,
                           "open connections (default 32)"),
             flags::number("--max-cells", "<n>", &sopts.maxCellsPerCampaign,
                           "cells one campaign may have (0 = unlimited, the "
                           "default)"),
             flags::number("--max-client-cells", "<n>", &sopts.maxClientCells,
                           "cells one connection may submit in its lifetime (0 "
                           "= unlimited, the default)"),
             flags::number("--drain-timeout", "<s>", &sopts.drainTimeoutSeconds,
                           "seconds a drain (SIGTERM, shutdown) waits for the "
                           "running job before cancelling it (default 10)"),
             flags::toggle("--journal-sync", &sopts.journalSync,
                           "fsync job journals after every line")}};
}

void
printCampaignSummary(const runner::CampaignResult &result)
{
    for (const runner::CellResult &r : result.cells)
        if (!r.ok)
            std::printf("  FAILED [%s] %s/%s: %s\n",
                        r.errorClass.empty() ? "unknown"
                                             : r.errorClass.c_str(),
                        r.cell.machine.c_str(),
                        r.cell.workload.c_str(), r.error.c_str());

    std::printf("\n%-24s %6s %6s %12s %8s\n", "machine", "ok", "fail",
                "cycles", "hm-IPC");
    for (const runner::MachineAggregate &agg :
         runner::aggregateByMachine(result))
        std::printf("%-24s %6zu %6zu %12llu %8.3f\n",
                    agg.machine.c_str(), agg.cellsOk, agg.cellsFailed,
                    (unsigned long long)agg.totalCycles, agg.hmeanIpc);
}

/** Sidecar run-summary artifacts (<out>.summary.{json,csv}) — skipped
 *  for stdout artifacts, best-effort otherwise (the cell results are
 *  the deliverable; traffic counters are observability). */
void
writeRunSummary(const runner::RunSummary &summary,
                const std::string &out_path)
{
    if (out_path.empty() || out_path == "-")
        return;
    std::string error;
    if (!runner::writeSummaryArtifacts(summary, out_path, &error))
        warn("%s (run summary not written)", error.c_str());
}

void
printStoreTraffic(const runner::StoreTraffic &t,
                  const std::string &path)
{
    std::printf("store       %llu hits, %llu misses (%llu B read, "
                "%llu B written) at %s\n",
                (unsigned long long)t.hits,
                (unsigned long long)t.misses,
                (unsigned long long)t.bytesRead,
                (unsigned long long)t.bytesWritten, path.c_str());
}

int
writeCampaignArtifact(const runner::CampaignResult &result,
                      const std::string &out_path)
{
    if (out_path == "-") {
        std::fputs(runner::toJson(result).c_str(), stdout);
    } else if (!out_path.empty()) {
        std::string error;
        if (!runner::writeArtifact(result, out_path, &error))
            fatal("%s", error.c_str());
        std::printf("\nwrote %s\n", out_path.c_str());
    }
    return result.errorCount() ? 1 : 0;
}

/**
 * The per-structure vulnerability table of a "vuln:" campaign: printed
 * after the campaign summary and written as <out>.vuln.{json,csv}
 * sidecars. Cells that failed before classification (ok=false) are
 * excluded — their errors are already reported as cell failures.
 */
void
emitVulnTable(const runner::CampaignResult &result,
              const std::string &out_path)
{
    if (result.campaign.rfind("vuln:", 0) != 0)
        return;
    std::vector<inject::OutcomeSample> samples;
    for (const runner::CellResult &r : result.cells) {
        if (!r.ok || !r.cell.inject.enabled())
            continue;
        samples.push_back(
            {inject::targetName(r.cell.inject.target),
             r.injectOutcome});
    }
    std::vector<inject::VulnRow> rows =
        inject::buildVulnTable(samples);
    std::printf("\n%s", inject::vulnTableText(rows).c_str());
    if (out_path.empty() || out_path == "-")
        return;
    std::string error;
    if (!runner::writeFileAtomic(out_path + ".vuln.json",
                                 inject::vulnTableJson(rows),
                                 &error) ||
        !runner::writeFileAtomic(out_path + ".vuln.csv",
                                 inject::vulnTableCsv(rows), &error))
        warn("%s (vulnerability table not written)", error.c_str());
    else
        std::printf("wrote %s.vuln.json and %s.vuln.csv\n",
                    out_path.c_str(), out_path.c_str());
}

/**
 * Campaign mode under either isolation: the in-process runner or the
 * process supervisor produces the result, and one report, run summary
 * and artifact follow from it.
 */
int
runCampaign(const CampaignCli &cli)
{
    std::string journal_path;
    if (!cli.noJournal && !cli.outPath.empty() && cli.outPath != "-")
        journal_path = cli.outPath + ".journal.jsonl";
    else if (cli.resume)
        fatal("--resume needs --out <file> (the journal lives next to "
              "the artifact)");

    runner::CampaignResult result;
    runner::RunSummary summary;
    std::string modeLine, postMortem;
    std::size_t resumed = 0;
    bool interrupted = false;
    if (cli.isolate == "process") {
        runner::SupervisorOptions opts;
        opts.campaign = cli.campaign;
        opts.maxInsts = cli.maxInsts;
        opts.sample = cli.sample;
        opts.shards = cli.shards;
        opts.workerBinary = cli.workerBinary;
        opts.cellTimeout = cli.cellTimeout;
        opts.storePath = cli.storePath;
        opts.maxRetries = cli.retries;
        opts.faults = cli.faults;
        opts.masterJournalPath = journal_path;
        opts.resume = cli.resume;
        opts.journalSync = cli.journalSync;
        opts.interrupted = &g_interrupted;
        runner::SupervisorOutcome o = runner::superviseCampaign(opts);
        interrupted = o.interrupted;
        result = std::move(o.result);
        summary.storeEnabled = !cli.storePath.empty();
        summary.store = o.storeTraffic;
        summary.shardStore = o.shardStore;
        resumed = o.replayedCells;
        postMortem = o.scratchRetained;
        modeLine = "isolation   process (" + std::to_string(o.spawns) +
                   " spawns, " + std::to_string(o.respawns) +
                   " respawns, " + std::to_string(o.crashedCells) +
                   " crashed, " + std::to_string(o.timedOutCells) +
                   " timed out)";
    } else {
        runner::CampaignSpec spec;
        if (!runner::campaignByName(cli.campaign, &spec))
            fatal("unknown campaign '%s' (table2..table5, smoke, "
                  "dramsweep, or a vuln:... spec)",
                  cli.campaign.c_str());
        if (cli.maxInsts)
            spec = spec.withMaxInsts(cli.maxInsts);
        if (cli.sample.enabled())
            spec = spec.withSampling(cli.sample);

        runner::RunnerOptions opts;
        opts.jobs = cli.jobs;
        opts.cache = !cli.noCache;
        opts.storePath = cli.storePath;
        opts.maxRetries = cli.retries;
        opts.faults = cli.faults;
        opts.journalPath = journal_path;
        opts.resume = cli.resume && !journal_path.empty();
        opts.journalSync = cli.journalSync;
        opts.cancel = &g_interrupted;
        runner::ExperimentRunner rnr(opts);
        result = rnr.run(spec);
        interrupted = g_interrupted.load();
        summary.cacheHits = rnr.cacheHits();
        summary.storeEnabled = rnr.storeOpen();
        if (rnr.storeOpen()) {
            store::StoreCounters c = rnr.storeCounters();
            summary.store = {c.hits, c.misses, c.bytesRead,
                             c.bytesWritten};
        }
        for (const runner::CellResult &r : result.cells)
            resumed += r.fromJournal;
        modeLine = "cache hits  " + std::to_string(rnr.cacheHits());
    }

    if (interrupted) {
        std::fprintf(stderr,
                     "simalpha: interrupted; %s; restart with "
                     "--resume to continue\n",
                     journal_path.empty()
                         ? "no journal was kept (use --out)"
                         : ("journal flushed to " + journal_path)
                               .c_str());
        return 3;
    }

    std::printf("campaign    %s\n", result.campaign.c_str());
    std::printf("cells       %zu (%zu ok, %zu failed)\n",
                result.cells.size(), result.okCount(),
                result.errorCount());
    std::printf("%s\n", modeLine.c_str());
    if (summary.storeEnabled) {
        printStoreTraffic(summary.store, cli.storePath);
        for (std::size_t s = 0; s < summary.shardStore.size(); s++)
            std::printf("  shard %-3zu %llu hits, %llu misses\n", s,
                        (unsigned long long)summary.shardStore[s].hits,
                        (unsigned long long)
                            summary.shardStore[s].misses);
    }
    if (cli.resume)
        std::printf("resumed     %zu cells from %s\n", resumed,
                    journal_path.c_str());
    if (!postMortem.empty())
        std::printf("post-mortem %s (worker logs and shard "
                    "journals)\n",
                    postMortem.c_str());
    printCampaignSummary(result);
    emitVulnTable(result, cli.outPath);

    summary.campaign = result.campaign;
    summary.cells = result.cells.size();
    summary.cellsOk = result.okCount();
    summary.cellsFailed = result.errorCount();
    summary.storePath = cli.storePath;
    writeRunSummary(summary, cli.outPath);
    return writeCampaignArtifact(result, cli.outPath);
}

/**
 * `simalpha vuln` — build a vulnerability campaign name from its
 * parameters and run it through the ordinary campaign machinery. The
 * name encodes the whole plan, so process shards (which receive only
 * the name) re-derive identical injections.
 */
int
runVulnCommand(int argc, char **argv, const char *argv0)
{
    runner::VulnSpec spec;
    spec.cells = 1000;
    CampaignCli cli;
    const flags::Command command{
        "vuln",
        "usage: simalpha vuln --workload <name> --max-insts <cap> "
        "[options]\n"
        "\n"
        "Fans single-bit soft-error injections over the machine's state,\n"
        "classifies each against the uninjected golden run (masked, sdc,\n"
        "crash, deadlock, timeout) and prints a per-structure vulnerability\n"
        "table; --out also writes <out>.vuln.{json,csv}.\n",
        {{"vulnerability campaign",
          {flags::text("--workload", "<name>", &spec.workload,
                       "bundled workload; it must finish under --max-insts"),
           flags::number("--max-insts", "<cap>", &spec.maxInsts,
                         "committed-instruction cap of the golden run"),
           flags::number("--cells", "<n>", &spec.cells,
                         "injections (default 1000)"),
           flags::text("--machine", "<name>", &spec.machine,
                       "machine to strike (default " + spec.machine + ")"),
           flags::number("--seed", "<s>", &spec.seed,
                         "injection-plan seed (default 0)"),
           {"--targets", "<t1+t2+...>",
            "structures to strike, round-robin (default all: " +
                inject::targetNameList() + ")",
            [&spec](const std::string &v) {
                std::string error;
                if (!inject::parseTargetList(v, &spec.targets, &error))
                    fatal("--targets: %s", error.c_str());
            }}}},
         campaignFlags(cli),
         isolationFlags(&cli.isolate, &cli.shards)}};
    if (!flags::parse(command, argc, argv))
        return 0;

    if (spec.workload.empty())
        fatal("vuln needs --workload <name>");
    if (!spec.maxInsts)
        fatal("vuln needs --max-insts <cap>: the cap bounds the "
              "golden run, which must finish under it");
    if (!spec.cells)
        fatal("vuln needs --cells > 0");

    // The cap lives inside the campaign name; cli.maxInsts stays 0 so
    // no layer re-applies it on top.
    cli.campaign = runner::vulnCampaignName(spec);
    cli.workerBinary = selfExePath(argv0);
    installInterruptHandlers();
    return runCampaign(cli);
}

/**
 * `simalpha store <verb>` — maintenance of a persistent result store.
 * Exit codes follow the driver convention: 0 clean, 1 when verify
 * finds corruption, 2 for usage/config errors (via fatal()).
 */
int
runStoreCommand(int argc, char **argv, const char *)
{
    // `store --help` has no verb; `store <verb> --help` has one.
    const bool hasVerb = argc >= 2 && argv[1][0] != '-';
    const std::string verb = hasVerb ? argv[1] : "";
    std::string root, to_path, from_path;
    std::uint64_t max_bytes = 0;
    double max_age = 0.0;
    bool rebuild_index = false;
    const flags::Command command{
        "store",
        "usage: simalpha store <verb> --store <dir> [options]\n"
        "\n"
        "verbs:\n"
        "  stats               entry count, bytes, quarantined blobs\n"
        "  verify              integrity-check every entry; corrupt ones are\n"
        "                      quarantined (exit 1 if any)\n"
        "  gc                  evict least-recently-used entries\n"
        "  export              dump every entry as JSONL\n"
        "  import              publish a dump into this store\n",
        {{"store options",
          {flags::text("--store", "<dir>", &root, "the store's root"),
           flags::number("--max-bytes", "<n>", &max_bytes,
                         "gc: evict down to n bytes"),
           flags::number("--max-age", "<s>", &max_age,
                         "gc: evict entries unused for s seconds"),
           flags::text("--to", "<file>", &to_path, "export: the dump to write"),
           flags::text("--from", "<file>", &from_path,
                       "import: the dump to publish"),
           flags::toggle("--rebuild-index", &rebuild_index,
                         "verify: also rebuild every shard's binary index.bin "
                         "and report index-vs-scan agreement")}}}};
    if (!flags::parse(command, argc, argv, hasVerb ? 2 : 1))
        return 0;
    if (verb.empty())
        fatal("store needs a verb: stats, verify, gc, export, "
              "import");
    if (root.empty())
        fatal("store %s needs --store <dir>", verb.c_str());

    store::ResultStore s;
    std::string error;
    if (!s.open(root, &error))
        fatal("%s", error.c_str());

    if (verb == "stats") {
        store::StoreUsage u = s.usage(&error);
        if (!error.empty())
            fatal("%s", error.c_str());
        std::printf("store       %s\n", s.root().c_str());
        std::printf("entries     %llu\n",
                    (unsigned long long)u.entries);
        std::printf("bytes       %llu\n", (unsigned long long)u.bytes);
        std::printf("quarantined %llu\n",
                    (unsigned long long)u.corrupt);
        return 0;
    }
    if (verb == "verify") {
        std::vector<std::string> corrupt;
        store::StoreUsage u = s.verifyAll(&corrupt, &error);
        if (!error.empty())
            fatal("%s", error.c_str());
        std::printf("verified    %llu entries intact\n",
                    (unsigned long long)u.entries);
        for (const std::string &path : corrupt)
            std::printf("quarantined %s.corrupt\n", path.c_str());
        if (u.corrupt)
            std::printf("quarantine  %llu blob(s) on disk\n",
                        (unsigned long long)u.corrupt);
        if (rebuild_index) {
            store::IndexOutcome o;
            if (!s.buildIndexes(&o, &error))
                fatal("%s", error.c_str());
            std::printf("indexed     %llu entries across %llu "
                        "shard index(es)\n",
                        (unsigned long long)o.entries,
                        (unsigned long long)o.shards);
            std::printf("agreement   %llu record(s) confirmed, "
                        "%llu stale dropped, %llu corrupt "
                        "index(es) quarantined\n",
                        (unsigned long long)o.agreed,
                        (unsigned long long)o.staleDropped,
                        (unsigned long long)o.corruptIndexes);
        }
        return corrupt.empty() ? 0 : 1;
    }
    if (verb == "gc") {
        if (!max_bytes && max_age <= 0.0)
            fatal("store gc needs --max-bytes <n> and/or "
                  "--max-age <seconds>");
        store::GcOptions g;
        g.maxBytes = max_bytes;
        g.maxAgeSeconds = max_age;
        store::GcOutcome o = s.gc(g, &error);
        if (!error.empty())
            fatal("%s", error.c_str());
        std::printf("scanned     %llu entries\n",
                    (unsigned long long)o.scanned);
        std::printf("evicted     %llu entries (%llu bytes)\n",
                    (unsigned long long)o.removed,
                    (unsigned long long)o.bytesRemoved);
        std::printf("kept        %llu entries (%llu bytes)\n",
                    (unsigned long long)o.entriesKept,
                    (unsigned long long)o.bytesKept);
        return 0;
    }
    if (verb == "export") {
        if (to_path.empty())
            fatal("store export needs --to <file>");
        std::uint64_t n = 0;
        if (!s.exportTo(to_path, &n, &error))
            fatal("%s", error.c_str());
        std::printf("exported    %llu entries to %s\n",
                    (unsigned long long)n, to_path.c_str());
        return 0;
    }
    if (verb == "import") {
        if (from_path.empty())
            fatal("store import needs --from <file>");
        std::uint64_t n = 0;
        if (!s.importFrom(from_path, &n, &error))
            fatal("%s", error.c_str());
        std::printf("imported    %llu entries from %s\n",
                    (unsigned long long)n, from_path.c_str());
        return 0;
    }
    fatal("unknown store verb '%s' (stats, verify, gc, export, "
          "import)",
          verb.c_str());
}

/**
 * `simalpha serve` — run the campaign service in the foreground until
 * SIGTERM/SIGINT (drain-then-exit) or a client's shutdown request.
 * Exit 0 on a clean drain, 1 if the I/O loop failed, 2 for usage
 * errors.
 */
int
runServeCommand(int argc, char **argv, const char *argv0)
{
    serve::ServeOptions sopts;
    const flags::Command command{
        "serve",
        "usage: simalpha serve --store <dir> [options]\n"
        "\n"
        "Long-running campaign daemon: streams result lines as cells settle,\n"
        "serves warm cells from the store and journals every job under\n"
        "<store>/serve.d/, so a killed daemon resumes on restart. Full queues\n"
        "reply `busy`; SIGTERM drains, then exits.\n",
        {{"serve options",
          {flags::number("--jobs", "<n>", &sopts.jobs,
                         "runner threads per job (0 = all cores)")}},
         isolationFlags(&sopts.isolate, &sopts.shards),
         daemonFlags(sopts)}};
    if (!flags::parse(command, argc, argv))
        return 0;
    if (sopts.storePath.empty())
        fatal("serve needs --store <dir> (results, golden references, "
              "and job journals live there)");

    sopts.workerBinary = selfExePath(argv0);
    sopts.interrupted = &g_interrupted;
    installInterruptHandlers();

    serve::Server server(sopts);
    std::string error;
    if (!server.start(&error))
        fatal("%s", error.c_str());
    std::printf("serving     %s\n", server.boundAddress().c_str());
    std::printf("store       %s\n", sopts.storePath.c_str());
    std::printf("isolation   %s%s\n", sopts.isolate.c_str(),
                sopts.journalSync ? ", fsync per journal line" : "");
    std::fflush(stdout);

    int code = server.run();
    serve::ServeStats st = server.stats();
    std::printf("drained     %llu job(s) done, %llu cell(s) computed, "
                "%llu served, %llu busy rejection(s)\n",
                (unsigned long long)st.jobsDone,
                (unsigned long long)st.cellsComputed,
                (unsigned long long)st.cellsServed,
                (unsigned long long)st.busyRejections);
    return code;
}

/**
 * `simalpha fleet` — the multi-host front-end: a campaign-service
 * daemon whose accepted jobs fan out across worker `simalpha serve`
 * daemons (partitioned into deterministic shard sub-campaigns, merged
 * back in spec order, so clients see bytes identical to a single-host
 * run). Exit codes as `simalpha serve`.
 */
int
runFleetCommand(int argc, char **argv, const char *)
{
    serve::ServeOptions sopts;
    fleet::FleetOptions fopts;
    fopts.seed = std::uint64_t(::getpid());
    std::string workersText;
    const flags::Command command{
        "fleet",
        "usage: simalpha fleet --store <dir> --workers <addr>[,...] "
        "[options]\n"
        "\n"
        "Multi-host front end: speaks serve's protocol, but fans each job out\n"
        "across the worker daemons as deterministic shard sub-campaigns and\n"
        "merges the streams back in spec order, so clients get the bytes of a\n"
        "single-host run. A dead worker's shard is re-dispatched (workers\n"
        "resume, never recompute).\n",
        {{"fleet options",
          {flags::text("--workers", "<addr>[,...]", &workersText,
                       "worker daemon addresses: socket paths or "
                       "tcp:[HOST:]PORT"),
           flags::toggle("--sync", &fopts.syncStores,
                         "pre-seed worker stores and harvest new results back"),
           flags::number("--worker-timeout", "<s>", &fopts.workerTimeoutSeconds,
                         "budget of one shard submission attempt (0 = "
                         "unbounded, the default)"),
           flags::number("--connect-timeout", "<s>",
                         &fopts.connectTimeoutSeconds,
                         "budget of one connect (default 10)"),
           flags::number("--retries", "<n>", &fopts.maxRetries,
                         "attempts per shard on one worker after the first "
                         "(default 3)"),
           flags::number("--redispatch", "<n>", &fopts.maxRedispatch,
                         "moves of a shard to another worker (default 2)"),
           flags::number("--backoff", "<s>", &fopts.backoffSeconds,
                         "first retry delay, doubling with jitter "
                         "(default 0.2)"),
           flags::number("--seed", "<n>", &fopts.seed,
                         "jitter seed (default: the process id)")}},
         daemonFlags(sopts)}};
    if (!flags::parse(command, argc, argv))
        return 0;
    if (sopts.storePath.empty())
        fatal("fleet needs --store <dir> (the master journals and "
              "synced results live there)");
    if (workersText.empty())
        fatal("fleet needs --workers <addr>[,<addr>...] (worker "
              "daemon addresses: socket paths or tcp:[HOST:]PORT)");
    std::string error;
    if (!fleet::parseWorkerList(workersText, &fopts.workers, &error))
        fatal("--workers: %s", error.c_str());
    fopts.journalSync = sopts.journalSync;

    fleet::Dispatcher dispatcher(fopts);
    if (!dispatcher.start(&error))
        fatal("%s", error.c_str());

    sopts.executor = dispatcher.executor();
    sopts.interrupted = &g_interrupted;
    installInterruptHandlers();

    serve::Server server(sopts);
    if (!server.start(&error))
        fatal("%s", error.c_str());
    std::printf("fleet       %s\n", server.boundAddress().c_str());
    std::printf("store       %s%s\n", sopts.storePath.c_str(),
                fopts.syncStores ? ", store sync on" : "");
    for (const fleet::WorkerStatus &w : dispatcher.workers())
        std::printf("worker      %s (%s%s)\n", w.address.c_str(),
                    w.alive ? "live" : "dead",
                    w.alive ? (", pid " + std::to_string(w.pid))
                                  .c_str()
                            : "");
    std::fflush(stdout);

    int code = server.run();
    serve::ServeStats st = server.stats();
    fleet::FleetStats fst = dispatcher.stats();
    std::printf("drained     %llu job(s) done, %llu shard(s) "
                "dispatched, %llu redispatch(es)\n",
                (unsigned long long)st.jobsDone,
                (unsigned long long)fst.shardsDispatched,
                (unsigned long long)fst.redispatches);
    std::printf("merged      %llu cell(s) from workers, %llu "
                "replayed from master journals\n",
                (unsigned long long)fst.cellsMerged,
                (unsigned long long)fst.cellsReplayed);
    if (fopts.syncStores)
        std::printf("synced      %llu entr(ies) pushed, %llu "
                    "pulled%s%s\n",
                    (unsigned long long)fst.syncPushedEntries,
                    (unsigned long long)fst.syncPulledEntries,
                    fst.lastSyncError.empty() ? "" : "; last error: ",
                    fst.lastSyncError.c_str());
    return code;
}

/**
 * `simalpha submit` — the service client. `--op submit` (default)
 * streams result lines to stdout as cells settle and exits with the
 * campaign's code (0 ok, 1 failed cells, 3 cancelled); the other ops
 * print the daemon's one reply line. Exit 1 when the daemon rejects
 * or cannot be reached after the retry budget.
 */
int
runSubmitCommand(int argc, char **argv, const char *)
{
    serve::ClientOptions copts;
    copts.seed = std::uint64_t(::getpid());
    std::string storePath, campaign, op = "submit", outPath,
        sampleStr, clientName;
    std::uint64_t maxInsts = 0;
    bool quiet = false;
    const flags::Command command{
        "submit",
        "usage: simalpha submit --connect <addr> | --store <dir>\n"
        "                       --campaign <name> [options]\n"
        "\n"
        "Submits a campaign and streams its result lines to stdout; retries\n"
        "connect failures, busy rejections and torn streams with jittered\n"
        "exponential backoff. Resubmitting an identity attaches to the job in\n"
        "flight or replays its journal byte-identically.\n",
        {{"submit options",
          {flags::text("--connect", "<addr>", &copts.connect,
                       "daemon address: socket path or tcp:[HOST:]PORT"),
           flags::text("--store", "<dir>", &storePath,
                       "connect to the daemon's default socket, "
                       "<dir>/serve.sock"),
           flags::text("--campaign", "<name>", &campaign,
                       "the campaign to run"),
           flags::number("--max-insts", "<n>", &maxInsts, "cap every cell"),
           flags::text("--sample", "<spec>", &sampleStr,
                       "sampled execution (as simalpha --sample)"),
           flags::text("--op", "<op>", &op,
                       "submit (default), results, status, cancel, health, "
                       "shutdown or hello"),
           flags::text("--client", "<name>", &clientName,
                       "client name the one-line ops send"),
           flags::number("--timeout", "<s>", &copts.timeoutSeconds,
                         "budget of one attempt: connect, request and "
                         "stream (0 = none, the default)"),
           flags::number("--retries", "<n>", &copts.maxRetries,
                         "attempts after the first (default 3)"),
           flags::number("--backoff", "<s>", &copts.backoffSeconds,
                         "first retry delay, doubling with jitter "
                         "(default 0.2)"),
           flags::number("--seed", "<n>", &copts.seed,
                         "jitter seed (default: the process id)"),
           flags::text("--out", "<file>", &outPath,
                       "also write the campaign's artifact"),
           flags::toggle("--quiet", &quiet, "do not print result lines")}}}};
    if (!flags::parse(command, argc, argv))
        return 0;
    if (copts.connect.empty()) {
        if (storePath.empty())
            fatal("submit needs --connect <addr> or --store <dir> "
                  "(the daemon's default socket lives at "
                  "<store>/serve.sock)");
        copts.connect = storePath + "/serve.sock";
    }
    if (!sampleStr.empty()) {
        // Validate client-side so a typo is exit 2 here, not a
        // round-trip to the daemon.
        checkpoint::SampleSpec s;
        std::string serror;
        if (!checkpoint::parseSampleSpec(sampleStr, &s, &serror))
            fatal("--sample: %s", serror.c_str());
    }

    if (op == "submit" || op == "results") {
        if (campaign.empty())
            fatal("submit needs --campaign <name>");
        serve::SubmitOutcome o = serve::submitCampaign(
            copts, campaign, maxInsts, sampleStr, op == "results",
            [&](const std::string &line) {
                if (!quiet) {
                    std::fputs(line.c_str(), stdout);
                    std::fputc('\n', stdout);
                    std::fflush(stdout);
                }
            });
        if (!o.ok) {
            std::string code_tag =
                o.errorCode.empty() ? "" : " [" + o.errorCode + "]";
            std::fprintf(stderr,
                         "simalpha: submit failed after %d "
                         "attempt(s)%s: %s\n",
                         o.attempts, code_tag.c_str(),
                         o.error.c_str());
            return 1;
        }
        auto num = [&](const char *key) -> unsigned long long {
            auto it = o.doneNumbers.find(key);
            return it == o.doneNumbers.end() ? 0 : it->second;
        };
        std::string outcome;
        {
            auto it = o.doneStrings.find("outcome");
            if (it != o.doneStrings.end())
                outcome = it->second;
        }
        std::fprintf(stderr,
                     "submit      %s: %llu cell(s), %llu ok, %llu "
                     "failed (%s, %d attempt(s))\n",
                     campaign.c_str(), num("cells"), num("ok"),
                     num("failed"),
                     outcome.empty() ? "?" : outcome.c_str(),
                     o.attempts);
        if (!outPath.empty()) {
            runner::CampaignResult result;
            std::string error;
            if (!serve::linesToResult(campaign, maxInsts, sampleStr,
                                      o.lines, &result, &error))
                fatal("%s", error.c_str());
            int code = writeCampaignArtifact(result, outPath);
            if (outcome == "cancelled")
                return 3;
            return code;
        }
        if (outcome == "cancelled")
            return 3;
        return (outcome == "complete" && num("failed") == 0) ? 0 : 1;
    }

    // One-line ops: hello, status, cancel, health, shutdown.
    serve::Request req;
    req.op = op;
    req.campaign = campaign;
    req.maxInsts = maxInsts;
    req.sample = sampleStr;
    req.client = clientName;

    std::string reply, error;
    if (!serve::requestOnce(copts, serve::requestLine(req), &reply,
                            &error))
        fatal("%s", error.c_str());
    std::printf("%s\n", reply.c_str());
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    if (serve::parseServeLine(reply, &strings, &numbers) &&
        strings["event"] == "error")
        return 1;
    return 0;
}

/** A `simalpha <name> ...` command: its entry point and help line. */
struct Subcommand
{
    const char *name;
    const char *about;
    int (*run)(int argc, char **argv, const char *argv0);
};

const Subcommand kSubcommands[] = {
    {"vuln", "soft-error injection campaign and its vulnerability table",
     runVulnCommand},
    {"serve", "campaign daemon: journaled jobs over a socket",
     runServeCommand},
    {"fleet", "front end fanning jobs out to serve daemons",
     runFleetCommand},
    {"submit", "client of serve and fleet", runSubmitCommand},
    {"store", "result-store stats, verify, gc, export and import",
     runStoreCommand},
    {"bench", "perf trajectory: time the capped Table 3 rows",
     [](int argc, char **argv, const char *) {
         return runner::runBenchCommand(argc, argv);
     }},
};

int
realMain(int argc, char **argv)
{
    setQuiet(true);
    for (const Subcommand &c : kSubcommands)
        if (argc >= 2 && std::strcmp(argv[1], c.name) == 0)
            return c.run(argc - 1, argv + 1, argv[0]);

    std::string machine_name = "sim-alpha";
    std::optional<std::string> workload_name;
    std::optional<std::string> campaign_name;
    CampaignCli cli;
    bool shard_mode = false;
    std::string shard_cells;
    std::string shard_journal;
    bool want_stats = false;
    bool want_manifest = false;
    bool want_list = false;

    std::string commands =
        "\ncommands (simalpha <command> --help lists its flags):\n";
    for (const Subcommand &c : kSubcommands)
        commands += flags::row(std::string("  ") + c.name, c.about);
    const flags::Command command{
        "",
        "usage: simalpha --machine <name> --workload <name> [options]\n"
        "       simalpha --campaign <name> [options]\n"
        "       simalpha <command> [options]\n",
        {{"options",
          {flags::text("--machine", "<name>", &machine_name,
                       "machine configuration (see --list; default sim-alpha)"),
           {"--workload", "<name>", "bundled workload (see --list)",
            [&](const std::string &v) { workload_name = v; }},
           flags::number("--max-insts", "<n>", &cli.maxInsts,
                         "stop after n committed instructions; also caps every "
                         "campaign cell"),
           flags::toggle("--stats", &want_stats,
                         "dump all event counters after the run"),
           flags::toggle("--manifest", &want_manifest,
                         "print the full parameter manifest"),
           flags::toggle("--list", &want_list, "list machines and workloads"),
           // Hidden: the worker half of --isolate process, as the
           // supervisor spawns it.
           flags::toggle("--shard", &shard_mode, ""),
           flags::text("--cells", "<list>", &shard_cells, ""),
           flags::text("--journal", "<path>", &shard_journal, "")}},
         {"campaign mode",
          {{"--campaign", "<name>",
            "run a whole table grid: table2, table3, table4, table5, "
            "dramsweep (the macro profiles on every DRAM backend), or smoke "
            "(a 12-cell capped self-test grid)",
            [&](const std::string &v) { campaign_name = v; }},
           {"--sample", "<spec>",
            "sampled execution: windows=N,len=K[,warmup=W]. Each cell "
            "fast-forwards functionally, restores N checkpoints, and "
            "measures K detailed insts per window (after W warm-up "
            "insts); results carry mean IPC +/- a 95% sampling-error "
            "bar. Checkpoints stay in memory, never in --store",
            [&](const std::string &v) {
                std::string error;
                if (!checkpoint::parseSampleSpec(v, &cli.sample, &error))
                    fatal("--sample: %s", error.c_str());
            }},
           {"--inject", "<c:k[:t]>",
            "fault drill: make cell c fail with kind k (panic, stall, "
            "throw, abort, segfault, hang) on its first t executions",
            [&](const std::string &v) {
                runner::FaultInjection fault;
                std::string error;
                if (!runner::parseFaultSpec(v, &fault, &error))
                    fatal("%s", error.c_str());
                cli.faults.push_back(fault);
            }}}},
         campaignFlags(cli),
         isolationFlags(&cli.isolate, &cli.shards)},
        commands +
            "\nexit codes: 0 success, 1 failed cells or a failed run,\n"
            "            2 usage or configuration errors, 3 interrupted\n"
            "            (journal intact; restart with --resume)\n"};
    if (!flags::parse(command, argc, argv))
        return 0;

    if (shard_mode) {
        // The hidden worker half of --isolate=process: execute a slice
        // of a named campaign, heartbeat + journal every cell. No
        // artifact, no summary — the supervisor owns those.
        if (!campaign_name)
            fatal("--shard needs --campaign <name>");
        runner::ShardWorkerOptions wopts;
        wopts.campaign = *campaign_name;
        std::string error;
        if (!runner::parseCellList(shard_cells, &wopts.cells, &error))
            fatal("--shard: %s", error.c_str());
        if (shard_journal.empty())
            fatal("--shard needs --journal <path>");
        wopts.journalPath = shard_journal;
        wopts.maxInsts = cli.maxInsts;
        wopts.sample = cli.sample;
        wopts.storePath = cli.storePath;
        wopts.maxRetries = cli.retries;
        wopts.faults = cli.faults;
        wopts.journalSync = cli.journalSync;
        wopts.interrupted = &g_interrupted;
        installInterruptHandlers();
        int code = runShardWorker(wopts);
        if (code == 2)
            fatal("--shard: bad campaign, cell list, or journal");
        return code;
    }

    if (campaign_name) {
        cli.campaign = *campaign_name;
        cli.workerBinary = selfExePath(argv[0]);
        installInterruptHandlers();
        return runCampaign(cli);
    }

    if (want_list) {
        std::printf("machines:\n");
        for (const std::string &m : machineNames())
            std::printf("  %s\n", m.c_str());
        std::printf("workloads:\n");
        for (const std::string &w : runner::workloadNames())
            std::printf("  %s\n", w.c_str());
        return 0;
    }

    if (want_manifest) {
        Config config = describeMachine(machine_name);
        std::cout << renderManifest(config);
        std::cout << "# manifest_hash = " << manifestHashHex(config)
                  << "\n";
        if (!workload_name)
            return 0;
    }

    if (!workload_name) {
        std::fputs(flags::help(command).c_str(), stdout);
        fatal("--workload is required (or use --list)");
    }

    Program prog;
    if (!runner::buildWorkload(*workload_name, &prog, nullptr))
        fatal("unknown workload '%s' (use --list)",
              workload_name->c_str());

    auto machine = makeMachine(machine_name);
    RunResult r = machine->run(prog, cli.maxInsts);

    std::printf("machine   %s\n", r.machine.c_str());
    std::printf("workload  %s\n", r.program.c_str());
    std::printf("insts     %llu\n",
                (unsigned long long)r.instsCommitted);
    std::printf("cycles    %llu\n", (unsigned long long)r.cycles);
    std::printf("IPC       %.4f\n", r.ipc());
    std::printf("CPI       %.4f\n", r.cpi());
    std::printf("finished  %s\n", r.finished ? "yes" : "inst-limit");

    if (want_stats) {
        std::printf("\n");
        machine->statGroup().dump(std::cout);
    }
    return 0;
}

} // namespace

/**
 * The one top-level error handler: library code only throws (see
 * common/error.hh), and the driver maps the class to an exit code —
 * usage/config mistakes exit 2, everything that failed while doing
 * real work exits 1.
 */
int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "simalpha: %s\n", e.what());
        return 2;
    } catch (const SimError &e) {
        std::fprintf(stderr, "simalpha: [%s] %s\n", e.kind().c_str(),
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simalpha: %s\n", e.what());
        return 1;
    }
}
