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
#include "common/logging.hh"
#include "common/number.hh"
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
 * where the interrupt landed.
 */
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
onInterrupt(int)
{
    g_interrupted = 1;
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

void
usage()
{
    std::printf(
        "usage: simalpha --machine <name> --workload <name> [options]\n"
        "       simalpha --campaign <table> [--jobs N] [--out file]\n"
        "\n"
        "options:\n"
        "  --machine <name>    machine configuration (see --list)\n"
        "  --workload <name>   bundled workload (see --list)\n"
        "  --max-insts <n>     stop after n committed instructions\n"
        "  --stats             dump all event counters after the run\n"
        "  --manifest          print the full parameter manifest\n"
        "  --list              list machines and workloads\n"
        "\n"
        "campaign mode:\n"
        "  --campaign <name>   run a whole table grid: table2, table3,\n"
        "                      table4, table5 (or smoke, a 12-cell\n"
        "                      capped self-test grid)\n"
        "  --jobs <n>          worker threads (0 = all cores; default 0)\n"
        "  --out <file>        write the artifact (.csv = CSV, else\n"
        "                      JSON; '-' = JSON to stdout)\n"
        "  --no-cache          disable the (manifest, workload) result\n"
        "                      cache\n"
        "  --sample <spec>     sampled execution: windows=N,len=K\n"
        "                      [,warmup=W]. Each cell fast-forwards\n"
        "                      functionally, restores N checkpoints,\n"
        "                      and measures K detailed insts per\n"
        "                      window (after W warm-up insts); results\n"
        "                      carry mean IPC +/- a 95%% sampling-error\n"
        "                      bar. Checkpoints stay in memory, never\n"
        "                      in --store\n"
        "  --store <dir>       persistent result store: cells whose\n"
        "                      identity is already stored are served\n"
        "                      from disk, new results are published —\n"
        "                      shared across runs, shards, and\n"
        "                      isolation modes\n"
        "  --retries <n>       re-run cells failing with a retryable\n"
        "                      (transient) class up to n times\n"
        "  --resume            skip cells already in <out>.journal.jsonl\n"
        "                      (from an interrupted run of the same\n"
        "                      campaign)\n"
        "  --no-journal        do not keep a journal next to --out\n"
        "  --journal-sync      fsync the journal after every line, so\n"
        "                      even a machine crash loses no settled\n"
        "                      cell (also: SIMALPHA_JOURNAL_SYNC=1)\n"
        "  --max-insts also caps every campaign cell.\n"
        "\n"
        "process isolation (crash-proof campaigns):\n"
        "  --isolate <mode>    thread (default): in-process pool, C++\n"
        "                      exceptions contained per cell; process:\n"
        "                      shard over worker processes, so signal\n"
        "                      deaths, OOM kills, and hangs are also\n"
        "                      contained per cell\n"
        "  --shards <n>        worker processes (0 = all cores)\n"
        "  --cell-timeout <s>  kill a cell exceeding s seconds of\n"
        "                      wall-clock (0 = no timeout)\n"
        "  --inject <c:k[:t]>  fault drill: make cell c fail with kind\n"
        "                      k (panic, stall, throw, abort, segfault,\n"
        "                      hang) on its first t executions\n"
        "\n"
        "vulnerability campaigns (simalpha vuln ...):\n"
        "  simalpha vuln --workload <name> --max-insts <cap>\n"
        "                --cells <n> [--machine <name>] [--seed <s>]\n"
        "                [--targets t1+t2+...] [campaign options]\n"
        "                      fan n single-bit soft-error injections\n"
        "                      over the machine's state (regfile,\n"
        "                      renamemap, rob, lsq, iq, bpred,\n"
        "                      cachetag, cachedata, tlbtag), classify\n"
        "                      each against the uninjected golden run\n"
        "                      (masked, sdc, crash, deadlock, timeout)\n"
        "                      and print a per-structure vulnerability\n"
        "                      table; --out also writes\n"
        "                      <out>.vuln.{json,csv}. The workload\n"
        "                      must finish under --max-insts. All\n"
        "                      campaign options (--jobs, --store,\n"
        "                      --isolate, --resume, ...) apply\n"
        "\n"
        "campaign service (simalpha serve / simalpha submit):\n"
        "  simalpha serve --store <dir> [--listen <addr>]\n"
        "                 [--jobs N] [--isolate thread|process]\n"
        "                 [--shards N] [--max-pending N]\n"
        "                 [--max-clients N] [--max-cells N]\n"
        "                 [--max-client-cells N] [--drain-timeout s]\n"
        "                 [--journal-sync]\n"
        "                      long-running daemon on <addr> (default\n"
        "                      <store>/serve.sock; tcp:PORT for\n"
        "                      127.0.0.1 TCP). Streams result lines as\n"
        "                      cells settle, serves warm cells from\n"
        "                      the store, journals every job under\n"
        "                      <store>/serve.d/ so a killed daemon\n"
        "                      resumes on restart. Full queues reply\n"
        "                      `busy`; SIGTERM drains then exits\n"
        "  simalpha fleet --store <dir> --workers <addr>[,...]\n"
        "                 [--listen <addr>] [--sync]\n"
        "                 [--worker-timeout s] [--connect-timeout s]\n"
        "                 [--retries n] [--redispatch n] [--backoff s]\n"
        "                 [--seed n] [--max-pending N] ...\n"
        "                      multi-host front-end: speaks the same\n"
        "                      protocol as serve, but fans each job\n"
        "                      out across the worker daemons as\n"
        "                      deterministic shard sub-campaigns and\n"
        "                      merges the streams back in spec order —\n"
        "                      clients get bytes identical to a\n"
        "                      single-host run. A dead worker's shard\n"
        "                      is re-dispatched (workers resume, never\n"
        "                      recompute); --sync pre-seeds worker\n"
        "                      stores and harvests new results back\n"
        "  simalpha submit --connect <addr> | --store <dir>\n"
        "                  --campaign <name> [--max-insts n]\n"
        "                  [--sample spec] [--out file] [--quiet]\n"
        "                  [--op submit|results|status|cancel|health|\n"
        "                   shutdown|hello] [--timeout s] [--retries n]\n"
        "                  [--backoff s] [--seed n] [--client name]\n"
        "                      submit a campaign and stream its result\n"
        "                      lines to stdout; retries connect\n"
        "                      failures, busy rejections, and torn\n"
        "                      streams with jittered exponential\n"
        "                      backoff. Resubmitting the same identity\n"
        "                      attaches to the in-flight job or\n"
        "                      replays its journal byte-identically\n"
        "\n"
        "store maintenance (simalpha store <verb> --store <dir>):\n"
        "  stats               entry count, bytes, quarantined blobs\n"
        "  verify              integrity-check every entry; corrupt\n"
        "                      ones are quarantined (exit 1 if any);\n"
        "                      --rebuild-index also rebuilds every\n"
        "                      shard's binary index.bin and reports\n"
        "                      index-vs-scan agreement\n"
        "  gc                  evict least-recently-used entries; needs\n"
        "                      --max-bytes <n> and/or --max-age <secs>\n"
        "  export --to <f>     dump every entry as JSONL\n"
        "  import --from <f>   publish a dump into this store\n"
        "\n"
        "exit codes: 0 success, 1 failed cells or a failed run,\n"
        "            2 usage or configuration errors, 3 interrupted\n"
        "            (journal intact; restart with --resume)\n");
}

/**
 * The argument cursor every subcommand parses with: @c flag is the
 * argument at hand, value() consumes the one after it (its absence is
 * a usage error naming the flag), and number<T>() reads that value
 * through the one checked parser, common/number.
 */
struct Args
{
    /** Walk argv[first..]: the first next() lands on argv[first]. */
    Args(int argc_, char **argv_, int first)
        : argc(argc_), argv(argv_), i(first - 1)
    {
    }

    int argc;
    char **argv;
    int i;                  ///< index of the argument at hand
    std::string flag;

    bool next() { return ++i < argc && (flag = argv[i], true); }

    const char *value()
    {
        if (i + 1 >= argc)
            fatal("missing value after %s", flag.c_str());
        return argv[++i];
    }

    template <class T> T number() { return flagNumber<T>(flag, value()); }
};

/** Everything campaign mode parsed off the command line. */
struct CampaignCli
{
    std::string campaign;
    std::string isolate = "thread";     ///< "thread" or "process"
    int jobs = 0;
    int shards = 0;
    double cellTimeout = 0.0;
    bool useCache = true;
    std::string storePath;
    std::uint64_t maxInsts = 0;
    checkpoint::SampleSpec sample;
    std::string outPath;
    int retries = 0;
    bool resume = false;
    bool journal = true;
    bool journalSync = runner::journalSyncFromEnv();
    std::vector<runner::FaultInjection> faults;
    std::string workerBinary;           ///< for --isolate=process
};

/** The flags `simalpha --campaign` and `simalpha vuln` share; false
 *  when @p a holds another flag. */
bool
parseCampaignFlag(Args &a, CampaignCli &cli)
{
    const std::string &f = a.flag;
    if (f == "--jobs")
        cli.jobs = a.number<int>();
    else if (f == "--out")
        cli.outPath = a.value();
    else if (f == "--no-cache")
        cli.useCache = false;
    else if (f == "--store")
        cli.storePath = a.value();
    else if (f == "--retries")
        cli.retries = a.number<int>();
    else if (f == "--resume")
        cli.resume = true;
    else if (f == "--no-journal")
        cli.journal = false;
    else if (f == "--journal-sync")
        cli.journalSync = true;
    else if (f == "--isolate")
        cli.isolate = a.value();
    else if (f.rfind("--isolate=", 0) == 0)
        cli.isolate = f.substr(10);
    else if (f == "--shards")
        cli.shards = a.number<int>();
    else if (f == "--cell-timeout")
        cli.cellTimeout = a.number<double>();
    else
        return false;
    return true;
}

/** The flags `simalpha serve` and `simalpha fleet` share; false when
 *  @p a holds another flag. */
bool
parseDaemonFlag(Args &a, serve::ServeOptions &sopts)
{
    const std::string &f = a.flag;
    if (f == "--store")
        sopts.storePath = a.value();
    else if (f == "--listen")
        sopts.listen = a.value();
    else if (f == "--max-pending")
        sopts.maxPending = a.number<std::uint64_t>();
    else if (f == "--max-clients")
        sopts.maxClients = a.number<std::uint64_t>();
    else if (f == "--max-cells")
        sopts.maxCellsPerCampaign = a.number<std::uint64_t>();
    else if (f == "--max-client-cells")
        sopts.maxClientCells = a.number<std::uint64_t>();
    else if (f == "--drain-timeout")
        sopts.drainTimeoutSeconds = a.number<double>();
    else if (f == "--journal-sync")
        sopts.journalSync = true;
    else
        return false;
    return true;
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
    if (cli.journal && !cli.outPath.empty() && cli.outPath != "-")
        journal_path = cli.outPath + ".journal.jsonl";
    else if (cli.resume)
        fatal("--resume needs --out <file> (the journal lives next to "
              "the artifact)");
    if (cli.isolate != "thread" && cli.isolate != "process")
        fatal("unknown isolation mode '%s' (thread, process)",
              cli.isolate.c_str());

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
        opts.cache = cli.useCache;
        opts.storePath = cli.storePath;
        opts.maxRetries = cli.retries;
        opts.faults = cli.faults;
        opts.journalPath = journal_path;
        opts.resume = cli.resume && !journal_path.empty();
        opts.journalSync = cli.journalSync;
        opts.cancel = &g_interrupted;
        runner::ExperimentRunner rnr(opts);
        result = rnr.run(spec);
        interrupted = g_interrupted;
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

    for (Args a(argc, argv, 1); a.next();) {
        const std::string &arg = a.flag;
        if (parseCampaignFlag(a, cli))
            continue;
        if (arg == "--machine") {
            spec.machine = a.value();
        } else if (arg == "--workload") {
            spec.workload = a.value();
        } else if (arg == "--max-insts") {
            spec.maxInsts = a.number<std::uint64_t>();
        } else if (arg == "--cells") {
            spec.cells = a.number<std::uint64_t>();
        } else if (arg == "--seed") {
            spec.seed = a.number<std::uint64_t>();
        } else if (arg == "--targets") {
            std::string list = a.value();
            std::size_t start = 0;
            for (;;) {
                std::size_t plus = list.find('+', start);
                std::string name =
                    plus == std::string::npos
                        ? list.substr(start)
                        : list.substr(start, plus - start);
                inject::Target target;
                if (!inject::targetByName(name, &target))
                    fatal("--targets: unknown target '%s' "
                          "(targets: %s)",
                          name.c_str(),
                          inject::targetNameList().c_str());
                spec.targets.push_back(target);
                if (plus == std::string::npos)
                    break;
                start = plus + 1;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown vuln option '%s'", arg.c_str());
        }
    }

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
runStoreCommand(int argc, char **argv)
{
    std::string verb = argc >= 2 ? argv[1] : "";
    std::string root, to_path, from_path;
    std::uint64_t max_bytes = 0;
    double max_age = 0.0;
    bool rebuild_index = false;

    for (Args a(argc, argv, 2); a.next();) {
        const std::string &arg = a.flag;
        if (arg == "--store")
            root = a.value();
        else if (arg == "--max-bytes")
            max_bytes = a.number<std::uint64_t>();
        else if (arg == "--max-age")
            max_age = a.number<double>();
        else if (arg == "--to")
            to_path = a.value();
        else if (arg == "--from")
            from_path = a.value();
        else if (arg == "--rebuild-index")
            rebuild_index = true;
        else
            fatal("unknown store option '%s'", arg.c_str());
    }
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
    sopts.journalSync = runner::journalSyncFromEnv();

    for (Args a(argc, argv, 1); a.next();) {
        const std::string &arg = a.flag;
        if (parseDaemonFlag(a, sopts))
            continue;
        if (arg == "--jobs") {
            sopts.jobs = a.number<int>();
        } else if (arg == "--isolate") {
            sopts.isolate = a.value();
        } else if (arg.rfind("--isolate=", 0) == 0) {
            sopts.isolate = arg.substr(10);
        } else if (arg == "--shards") {
            sopts.shards = a.number<int>();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown serve option '%s'", arg.c_str());
        }
    }
    if (sopts.storePath.empty())
        fatal("serve needs --store <dir> (results, golden references, "
              "and job journals live there)");
    if (sopts.isolate != "thread" && sopts.isolate != "process")
        fatal("unknown isolation mode '%s' (thread, process)",
              sopts.isolate.c_str());

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
runFleetCommand(int argc, char **argv)
{
    serve::ServeOptions sopts;
    sopts.journalSync = runner::journalSyncFromEnv();
    fleet::FleetOptions fopts;
    fopts.seed = std::uint64_t(::getpid());
    std::string workersText;

    for (Args a(argc, argv, 1); a.next();) {
        const std::string &arg = a.flag;
        if (parseDaemonFlag(a, sopts))
            continue;
        if (arg == "--workers") {
            workersText = a.value();
        } else if (arg == "--sync") {
            fopts.syncStores = true;
        } else if (arg == "--worker-timeout") {
            fopts.workerTimeoutSeconds = a.number<double>();
        } else if (arg == "--connect-timeout") {
            fopts.connectTimeoutSeconds = a.number<double>();
        } else if (arg == "--retries") {
            fopts.maxRetries = a.number<int>();
        } else if (arg == "--redispatch") {
            fopts.maxRedispatch = a.number<int>();
        } else if (arg == "--backoff") {
            fopts.backoffSeconds = a.number<double>();
        } else if (arg == "--seed") {
            fopts.seed = a.number<std::uint64_t>();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown fleet option '%s'", arg.c_str());
        }
    }
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
runSubmitCommand(int argc, char **argv)
{
    serve::ClientOptions copts;
    copts.seed = std::uint64_t(::getpid());
    std::string storePath, campaign, op = "submit", outPath,
        sampleStr, clientName;
    std::uint64_t maxInsts = 0;
    bool quiet = false;

    for (Args a(argc, argv, 1); a.next();) {
        const std::string &arg = a.flag;
        if (arg == "--connect") {
            copts.connect = a.value();
        } else if (arg == "--store") {
            storePath = a.value();
        } else if (arg == "--campaign") {
            campaign = a.value();
        } else if (arg == "--max-insts") {
            maxInsts = a.number<std::uint64_t>();
        } else if (arg == "--sample") {
            sampleStr = a.value();
        } else if (arg == "--op") {
            op = a.value();
        } else if (arg == "--client") {
            clientName = a.value();
        } else if (arg == "--timeout") {
            copts.timeoutSeconds = a.number<double>();
        } else if (arg == "--retries") {
            copts.maxRetries = a.number<int>();
        } else if (arg == "--backoff") {
            copts.backoffSeconds = a.number<double>();
        } else if (arg == "--seed") {
            copts.seed = a.number<std::uint64_t>();
        } else if (arg == "--out") {
            outPath = a.value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown submit option '%s'", arg.c_str());
        }
    }
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

int
realMain(int argc, char **argv)
{
    setQuiet(true);
    if (argc >= 2 && std::strcmp(argv[1], "store") == 0)
        return runStoreCommand(argc - 1, argv + 1);
    if (argc >= 2 && std::strcmp(argv[1], "bench") == 0)
        return runner::runBenchCommand(argc - 1, argv + 1);
    if (argc >= 2 && std::strcmp(argv[1], "vuln") == 0)
        return runVulnCommand(argc - 1, argv + 1, argv[0]);
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return runServeCommand(argc - 1, argv + 1, argv[0]);
    if (argc >= 2 && std::strcmp(argv[1], "fleet") == 0)
        return runFleetCommand(argc - 1, argv + 1);
    if (argc >= 2 && std::strcmp(argv[1], "submit") == 0)
        return runSubmitCommand(argc - 1, argv + 1);

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

    for (Args a(argc, argv, 1); a.next();) {
        const std::string &arg = a.flag;
        if (parseCampaignFlag(a, cli))
            continue;
        if (arg == "--machine") {
            machine_name = a.value();
        } else if (arg == "--workload") {
            workload_name = a.value();
        } else if (arg == "--campaign") {
            campaign_name = a.value();
        } else if (arg == "--max-insts") {
            cli.maxInsts = a.number<std::uint64_t>();
        } else if (arg == "--sample") {
            std::string error;
            if (!checkpoint::parseSampleSpec(a.value(), &cli.sample,
                                             &error))
                fatal("--sample: %s", error.c_str());
        } else if (arg == "--inject") {
            runner::FaultInjection fault;
            std::string error;
            if (!runner::parseFaultSpec(a.value(), &fault, &error))
                fatal("%s", error.c_str());
            cli.faults.push_back(fault);
        } else if (arg == "--shard") {
            shard_mode = true;
        } else if (arg == "--cells") {
            shard_cells = a.value();
        } else if (arg == "--journal") {
            shard_journal = a.value();
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--manifest") {
            want_manifest = true;
        } else if (arg == "--list") {
            want_list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }

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
        usage();
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
