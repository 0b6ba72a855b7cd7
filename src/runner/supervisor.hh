/**
 * @file
 * The process-isolation supervisor behind `simalpha --isolate=process`.
 *
 * The in-process (thread) runner contains any fault that surfaces as a
 * C++ exception — but a SIGSEGV, an OOM kill, a stack overflow, or a
 * runaway cell takes the whole campaign down, which is exactly the
 * silent-cell-loss hazard a large validation sweep must not have. The
 * supervisor moves the containment boundary to the process: it shards
 * a campaign into slices, fork/execs one `simalpha --shard` worker per
 * slice, and watches their journals.
 *
 * Failure model:
 *
 *   worker dies (signal / nonzero exit)
 *       → the in-flight cell (known from its heartbeat line) is the
 *         poison cell: it is recorded as failed with error class
 *         "crash" and the wait status in the message; the worker is
 *         respawned for the remaining cells — bounded respawns with
 *         exponential backoff, poison cell excluded.
 *   cell exceeds its wall-clock budget
 *       → the worker is killed; the cell is recorded with error class
 *         "timeout"; the worker respawns for the rest.
 *   respawn budget exhausted
 *       → every remaining cell of the shard is recorded as "crash".
 *   no fault at all
 *       → the merged result is byte-identical to an in-process
 *         `--jobs N` run of the same campaign (journal lines round-trip
 *         every serialized field).
 *
 * The supervisor is the process transport of a ShardedRun
 * (runner/sharded.hh): worker result lines and declared failures are
 * released into the master journal in spec order, verbatim, so its
 * journal is byte-identical to an in-process `--jobs 1` run. A line
 * held back by a slower earlier cell is already durable — in its
 * slice journal, or (a declared failure) in a declared-failure
 * journal in the scratch directory — so Ctrl-C or a supervisor crash
 * loses nothing and `--resume` replays every settled cell.
 */

#ifndef SIMALPHA_RUNNER_SUPERVISOR_HH
#define SIMALPHA_RUNNER_SUPERVISOR_HH

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/shard.hh"

namespace simalpha {
namespace runner {

struct SupervisorOptions
{
    /** Campaign name ("table2".."table5", "smoke") — workers re-derive
     *  the spec from the name, so it must be a named campaign. */
    std::string campaign;
    /** Committed-instruction cap applied to every cell (0 = none). */
    std::uint64_t maxInsts = 0;
    /** Sampled-execution spec applied to every cell (disabled by
     *  default); forwarded to every worker verbatim. */
    checkpoint::SampleSpec sample;

    /** Worker processes; 0 = hardware concurrency. */
    int shards = 0;
    /** Path to the simalpha binary to exec as workers. */
    std::string workerBinary;
    /** Scratch directory for slice journals, declared failures and
     *  worker logs; empty = derive from the master journal path or a
     *  temp directory. A resume replays the journals it kept. */
    std::string scratchDir;

    /** Per-cell wall-clock budget in seconds (0 = no timeout). */
    double cellTimeout = 0.0;
    /** Worker respawns allowed per shard after a death. */
    int maxRespawns = 2;
    /** First respawn delay in seconds; doubles per respawn, with
     *  deterministic per-shard jitter (respawnBackoffSeconds). */
    double backoffSeconds = 0.05;
    /** How long a SIGTERMed worker gets to drain before the
     *  supervisor escalates to SIGKILL. Applies both to interrupt
     *  (Ctrl-C) teardown and to any future cancellation path. */
    double termGraceSeconds = 2.0;

    /** Persistent result store root forwarded to workers (--store);
     *  empty = none. Every shard (and any other campaign pointed at
     *  the same root) shares it without coordination, so a rerun of a
     *  sharded campaign serves already-computed cells from disk. */
    std::string storePath;

    /** Per-cell retry budget forwarded to workers (--retries). */
    int maxRetries = 0;
    /** Fault plan forwarded to workers (--inject), campaign indices. */
    std::vector<FaultInjection> faults;

    /** Master campaign journal (empty = none); with resume, settled
     *  cells are replayed from it and the scratch directory's journals
     *  instead of re-sharded. */
    std::string masterJournalPath;
    bool resume = false;
    /** fsync the master journal after every line and forward
     *  --journal-sync to every worker (see CampaignJournal). */
    bool journalSync = false;

    /** Called with every result line as it enters the master journal,
     *  in spec order — worker and replayed lines verbatim, declared
     *  failures as freshly rendered journalLine() bytes — with the
     *  cell's ok flag and whether it was replayed, so a caller (the
     *  serve daemon) can stream results without tailing or re-parsing
     *  the journal. Calls are serialized. */
    std::function<void(const std::string &line, bool ok, bool replayed)>
        onLine;

    /** Set by a signal handler: terminate workers and return early. */
    const volatile std::sig_atomic_t *interrupted = nullptr;
    /** Same contract for a cross-thread canceller (a volatile
     *  sig_atomic_t read is not a synchronized load; threads must use
     *  this instead). Either flag interrupts the run. */
    const std::atomic<bool> *interruptedAtomic = nullptr;
};

struct SupervisorOutcome
{
    CampaignResult result;
    /** True if the run was cut short by the interrupted flag; the
     *  result is partial and should not become an artifact. */
    bool interrupted = false;

    std::size_t replayedCells = 0;  ///< served from the master journal
    std::size_t crashedCells = 0;   ///< error class "crash"
    std::size_t timedOutCells = 0;  ///< error class "timeout"
    int spawns = 0;                 ///< worker processes started
    int respawns = 0;               ///< of which after a death

    /** Per-shard persistent-store traffic, indexed by shard id (from
     *  the workers' store-summary journal lines; zero without a store,
     *  empty when the replay left nothing to run). */
    std::vector<StoreTraffic> shardStore;
    /** The same traffic summed across every shard. */
    StoreTraffic storeTraffic;
    /** Scratch directory left on disk for post-mortem (worker logs)
     *  when something went wrong; empty when cleaned up. */
    std::string scratchRetained;
};

/** Run a named campaign under process isolation. Throws ConfigError
 *  for unusable options (unknown campaign, missing worker binary), and
 *  std::runtime_error when supervising a slice failed outright. */
SupervisorOutcome superviseCampaign(const SupervisorOptions &options);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_SUPERVISOR_HH
