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
 * (runner/sharded.hh), which releases worker lines and declared
 * failures into the master journal in spec order and keeps held-back
 * ones durable in the scratch directory, so Ctrl-C or a supervisor
 * crash loses nothing and `--resume` replays every settled cell.
 */

#ifndef SIMALPHA_RUNNER_SUPERVISOR_HH
#define SIMALPHA_RUNNER_SUPERVISOR_HH

#include "runner/launch.hh"

namespace simalpha {
namespace runner {

/** Run the campaign @p options describe under process isolation,
 *  whatever its isolate field says; launchCampaign() calls this for
 *  `isolate = "process"`. Throws as launchCampaign() does. */
LaunchOutcome superviseCampaign(const LaunchOptions &options);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_SUPERVISOR_HH
