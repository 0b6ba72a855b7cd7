/**
 * @file
 * The one executor behind every campaign mode: in-process threads,
 * `--isolate=process` and the fleet.
 *
 * A ShardedRun splits a campaign into n slices — slice i holds cells
 * i, i+n, ... (shardSlice) of the spec, or of the cells still unsettled
 * — and hands each slice with unsettled cells to a Transport on its
 * own thread: the supervisor spawns `simalpha
 * --shard` workers, the fleet dispatcher submits `shard:<i>/<n>:<base>`
 * to serve daemons. The in-process runner's thread pool needs no slice
 * thread: its own threads deliver every cell, then it calls finish(),
 * so at --jobs 1 everything runs on the caller's thread. The rest is
 * shared:
 *
 *   replay   any retained journals, then the master journal, through
 *            mergeShardJournals: manifest-hash checked, newest line
 *            per cell, torn tail ignored;
 *   merge    a delivered line is accepted when it parses for the
 *            campaign, names a cell of the spec and carries that
 *            cell's current manifest hash; the first accepted line
 *            for a cell wins;
 *   release  accepted lines leave in spec order, each appended to the
 *            master journal once and passed to the sink once, so the
 *            journal and stream are byte-identical to `--jobs 1`;
 *   declare  a failure the transport observed becomes a failed
 *            journal line, durable in the declared-failure journal at
 *            once and released in spec order like any other.
 *
 * A slow early cell holds later lines back from the master journal;
 * they stay durable beside it, which is what a resumed run replays: in
 * the scratch directory (slice, declared and arrival journals) or in a
 * fleet's worker job journals.
 */

#ifndef SIMALPHA_RUNNER_SHARDED_HH
#define SIMALPHA_RUNNER_SHARDED_HH

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runner/journal.hh"

namespace simalpha {
namespace runner {

/** Slice @c index of @c count: its unsettled cells, in spec order. */
struct Slice
{
    std::size_t index = 0;
    std::size_t count = 1;
    std::vector<std::size_t> cells;
};

class ShardedRun;

/** Runs one slice. Returning false (with *error), or throwing, gives
 *  up: nothing new starts, stopping() turns true, and the run fails
 *  with that error. */
using Transport = std::function<bool(const Slice &slice, ShardedRun &run,
                                     std::string *error)>;

struct ShardedOptions
{
    std::string journalPath;    ///< master journal (empty = none)
    bool journalSync = false;
    /** Replay the scratch directory's journals, then the master
     *  journal: the master's line wins for a cell it holds, and a
     *  retained line joins the master on release. */
    bool resume = false;
    /** Partition only the cells the replay left unsettled (a transport
     *  that takes cell lists); otherwise slice i of n is cells i, i+n,
     *  ... of the whole spec, as `shard:<i>/<n>` names require. */
    bool spreadUnsettled = false;
    /** Journals beside the master (empty = none): slice journals and
     *  logs ("shard-*"), declared failures ("declared-*", appended
     *  when declared; without a scratch directory a declared failure
     *  reaches only the master, on release) and pool arrivals
     *  ("arrival-*"). Created if missing; a resume replays its
     *  journals, any other run deletes them, and a healthy run removes
     *  the directory. */
    std::string scratchDir;

    /** Cancel flags, read only by the thread inside run(); onCancel
     *  runs there once when one is first seen. */
    const volatile std::sig_atomic_t *interrupted = nullptr;
    const std::atomic<bool> *cancel = nullptr;
    std::function<void()> onCancel;

    /** Every released line, in spec order, with the cell's ok flag and
     *  whether it was replayed; called with the run's lock held. */
    std::function<void(const std::string &line, bool ok, bool replayed)>
        sink;
};

struct ShardedOutcome
{
    /** Spec order; a cell without a line keeps its identity and seed
     *  and is listed in missing. */
    CampaignResult result;
    std::vector<std::size_t> missing;
    std::size_t replayed = 0;
    bool cancelled = false;
    std::string failure;        ///< the error of a transport that gave up
    std::string scratchRetained;    ///< kept for post-mortem and resume
};

/** The first "<stem><k>.jsonl" (k = 1, 2, ...) not on disk, so a run
 *  never reopens a journal a resume has yet to replay. */
std::string unusedJournalPath(const std::string &stem);

class ShardedRun
{
  public:
    /** Replays (with resume), opens the master journal and releases
     *  the settled spec-order prefix. */
    ShardedRun(const CampaignSpec &spec, ShardedOptions options);

    const CampaignSpec &spec() const { return _spec; }
    /** Cells the replay left unsettled (before run()). */
    std::size_t unsettled() const
    {
        return _spec.cells.size() - _out.replayed;
    }

    /** Run @p transport once per slice (of @p slices) that has
     *  unsettled cells, each on its own thread, wait for all of them,
     *  and finish(). Call run() or finish() once. */
    ShardedOutcome run(std::size_t slices, const Transport &transport);
    /** The outcome without run(), for a caller that delivers from
     *  threads of its own and stops them on cancel itself. */
    ShardedOutcome finish();

    // For transports, from any thread.

    /** True when @p line settled a cell that had no line yet. */
    bool deliver(const std::string &line);
    /** Settle @p cell with a result computed in this process, durable
     *  in the arrival journal at once; its fromCache, fromStore and
     *  attempts stay as given. False if the cell already had a line. */
    bool deliver(std::size_t cell, CellResult result);
    /** Settle @p cell as failed; false if it already has a line. */
    bool declare(std::size_t cell, const std::string &errorClass,
                 const std::string &message);
    bool settled(std::size_t cell) const;
    /** @p cell's manifest hash (manifestHashes(), computed once per
     *  configuration at construction). */
    const std::string &
    manifestHash(std::size_t cell) const
    {
        return _hashes[cell];
    }
    /** The result of a released cell; from the sink, the one it is
     *  being handed (the k-th released line is cell k's). */
    const CellResult &result(std::size_t cell) const
    {
        return _out.result.cells[cell];
    }
    /** Cancelled, or a transport gave up: start nothing new. */
    bool stopping() const { return _stop.load(); }
    /** Sleep up to @p seconds or until stopping; returns !stopping(). */
    bool sleepFor(double seconds);

  private:
    void settleLocked(std::size_t cell, const std::string &line,
                      CellResult result, bool replayed, bool append);
    void stopLocked();
    bool settledLocked(std::size_t cell) const
    {
        return cell < _cursor || !_lines[cell].empty();
    }

    const CampaignSpec &_spec;
    ShardedOptions _opts;
    std::vector<std::string> _hashes;
    std::unordered_map<std::string, std::vector<std::size_t>> _cellsByKey;
    CampaignJournal _journal;
    CampaignJournal _declared;
    CampaignJournal _arrival;           ///< opened by the first deliver()
    std::once_flag _arrivalOpened;      ///< of a computed result

    mutable std::mutex _mu;
    std::condition_variable _cv;
    /** Per cell until released; empty at or past the cursor =
     *  unsettled. */
    std::vector<std::string> _lines;
    std::vector<char> _replayed;
    std::vector<char> _append;          ///< not in the master yet
    ShardedOutcome _out;
    std::size_t _cursor = 0;            ///< next cell to release
    std::size_t _running = 0;           ///< slice threads still out
    std::atomic<bool> _stop{false};
};

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_SHARDED_HH
