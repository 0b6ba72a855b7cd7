/**
 * @file
 * The append-only JSONL campaign journal behind `--resume`.
 *
 * While a campaign runs, every completed cell is appended (and flushed)
 * as one self-contained JSON line carrying the full serialized result —
 * identity, manifest hash, status, error class, timing, and counters.
 * A killed campaign therefore leaves a journal of exactly the cells
 * that finished; restarting with resume serves those cells from the
 * journal and re-executes only the rest, producing artifacts
 * byte-identical to an uninterrupted run.
 *
 * Entries are keyed by the cell identity (machine, optimization,
 * workload, instruction cap, seed) and validated against the current
 * manifest hash at replay time: if a machine definition changed since
 * the journal was written, the stale entry is ignored and the cell
 * re-runs.
 *
 * Durability: every append is one write(2) on an O_APPEND descriptor,
 * so a kill between cells never interleaves or tears lines written by
 * this process. A process killed *mid-write* (or a power cut) can
 * still leave a torn final line; replay detects the unterminated tail,
 * discards it with a warning, and serves everything before it. Opt-in
 * fsync-per-append (the sync flag, or SIMALPHA_JOURNAL_SYNC=1) extends
 * the guarantee through the OS page cache for campaigns that must
 * survive machine crashes, at the cost of one fsync per cell.
 */

#ifndef SIMALPHA_RUNNER_JOURNAL_HH
#define SIMALPHA_RUNNER_JOURNAL_HH

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runner/runner.hh"

namespace simalpha {
namespace runner {

/** Identity key of a cell inside a journal (machine, optimization,
 *  workload, cap, seed — the same identity the result cache uses). */
std::string journalKey(const Cell &cell);

/** Serialize one completed cell as a single JSONL line (no newline). */
std::string journalLine(const std::string &campaign,
                        const CellResult &result);

/**
 * Parse one journal line. Returns false on malformed input or a
 * campaign mismatch. On success fills *result (cell identity included)
 * and *key with journalKey of that identity.
 */
bool parseJournalLine(const std::string &line,
                      const std::string &campaign, CellResult *result,
                      std::string *key);

/**
 * Load every well-formed entry of @p path belonging to @p campaign,
 * newest-wins. A missing file is not an error (empty map, true). A
 * torn final line (no trailing newline — the tail a killed process
 * leaves) is discarded with a warning, never parsed, so a crashed
 * campaign always replays cleanly. Returns false only on
 * unreadable-but-existing files.
 */
bool loadJournal(const std::string &path, const std::string &campaign,
                 std::unordered_map<std::string, CellResult> *out,
                 std::string *error);

/** What loadJournal reads, entry by entry, oldest first: each entry's
 *  key, parsed result and verbatim line bytes. */
bool readJournal(const std::string &path, const std::string &campaign,
                 const std::function<void(const std::string &key,
                                          CellResult &result,
                                          const std::string &line)> &visit,
                 std::string *error);

/** True when fsync-per-append was requested via the environment
 *  (SIMALPHA_JOURNAL_SYNC=1) — the opt-in shard workers and library
 *  callers inherit without any flag plumbing. */
bool journalSyncFromEnv();

/** Thread-safe append-only writer; one line per completed cell. */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;
    ~CampaignJournal();

    /** Open @p path for appending. @p sync requests fsync-per-append
     *  (forced on by SIMALPHA_JOURNAL_SYNC=1 either way). Returns
     *  false with *error filled if the file cannot be opened. */
    bool open(const std::string &path, std::string *error,
              bool sync = false);

    bool isOpen() const { return _fd >= 0; }
    bool syncing() const { return _sync; }

    /** Append one completed cell (single write(2) of line + newline;
     *  fsync too when syncing, so a kill loses at most the line being
     *  written — and with sync, a machine crash loses nothing that was
     *  appended). */
    void append(const std::string &campaign, const CellResult &result);

    /** Append an already-serialized line verbatim (the sharded
     *  executor releases worker bytes through this, so resumed
     *  campaigns replay the worker's exact serialization). */
    void appendRaw(const std::string &line);

    void close();

  private:
    std::mutex _mutex;
    int _fd = -1;
    bool _sync = false;
};

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_JOURNAL_HH
