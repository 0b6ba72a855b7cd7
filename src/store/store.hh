/**
 * @file
 * Content-addressed, disk-backed result store shared across shards,
 * supervisors, and successive campaign runs.
 *
 * The store maps an opaque result key (the runner's cache key:
 * manifest hash × workload × instruction cap × seed) to one JSON blob
 * under a sharded directory tree:
 *
 *     <root>/<hh>/<14-hex>.json          the entry (header + payload)
 *     <root>/<hh>/<14-hex>.json.atime    last-use sidecar (LRU for gc)
 *     <root>/<hh>/<14-hex>.json.lock     advisory writer lock
 *
 * where the 16 hex digits are the FNV-1a hash of the key. An entry is
 * two lines: a header recording the full key and an integrity hash of
 * the payload, then the payload verbatim. Publication is atomic
 * (temp-file-then-rename, serialized per entry by an advisory
 * flock(2)); loads verify the integrity hash and the full key (a hash
 * collision therefore reads as a miss, never as a wrong result), and
 * an entry failing its integrity check is quarantined aside as
 * *.corrupt rather than served.
 *
 * The layout itself is the authoritative index, so any number of
 * uncoordinated processes — thread-pool runners, process shards,
 * successive `simalpha --campaign` invocations, or different hosts
 * sharing a filesystem — can read and write one store relying only on
 * POSIX rename/flock/unlink semantics. A reader holding an open
 * descriptor keeps its entry's bytes alive even if gc unlinks the
 * file mid-read.
 *
 * The store knows nothing about campaigns or cells: keys and payloads
 * are opaque strings, which keeps this library free of any dependency
 * on the runner (the runner depends on the store, not vice versa).
 */

#ifndef SIMALPHA_STORE_STORE_HH
#define SIMALPHA_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace simalpha {
namespace store {

/** Traffic counters of one open store handle (this process's use of
 *  the store, not the store's on-disk contents). */
struct StoreCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t publishes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t quarantined = 0;
    /** Always 0: the store has no shard index to hit any more. Kept
     *  because campaignbench still reads them. */
    std::uint64_t indexHits = 0;
    std::uint64_t indexStale = 0;
    /** Full entry-file parses (header decode + key unescape): one per
     *  lookup that found a file, per verified entry and per export. */
    std::uint64_t entryParses = 0;
};

/** On-disk contents, from a directory walk. */
struct StoreUsage
{
    std::uint64_t entries = 0;      ///< well-formed *.json entries seen
    std::uint64_t bytes = 0;        ///< their total size
    std::uint64_t corrupt = 0;      ///< *.corrupt quarantine files
};

/** Which entries an exportLines() walk emits. */
struct ExportFilter
{
    /** Only entries whose on-disk mtime lies within the last
     *  this-many seconds (0 = every entry). Lets a fleet dispatcher
     *  harvest just what a worker published during a job instead of
     *  re-shipping the whole store. */
    double newerThanSeconds = 0.0;
};

struct GcOptions
{
    /** Evict least-recently-used entries until the store holds at most
     *  this many bytes (0 = no size bound). */
    std::uint64_t maxBytes = 0;
    /** Evict entries not used for longer than this (0 = no age bound). */
    double maxAgeSeconds = 0.0;
};

struct GcOutcome
{
    std::uint64_t scanned = 0;
    std::uint64_t removed = 0;
    std::uint64_t bytesRemoved = 0;
    std::uint64_t entriesKept = 0;
    std::uint64_t bytesKept = 0;
};

class ResultStore
{
  public:
    ResultStore() = default;
    /** Out of line on purpose: campaignbench links its timing wrapper
     *  around this symbol. */
    ~ResultStore();
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Open a store rooted at @p root, creating the directory if
     *  needed. Returns false with *error filled if the root cannot be
     *  created or is not a directory. */
    bool open(const std::string &root, std::string *error);

    bool isOpen() const { return !_root.empty(); }
    const std::string &root() const { return _root; }

    /**
     * Look @p key up. On a hit fills *payload with the stored blob and
     * returns true. A missing entry, a hash collision (entry recording
     * a different key), or a corrupt entry is a miss; corrupt entries
     * are additionally quarantined as *.corrupt. Thread-safe.
     */
    bool lookup(const std::string &key, std::string *payload);

    /**
     * Publish @p payload under @p key: atomic temp-then-rename under an
     * advisory per-entry flock, so concurrent writers of the same key
     * serialize and the last writer wins with no torn state visible to
     * any reader. Returns false with *error filled on I/O failure.
     * Thread-safe.
     */
    bool publish(const std::string &key, const std::string &payload,
                 std::string *error);

    /**
     * Refresh @p key's last-use sidecar without reading the payload,
     * as if the entry had just been looked up. For callers who decide
     * from other state that an entry is still needed (e.g. a warm
     * sampled rerun whose result was served without touching its
     * checkpoint blobs) — without this, gc's LRU order would evict
     * exactly the entries the next cold run needs. Returns false if
     * no entry exists under @p key. Thread-safe.
     */
    bool touch(const std::string &key);

    /** Snapshot of this handle's traffic counters. */
    StoreCounters counters() const;

    /** Walk the tree and report what is on disk. */
    StoreUsage usage(std::string *error) const;

    /**
     * Integrity-check every entry (header well-formed, payload hash
     * matches, key hashes to the entry's own path). Corrupt entries
     * are quarantined as *.corrupt and their paths appended to
     * *corruptPaths (may be null). Returns the post-walk usage; the
     * `corrupt` field counts quarantine files including ones just
     * created.
     */
    StoreUsage verifyAll(std::vector<std::string> *corruptPaths,
                         std::string *error);

    /**
     * Evict entries least-recently-used first (last use = the atime
     * sidecar's mtime, falling back to the entry's own mtime) until
     * both bounds of @p options hold. Holds an exclusive flock on
     * <root>/.gc.lock so two collectors never race; concurrent readers
     * are safe because an unlinked-but-open entry remains readable.
     * Orphan sidecar/lock files are swept too.
     */
    GcOutcome gc(const GcOptions &options, std::string *error);

    /**
     * Serialize every valid entry into @p path as JSONL
     * ({"key":...,"payload":...} per line, written atomically), for
     * moving results between hosts. *exported (may be null) receives
     * the entry count.
     */
    bool exportTo(const std::string &path, std::uint64_t *exported,
                  std::string *error) const;

    /** Publish every line of an exportTo() file into this store
     *  (last-writer-wins with whatever is already present). */
    bool importFrom(const std::string &path, std::uint64_t *imported,
                    std::string *error);

    /**
     * Stream every valid entry passing @p filter to @p emit as one
     * exportTo()-format line (no trailing newline), without building
     * the whole dump in memory — the transport the serve protocol's
     * `sync` op uses. @p emit returning false aborts the walk (the
     * consumer's error wins); *exported (may be null) receives the
     * emitted count.
     */
    bool exportLines(
        const ExportFilter &filter,
        const std::function<bool(const std::string &line)> &emit,
        std::uint64_t *exported, std::string *error) const;

    /** One dump line, {"key":"...","payload":"..."} — the format
     *  exportTo() writes and importFrom() reads. */
    static std::string formatExportLine(const std::string &key,
                                        const std::string &payload);

    /** Parse formatExportLine() output; false on anything else. */
    static bool parseExportLine(const std::string &line,
                                std::string *key, std::string *payload);

    /** 16-hex-digit FNV-1a of @p key — the entry address. Exposed for
     *  tests and external tooling. */
    static std::string keyHash(const std::string &key);

  private:
    /** <root>/<hh>/<14-hex>.json for @p key. */
    std::string entryPath(const std::string &key) const;

    /** Read + validate one entry file, counted in entryParses; fills
     *  key/payload on success. Returns false for unreadable or corrupt
     *  entries (*corrupt set true when the contents are malformed
     *  rather than missing). */
    bool readEntryCounted(const std::string &path, std::string *key,
                          std::string *payload, bool *corrupt) const;

    /** Move a failed entry aside as <path>.corrupt (best effort). */
    void quarantine(const std::string &path);

    /** Record "used now" in the entry's atime sidecar (best effort). */
    static void touchSidecar(const std::string &entry_path);

    std::string _root;

    mutable std::atomic<std::uint64_t> _hits{0};
    mutable std::atomic<std::uint64_t> _misses{0};
    mutable std::atomic<std::uint64_t> _publishes{0};
    mutable std::atomic<std::uint64_t> _bytesRead{0};
    mutable std::atomic<std::uint64_t> _bytesWritten{0};
    mutable std::atomic<std::uint64_t> _quarantined{0};
    mutable std::atomic<std::uint64_t> _entryParses{0};
    std::atomic<std::uint64_t> _tmpSeq{0};
};

} // namespace store
} // namespace simalpha

#endif // SIMALPHA_STORE_STORE_HH
