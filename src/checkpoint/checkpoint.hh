/**
 * @file
 * Checkpointed, sampled simulation: the subsystem that retires the
 * instruction caps on the detailed tables.
 *
 * The functional emulator executes ~3 orders of magnitude faster than
 * the detailed core (BENCH_perf.json), so a long workload is simulated
 * the way the paper's §2.3 sampling-error methodology assumes: fast-
 * forward architecturally, snapshot the architectural state at
 * planned offsets, and run the detailed model only on short
 * measurement windows restored from those checkpoints — each warmed up
 * before measurement, the per-window IPCs aggregated into a mean and a
 * Student-t confidence interval that campaigns surface as an explicit
 * sampling-error bar.
 *
 * Checkpoints are architectural state only (registers, PC, retired-
 * instruction count, and the memory words that differ from the
 * program's initial data image) and therefore machine-independent:
 * every timing model restores from the same state. They live in
 * memory only: the first sampled cell of a (workload, cap, spec) in a
 * run fast-forwards and snapshots each planned window, the run's other
 * cells of that triple restore from the same set, and no checkpoint is
 * persisted. Restoring one costs the shared image plus the few words
 * the program wrote.
 *
 * The store-backed half of this file — the ckpt1 blob codec, the
 * ckpt|/ckpt-meta| keys, collectCheckpoints' store branch and
 * touchPlannedCheckpoints — is no longer called by the runner. It is
 * kept for the store API and for campaignbench's link-time wrappers,
 * which name these symbols; stores written by older builds still hold
 * such entries, which nothing reads and gc ages out.
 */

#ifndef SIMALPHA_CHECKPOINT_CHECKPOINT_HH
#define SIMALPHA_CHECKPOINT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/emulator.hh"
#include "store/store.hh"

namespace simalpha {
namespace checkpoint {

// -------------------------------------------------------------------
// Serialization: one checkpoint ⇄ one single-line text blob
// -------------------------------------------------------------------

/**
 * Serialize a checkpoint as one line of text (the store's publish()
 * rejects embedded newlines, so the format is a line by construction):
 *
 *   ckpt1 pc=<hex> seq=<dec> halted=<0|1> regs=<64 hex words> \
 *       mem=<addr:word;...>
 *
 * Memory words are sorted by address, so equal states serialize to
 * equal bytes regardless of page-table iteration order.
 */
std::string serializeCheckpoint(const Checkpoint &ckpt);

/** Parse serializeCheckpoint() output. Returns false with *error
 *  filled on any malformed input (wrong magic, bad field, trailing
 *  garbage) — a corrupt blob must read as a miss, never as state. */
bool parseCheckpoint(const std::string &text, Checkpoint *out,
                     std::string *error);

// -------------------------------------------------------------------
// Store keying: program content hash × instruction offset
// -------------------------------------------------------------------

/**
 * FNV-1a content hash of a program (name, entry PC, every text
 * instruction, every initial data word). Checkpoints hold pure
 * architectural state, so they are keyed by the *workload's* identity
 * rather than any machine manifest — the same blob warms a sim-alpha
 * window and a sim-outorder window alike. A program whose words were
 * released (Program::releaseData) fails its sim_assert.
 */
std::uint64_t programHash(const Program &program);

/** Store key of the checkpoint at @p insts retired instructions. */
std::string checkpointKey(const Program &program, std::uint64_t insts);

/** Store key of the fast-forward metadata for @p program capped at
 *  @p maxInsts (see FastForwardInfo). */
std::string metaKey(const Program &program, std::uint64_t maxInsts);

/** What one emulator fast-forward learned about a workload: how long
 *  it runs under a cap, and whether it halted before the cap. */
struct FastForwardInfo
{
    std::uint64_t totalInsts = 0;
    bool finished = false;      ///< program halted before the cap
};

/** One line: "ffwd1 total=<dec> finished=<0|1>". */
std::string serializeMeta(const FastForwardInfo &info);
bool parseMeta(const std::string &text, FastForwardInfo *out);

// -------------------------------------------------------------------
// Sampling specification and window planning
// -------------------------------------------------------------------

/** The `--sample windows=N,len=K,warmup=W` triple. Zero windows (the
 *  default) means conventional, unsampled execution. */
struct SampleSpec
{
    std::uint64_t windows = 0;  ///< detailed measurement windows
    std::uint64_t len = 0;      ///< measured instructions per window
    std::uint64_t warmup = 0;   ///< warm-up instructions per window

    bool enabled() const { return windows > 0; }

    bool
    operator==(const SampleSpec &o) const
    {
        return windows == o.windows && len == o.len &&
               warmup == o.warmup;
    }
    bool operator!=(const SampleSpec &o) const { return !(*this == o); }
};

/** Parse "windows=N,len=K,warmup=W" (warmup optional, default 0).
 *  Returns false with *error filled on malformed text or a spec with
 *  windows>0 but len==0. */
bool parseSampleSpec(const std::string &text, SampleSpec *out,
                     std::string *error);

/** Canonical text form, parseable by parseSampleSpec(). */
std::string formatSampleSpec(const SampleSpec &spec);

/** One planned measurement window. */
struct WindowPlan
{
    std::uint64_t checkpointAt = 0; ///< restore offset (insts retired)
    std::uint64_t warmup = 0;       ///< insts to warm after restore
    std::uint64_t measure = 0;      ///< insts measured after warm-up
};

/**
 * Deterministically place measurement windows over a workload of
 * @p totalInsts instructions: window starts are evenly spaced, each
 * preceded by min(spec.warmup, start) warm-up instructions, and the
 * final window is clamped to the end of the run. Windows that would
 * start at or beyond totalInsts are dropped, so short workloads yield
 * fewer (possibly overlapping-free) windows than requested rather
 * than empty measurements.
 */
std::vector<WindowPlan> planWindows(std::uint64_t totalInsts,
                                    const SampleSpec &spec);

// -------------------------------------------------------------------
// Fast-forward + checkpoint collection
// -------------------------------------------------------------------

/**
 * Run the functional emulator to at most @p maxInsts (0 = to halt)
 * and report the workload length under that cap. Cheap relative to
 * any detailed window (~25M insts/s).
 */
FastForwardInfo fastForward(const Program &program,
                            std::uint64_t maxInsts);

/**
 * Produce the checkpoints at the given retired-instruction offsets
 * (ascending or not — they are sorted internally, duplicates served
 * once) in one emulator fast-forward pass. The runner passes no
 * store. Given one, present entries are restored from disk, the pass
 * resumes from the nearest preceding hit, and generated checkpoints
 * are published back — kept for the store API and campaignbench.
 * Blobs that older builds stored under these keys hold full state,
 * not a delta, so this branch must not be pointed at such a store.
 *
 * @p out receives one checkpoint per *requested* offset, in request
 * order. Returns false with *error filled only on invariant-grade
 * failures (an offset beyond the program's halt).
 */
bool collectCheckpoints(const Program &program,
                        const std::vector<std::uint64_t> &offsets,
                        store::ResultStore *store,
                        std::vector<Checkpoint> *out,
                        std::string *error);

/**
 * Refresh the store's last-use sidecars for every entry a sampled
 * cell with this plan would read (the meta entry and each window's
 * checkpoint), without reading the blobs. The runner no longer calls
 * it, since sampled cells persist no checkpoints; it is kept for the
 * store API and campaignbench's link.
 * @return entries actually present and touched.
 */
std::size_t touchPlannedCheckpoints(const Program &program,
                                    std::uint64_t maxInsts,
                                    const SampleSpec &spec,
                                    store::ResultStore *store);

// -------------------------------------------------------------------
// Sample statistics
// -------------------------------------------------------------------

/** Mean ± 95% confidence interval of per-window IPC samples. */
struct SampleStats
{
    std::uint64_t n = 0;
    double mean = 0.0;
    double stddev = 0.0;    ///< sample standard deviation (n-1)
    double ciHalf = 0.0;    ///< t_{0.975,n-1} * stddev / sqrt(n)
};

/** Closed-form two-sided 95% Student-t critical value for @p df
 *  degrees of freedom (table for 1..30, 1.960 beyond). */
double tCritical95(std::uint64_t df);

/** Compute SampleStats over @p samples (n<2 yields zero spread). */
SampleStats sampleStats(const std::vector<double> &samples);

} // namespace checkpoint
} // namespace simalpha

#endif // SIMALPHA_CHECKPOINT_CHECKPOINT_HH
