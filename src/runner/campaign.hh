/**
 * @file
 * Campaign specifications: the (machine × workload) grids behind the
 * paper's Tables 2–5, expressed as flat lists of cells an
 * ExperimentRunner can execute in any order.
 *
 * A cell is fully self-describing — machine name, Table-5 optimization,
 * workload name, instruction limit, and RNG seed — so executing it
 * needs no shared state beyond the immutable workload catalogue and
 * the programs built from it, which is what makes parallel campaigns
 * bit-identical to serial ones.
 */

#ifndef SIMALPHA_RUNNER_CAMPAIGN_HH
#define SIMALPHA_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "inject/inject.hh"
#include "isa/isa.hh"
#include "validate/machines.hh"

namespace simalpha {
namespace runner {

/** One (machine × workload) experiment of a campaign. */
struct Cell
{
    std::string machine;
    validate::Optimization opt = validate::Optimization::None;
    std::string workload;
    /** Committed-instruction cap (0 = run to completion). */
    std::uint64_t maxInsts = 0;
    /**
     * Seed of the cell's private RNG. 0 means "derive from the cell
     * identity" (see cellSeed()); either way every execution of the
     * same cell sees the same stream.
     */
    std::uint64_t seed = 0;
    /**
     * Sampled execution: when enabled, the cell is measured as
     * checkpoint-restored detailed windows instead of one contiguous
     * detailed run, and the result carries a sampling-error bar. A
     * disabled spec (the default) leaves the cell — and its journal
     * key, cache key, and seed — exactly as before.
     */
    checkpoint::SampleSpec sample;
    /**
     * Soft-error injection: when enabled, the cell runs with one
     * planned bit flip armed and its result carries the outcome
     * classification against the uninjected golden run. A disabled
     * spec (the default) leaves the cell — and its journal key,
     * cache key, and seed — exactly as before.
     */
    inject::StateInjection inject;
};

/** A named list of cells, executed together. */
struct CampaignSpec
{
    std::string name;
    std::vector<Cell> cells;

    /** Apply one instruction cap to every cell (for quick sweeps). */
    CampaignSpec withMaxInsts(std::uint64_t max_insts) const;

    /** Apply one sampling spec to every cell (`--sample ...`). */
    CampaignSpec withSampling(const checkpoint::SampleSpec &spec) const;
};

/** Deterministic per-cell seed derived from the cell identity. */
std::uint64_t cellSeed(const Cell &cell);

/** Manifest hash of the cell's machine under the current build; empty
 *  for unknown machines. Shared by the runner's cache/replay
 *  validation and the supervisor's journal merge. */
std::string cellManifestHash(const Cell &cell);

/** Names of every bundled workload (microbench, SPEC2000 synthetics,
 *  stream kernels, lmbench), in catalogue order. */
std::vector<std::string> workloadNames();

/**
 * Generate a bundled workload by name. Each call builds a fresh
 * Program (generation is deterministic). ExperimentRunner calls it
 * once per workload per run and hands every cell of that workload the
 * same read-only Program, its word list released (WorkloadTable).
 * @return false with *error filled on an unknown name.
 */
bool buildWorkload(const std::string &name, Program *out,
                   std::string *error);

/** Table 2: the 21 microbenchmarks on the given machines (default:
 *  ds10l, sim-initial, sim-alpha, sim-outorder as in the paper). */
CampaignSpec table2Campaign();
CampaignSpec table2Campaign(const std::vector<std::string> &machines);

/** Table 3: the ten SPEC2000 synthetics on ds10l, sim-alpha,
 *  sim-stripped, sim-outorder. */
CampaignSpec table3Campaign();

/** Table 4: the macro suite on sim-alpha and its ten single-feature
 *  ablations. */
CampaignSpec table4Campaign();

/** Table 5: the macro suite across all 13 stability configurations ×
 *  {none, fastl1, bigl1, regs}. */
CampaignSpec table5Campaign();

/** A 12-cell capped microbenchmark grid on sim-outorder — a campaign
 *  that finishes in well under a second, for isolation-mode smoke
 *  tests and fault drills (`simalpha --campaign smoke`). */
CampaignSpec smokeCampaign();

/** The DRAM-policy sweep (§4.2 as an experiment axis): the ten SPEC2000
 *  synthetics on sim-alpha under every DRAM backend, classic spelled
 *  explicitly so the sweep axis reads off the machine column. Cap with
 *  --max-insts for interactive runs. */
CampaignSpec dramSweepCampaign();

/**
 * A vulnerability campaign: one (machine, workload, cap) identity
 * fanned out over `cells` single-bit injections planned from `seed`
 * across `targets`. The campaign name encodes every parameter, so
 * process shards (which receive only the name) re-derive an identical
 * plan — the same trick sampled campaigns use for their SampleSpec.
 */
struct VulnSpec
{
    std::string machine = "sim-outorder";
    std::string workload;
    /** Committed-instruction cap of the golden run (must be > 0, and
     *  large enough that the workload finishes under it). */
    std::uint64_t maxInsts = 0;
    /** Number of injection cells. */
    std::uint64_t cells = 0;
    /** Plan seed (0 folds to 1 inside the generator). */
    std::uint64_t seed = 0;
    /** Structures to strike, round-robin (empty = all targets). */
    std::vector<inject::Target> targets;
};

/** "vuln:<machine>:<workload>:<maxInsts>:<cells>:<seed>:<t1+t2+..>". */
std::string vulnCampaignName(const VulnSpec &spec);

/** Parse vulnCampaignName() output; false with *error filled with
 *  the reason, which leaves the name to the caller. */
bool parseVulnCampaignName(const std::string &name, VulnSpec *out,
                           std::string *error);

/** Build the campaign: `cells` injection cells (deterministic plan)
 *  named by vulnCampaignName(spec). */
CampaignSpec vulnCampaign(const VulnSpec &spec);

/**
 * "shard:<i>/<n>:<base>" — deterministic slice i of base campaign
 * <base> partitioned round-robin over n shards (shardSlice(), the
 * assignment a fresh process-isolation run gives its workers). The
 * returned spec keeps the *base* campaign name, so journal lines
 * produced by a shard are byte-identical to the lines the single-host
 * run writes for those cells — which is what lets a fleet dispatcher merge
 * per-worker shard journals into a master journal indistinguishable
 * from a local run. <base> may itself contain colons (vuln: specs).
 */
std::string shardCampaignName(const std::string &base, std::size_t index,
                              std::size_t count);

/** Parse shardCampaignName() output; false with *error filled with
 *  the reason, which leaves the name to the caller. */
bool parseShardCampaignName(const std::string &name, std::size_t *index,
                            std::size_t *count, std::string *base,
                            std::string *error);

/** Campaign by name ("table2".."table5", "smoke", "dramsweep", a
 *  "vuln:..." spec, or a "shard:<i>/<n>:<base>" slice, nested at most
 *  twice); false on unknown names, with *error (may be null) reading
 *  "unknown campaign '<name>'" and then the name parser's reason or,
 *  for a name no parser claims, the list of known names. */
bool campaignByName(const std::string &name, CampaignSpec *out,
                    std::string *error = nullptr);

/** What the capped campaignByName() made of a name. */
enum class CampaignLookup { Found, Unknown, OverCap };

/** campaignByName() that builds no "vuln:" campaign of more than
 *  @p maxCells cells. A vuln: name declares its count, which can be
 *  any size, so the count is checked before a cell is built: past the
 *  cap the result is OverCap, with the count in *cells. Under a
 *  "shard:" wrapper that is the whole base's count, since the base is
 *  built before it is sliced. The fixed campaigns are small and always
 *  built; *out is only written on Found, *error only on Unknown. */
CampaignLookup campaignByName(const std::string &name,
                              std::uint64_t maxCells, CampaignSpec *out,
                              std::uint64_t *cells,
                              std::string *error = nullptr);

/** The one derivation of a run's spec from its description: the
 *  capped campaignByName(), then @p maxInsts (when nonzero) and
 *  @p sample (when enabled) applied to every cell of a Found spec. */
CampaignLookup
deriveCampaign(const std::string &name, std::uint64_t maxInsts,
               const checkpoint::SampleSpec &sample, CampaignSpec *out,
               std::string *error = nullptr,
               std::uint64_t maxCells =
                   std::numeric_limits<std::uint64_t>::max(),
               std::uint64_t *cells = nullptr);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_CAMPAIGN_HH
