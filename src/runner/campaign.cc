#include "campaign.hh"

#include <limits>

#include "common/number.hh"
#include "runner/shard.hh"
#include "validate/manifest.hh"
#include "workloads/macro.hh"
#include "workloads/membench.hh"
#include "workloads/microbench.hh"

namespace simalpha {
namespace runner {

using validate::Optimization;
using namespace simalpha::workloads;

CampaignSpec
CampaignSpec::withMaxInsts(std::uint64_t max_insts) const
{
    CampaignSpec out = *this;
    for (Cell &cell : out.cells)
        cell.maxInsts = max_insts;
    return out;
}

CampaignSpec
CampaignSpec::withSampling(const checkpoint::SampleSpec &spec) const
{
    CampaignSpec out = *this;
    for (Cell &cell : out.cells)
        cell.sample = spec;
    return out;
}

std::uint64_t
cellSeed(const Cell &cell)
{
    if (cell.seed)
        return cell.seed;
    // FNV-1a over the cell identity, so the seed survives reordering
    // and is stable across runs, campaigns, and thread counts.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](const std::string &s) {
        for (unsigned char ch : s) {
            h ^= ch;
            h *= 0x100000001b3ULL;
        }
        h ^= 0x1F;     // field separator
        h *= 0x100000001b3ULL;
    };
    mix(cell.machine);
    mix(validate::optimizationName(cell.opt));
    mix(cell.workload);
    for (int i = 0; i < 8; i++) {
        h ^= (cell.maxInsts >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ULL;
    }
    // Sampled variants of a cell get their own seed, but a disabled
    // spec must leave the historical seed untouched (golden tables).
    if (cell.sample.enabled()) {
        mix(checkpoint::formatSampleSpec(cell.sample));
    }
    // Same rule for injection: every cell of a vulnerability campaign
    // gets its own seed, plain cells keep their historical one.
    if (cell.inject.enabled()) {
        mix(inject::formatInjectSpec(cell.inject));
    }
    return h ? h : 1;
}

std::string
cellManifestHash(const Cell &cell)
{
    Config config;
    std::string error;
    if (!validate::tryDescribeMachine(cell.machine, cell.opt, &config,
                                      &error))
        return "";
    return validate::manifestHashHex(config);
}

namespace {

/** The spec2000 profile matching a name, if any. */
const MacroProfile *
findProfile(const std::vector<MacroProfile> &profiles,
            const std::string &name)
{
    for (const MacroProfile &p : profiles)
        if (p.name == name)
            return &p;
    return nullptr;
}

/** Direct microbenchmark dispatch (avoids generating the whole suite
 *  for every cell). Names follow microbenchNames(). */
bool
buildMicrobench(const std::string &name, Program *out)
{
    if (name == "C-Ca")
        *out = controlConditionalA();
    else if (name == "C-Cb")
        *out = controlConditionalB();
    else if (name == "C-R")
        *out = controlRecursive();
    else if (name == "C-S1")
        *out = controlSwitch(1);
    else if (name == "C-S2")
        *out = controlSwitch(2);
    else if (name == "C-S3")
        *out = controlSwitch(3);
    else if (name == "C-O")
        *out = controlComplex();
    else if (name == "E-I")
        *out = executeIndependent();
    else if (name == "E-F")
        *out = executeFloat();
    else if (name.rfind("E-D", 0) == 0 && name.size() == 4 &&
             name[3] >= '1' && name[3] <= '6')
        *out = executeDependent(name[3] - '0');
    else if (name == "E-DM1")
        *out = executeDependentMul();
    else if (name == "M-I")
        *out = memoryIndependent();
    else if (name == "M-D")
        *out = memoryDependent();
    else if (name == "M-L2")
        *out = memoryL2();
    else if (name == "M-M")
        *out = memoryMain();
    else if (name == "M-IP")
        *out = memoryInstPrefetch();
    else
        return false;
    return true;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names = microbenchNames();
    for (const MacroProfile &p : spec2000Profiles())
        names.push_back(p.name);
    for (const Program &p : streamSuite(65536, 2))
        names.push_back(p.name);
    names.push_back("lmbench");
    return names;
}

bool
buildWorkload(const std::string &name, Program *out, std::string *error)
{
    if (buildMicrobench(name, out))
        return true;

    auto profiles = spec2000Profiles();
    if (const MacroProfile *p = findProfile(profiles, name)) {
        *out = makeMacro(*p);
        return true;
    }

    for (Program &p : streamSuite(65536, 2)) {
        if (p.name == name) {
            *out = p;
            return true;
        }
    }

    if (name == "lmbench") {
        *out = lmbenchLatency(8192, 64, 30000);
        return true;
    }

    if (error)
        *error = "unknown workload '" + name + "'";
    return false;
}

CampaignSpec
table2Campaign(const std::vector<std::string> &machines)
{
    CampaignSpec spec;
    spec.name = "table2";
    for (const std::string &w : microbenchNames())
        for (const std::string &m : machines)
            spec.cells.push_back({m, Optimization::None, w, 0, 0, {}, {}});
    return spec;
}

CampaignSpec
table2Campaign()
{
    return table2Campaign(
        {"ds10l", "sim-initial", "sim-alpha", "sim-outorder"});
}

CampaignSpec
table3Campaign()
{
    CampaignSpec spec;
    spec.name = "table3";
    for (const MacroProfile &p : spec2000Profiles())
        for (const char *m :
             {"ds10l", "sim-alpha", "sim-stripped", "sim-outorder"})
            spec.cells.push_back(
                {m, Optimization::None, p.name, 0, 0, {}, {}});
    return spec;
}

CampaignSpec
table4Campaign()
{
    CampaignSpec spec;
    spec.name = "table4";
    std::vector<std::string> machines{"sim-alpha"};
    for (const std::string &f : validate::featureNames())
        machines.push_back("sim-alpha-no-" + f);
    for (const MacroProfile &p : spec2000Profiles())
        for (const std::string &m : machines)
            spec.cells.push_back(
                {m, Optimization::None, p.name, 0, 0, {}, {}});
    return spec;
}

CampaignSpec
table5Campaign()
{
    CampaignSpec spec;
    spec.name = "table5";
    const Optimization opts[] = {Optimization::None,
                                 Optimization::FastL1,
                                 Optimization::BigL1,
                                 Optimization::MoreRegs};
    for (const std::string &c : validate::stabilityConfigNames())
        for (Optimization opt : opts)
            for (const MacroProfile &p : spec2000Profiles())
                spec.cells.push_back({c, opt, p.name, 0, 0, {}, {}});
    return spec;
}

CampaignSpec
smokeCampaign()
{
    CampaignSpec spec;
    spec.name = "smoke";
    for (const char *w : {"C-Ca", "C-Cb", "C-R", "C-S1", "C-S2",
                          "C-S3", "C-O", "E-I", "E-D1", "E-D2",
                          "E-D3", "E-D4"})
        spec.cells.push_back(
            {"sim-outorder", Optimization::None, w, 2000, 0, {}, {}});
    return spec;
}

CampaignSpec
dramSweepCampaign()
{
    CampaignSpec spec;
    spec.name = "dramsweep";
    for (const MacroProfile &p : spec2000Profiles())
        for (const char *m :
             {"sim-alpha+dram=classic", "sim-alpha+dram=openpage"})
            spec.cells.push_back(
                {m, Optimization::None, p.name, 0, 0, {}, {}});
    return spec;
}

std::string
vulnCampaignName(const VulnSpec &spec)
{
    std::string name = "vuln:" + spec.machine + ':' + spec.workload +
                       ':' + std::to_string(spec.maxInsts) + ':' +
                       std::to_string(spec.cells) + ':' +
                       std::to_string(spec.seed) + ':';
    const std::vector<inject::Target> &targets =
        spec.targets.empty() ? inject::allTargets() : spec.targets;
    for (std::size_t i = 0; i < targets.size(); i++) {
        if (i)
            name += '+';
        name += inject::targetName(targets[i]);
    }
    return name;
}

bool
parseVulnCampaignName(const std::string &name, VulnSpec *out,
                      std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "vulnerability campaign '" + name + "' " + why +
                     " (expected vuln:<machine>:<workload>:<max-insts>"
                     ":<cells>:<seed>:<target>[+<target>...])";
        return false;
    };

    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        std::size_t colon = name.find(':', start);
        if (colon == std::string::npos) {
            parts.push_back(name.substr(start));
            break;
        }
        parts.push_back(name.substr(start, colon - start));
        start = colon + 1;
    }
    if (parts.size() != 7 || parts[0] != "vuln")
        return fail("is malformed");
    if (parts[1].empty() || parts[2].empty())
        return fail("needs a machine and a workload");

    VulnSpec spec;
    spec.machine = parts[1];
    spec.workload = parts[2];
    if (!parseNumber(parts[3], &spec.maxInsts) || spec.maxInsts == 0)
        return fail("needs a positive max-insts cap");
    if (!parseNumber(parts[4], &spec.cells) || spec.cells == 0)
        return fail("needs a positive cell count");
    if (!parseNumber(parts[5], &spec.seed))
        return fail("has a malformed seed");

    std::string terror;
    if (!inject::parseTargetList(parts[6], &spec.targets, &terror))
        return fail("names " + terror);

    *out = spec;
    return true;
}

CampaignSpec
vulnCampaign(const VulnSpec &spec)
{
    CampaignSpec out;
    VulnSpec full = spec;
    if (full.targets.empty())
        full.targets = inject::allTargets();
    out.name = vulnCampaignName(full);
    // Strike cycles draw from [1, maxInsts]: with IPC ≤ commit width
    // every plausible strike lands inside the golden run's lifetime,
    // and late strikes past halt are naturally masked.
    std::vector<inject::StateInjection> plan = inject::makeInjectionPlan(
        std::size_t(full.cells), full.seed, full.targets, full.maxInsts);
    out.cells.reserve(plan.size());
    for (const inject::StateInjection &injection : plan) {
        Cell cell{full.machine, Optimization::None, full.workload,
                  full.maxInsts, 0, {}, injection};
        out.cells.push_back(std::move(cell));
    }
    return out;
}

std::string
shardCampaignName(const std::string &base, std::size_t index,
                  std::size_t count)
{
    return "shard:" + std::to_string(index) + "/" +
           std::to_string(count) + ":" + base;
}

bool
parseShardCampaignName(const std::string &name, std::size_t *index,
                       std::size_t *count, std::string *base,
                       std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad shard campaign '" + name + "': " + why;
        return false;
    };
    if (name.rfind("shard:", 0) != 0)
        return fail("missing shard: prefix");
    std::size_t slash = name.find('/', 6);
    if (slash == std::string::npos)
        return fail("expected shard:<i>/<n>:<base>");
    // The base name may contain colons (vuln: specs do), so the
    // index/count fields are delimited by the *first* colon after the
    // slash and everything beyond it is the base, verbatim.
    std::size_t colon = name.find(':', slash + 1);
    if (colon == std::string::npos)
        return fail("expected shard:<i>/<n>:<base>");
    std::string indexText = name.substr(6, slash - 6);
    std::string countText = name.substr(slash + 1, colon - slash - 1);
    std::uint64_t i = 0, n = 0;
    if (!parseNumber(indexText, &i))
        return fail("shard index '" + indexText + "' is not a number");
    if (!parseNumber(countText, &n))
        return fail("shard count '" + countText + "' is not a number");
    if (n == 0)
        return fail("shard count must be > 0");
    if (i >= n)
        return fail("shard index " + indexText + " out of range for " +
                    countText + " shards");
    std::string rest = name.substr(colon + 1);
    if (rest.empty())
        return fail("empty base campaign name");
    *index = i;
    *count = n;
    *base = rest;
    return true;
}

namespace {

/** `shard:` levels a name may nest: a fleet in front of a `shard:`
 *  name needs two. Any deeper name is unknown, so a hostile name
 *  costs a few copies of itself, not one per level. */
constexpr int kMaxShardNesting = 2;

CampaignLookup
lookupCampaign(const std::string &name, std::uint64_t maxCells,
               CampaignSpec *out, std::uint64_t *cells, int shardLevels)
{
    if (name.rfind("shard:", 0) == 0) {
        if (shardLevels == kMaxShardNesting)
            return CampaignLookup::Unknown;
        std::size_t index = 0;
        std::size_t count = 0;
        std::string base;
        std::string error;
        if (!parseShardCampaignName(name, &index, &count, &base, &error))
            return CampaignLookup::Unknown;
        CampaignSpec whole;
        const CampaignLookup found =
            lookupCampaign(base, maxCells, &whole, cells, shardLevels + 1);
        if (found != CampaignLookup::Found)
            return found;
        CampaignSpec sliced;
        // Keep the base name: shard journal lines must be the bytes
        // the single-host run writes (see shardCampaignName()).
        sliced.name = whole.name;
        for (std::size_t c : shardSlice(whole.cells.size(), index, count))
            sliced.cells.push_back(whole.cells[c]);
        *out = std::move(sliced);
        return CampaignLookup::Found;
    }
    if (name.rfind("vuln:", 0) == 0) {
        VulnSpec spec;
        std::string error;
        if (!parseVulnCampaignName(name, &spec, &error))
            return CampaignLookup::Unknown;
        if (spec.cells > maxCells) {
            if (cells)
                *cells = spec.cells;
            return CampaignLookup::OverCap;
        }
        *out = vulnCampaign(spec);
        return CampaignLookup::Found;
    }
    if (name == "table2")
        *out = table2Campaign();
    else if (name == "table3")
        *out = table3Campaign();
    else if (name == "table4")
        *out = table4Campaign();
    else if (name == "table5")
        *out = table5Campaign();
    else if (name == "smoke")
        *out = smokeCampaign();
    else if (name == "dramsweep")
        *out = dramSweepCampaign();
    else
        return CampaignLookup::Unknown;
    return CampaignLookup::Found;
}

} // namespace

CampaignLookup
campaignByName(const std::string &name, std::uint64_t maxCells,
               CampaignSpec *out, std::uint64_t *cells)
{
    return lookupCampaign(name, maxCells, out, cells, 0);
}

bool
campaignByName(const std::string &name, CampaignSpec *out)
{
    return campaignByName(name, std::numeric_limits<std::uint64_t>::max(),
                          out, nullptr) == CampaignLookup::Found;
}

} // namespace runner
} // namespace simalpha
