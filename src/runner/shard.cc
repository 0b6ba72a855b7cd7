#include "shard.hh"

#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/json.hh"
#include "common/names.hh"
#include "common/number.hh"
#include "runner/journal.hh"

namespace simalpha {
namespace runner {

std::vector<std::vector<std::size_t>>
shardCells(std::size_t cellCount, std::size_t shardCount)
{
    std::vector<std::vector<std::size_t>> shards(std::max<std::size_t>(
        shardCount, 1));
    for (std::size_t i = 0; i < shards.size(); i++)
        shards[i] = shardSlice(cellCount, i, shards.size());
    return shards;
}

std::vector<std::size_t>
shardSlice(std::size_t cellCount, std::size_t index, std::size_t shardCount)
{
    std::vector<std::size_t> cells;
    // Stop before c + shardCount could pass cellCount (or wrap).
    for (std::size_t c = index; c < cellCount; c += shardCount) {
        cells.push_back(c);
        if (shardCount >= cellCount - c)
            break;
    }
    return cells;
}

std::string
formatCellList(const std::vector<std::size_t> &cells)
{
    std::string out;
    for (std::size_t i = 0; i < cells.size(); i++) {
        if (i)
            out += ',';
        out += std::to_string(cells[i]);
    }
    return out;
}

bool
parseCellList(const std::string &text, std::vector<std::size_t> *out,
              std::string *error)
{
    out->clear();
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);
        std::uint64_t index = 0;
        if (!parseNumber(item, &index)) {
            if (error)
                *error = "bad cell index '" + item + "' in '" + text +
                         "'";
            return false;
        }
        out->push_back(index);
        pos = end + 1;
    }
    if (out->empty()) {
        if (error)
            *error = "empty cell list";
        return false;
    }
    return true;
}

namespace {

/** The one kind⇄name table: format, parse, and every error message
 *  listing the valid kinds derive from it (the injection-spec parser
 *  in src/inject/ builds its target table the same way). */
constexpr EnumName<FaultInjection::Kind> kFaultKinds[] = {
    {FaultInjection::Kind::Panic, "panic"},
    {FaultInjection::Kind::Stall, "stall"},
    {FaultInjection::Kind::Throw, "throw"},
    {FaultInjection::Kind::Abort, "abort"},
    {FaultInjection::Kind::Segfault, "segfault"},
    {FaultInjection::Kind::Hang, "hang"},
};

const char *
faultKindName(FaultInjection::Kind kind)
{
    return enumName(kFaultKinds, kind, "throw");
}

bool
faultKindByName(const std::string &name, FaultInjection::Kind *out)
{
    return enumByName(kFaultKinds, name, out);
}

} // namespace

std::string
formatFaultSpec(const FaultInjection &fault)
{
    std::string out = std::to_string(fault.cellIndex);
    out += ':';
    out += faultKindName(fault.kind);
    if (fault.times >= 0) {
        out += ':';
        out += std::to_string(fault.times);
    }
    return out;
}

bool
parseFaultSpec(const std::string &text, FaultInjection *out,
               std::string *error)
{
    std::size_t c1 = text.find(':');
    if (c1 == std::string::npos || c1 == 0) {
        if (error)
            *error = "fault spec '" + text +
                     "' is not <cell>:<kind>[:<times>] (kinds: " +
                     enumNameList(kFaultKinds) + ")";
        return false;
    }
    FaultInjection fault;
    std::uint64_t index = 0;
    if (!parseNumber(text.substr(0, c1), &index)) {
        if (error)
            *error = "bad cell index in fault spec '" + text + "'";
        return false;
    }
    fault.cellIndex = index;
    std::size_t c2 = text.find(':', c1 + 1);
    std::string kind = text.substr(
        c1 + 1, c2 == std::string::npos ? std::string::npos
                                        : c2 - c1 - 1);
    if (!faultKindByName(kind, &fault.kind)) {
        if (error)
            *error = "unknown fault kind '" + kind + "' (kinds: " +
                     enumNameList(kFaultKinds) + ")";
        return false;
    }
    if (c2 != std::string::npos &&
        (!parseNumber(text.substr(c2 + 1), &fault.times) ||
         fault.times < 0)) {
        if (error)
            *error = "bad times in fault spec '" + text + "'";
        return false;
    }
    *out = fault;
    return true;
}

std::string
heartbeatLine(const std::string &campaign, std::size_t cellIndex,
              const std::string &workload)
{
    std::string line = "{\"campaign\":\"";
    line += json::escape(campaign);
    line += "\",\"heartbeat\":\"start\",\"cell\":";
    line += std::to_string(cellIndex);
    line += ",\"workload\":\"";
    line += json::escape(workload);
    line += "\"}";
    return line;
}

bool
parseHeartbeatLine(const std::string &line, const std::string &campaign,
                   std::size_t *cellIndex)
{
    json::Value v;
    std::string lineCampaign, heartbeat, workload;
    std::uint64_t cell = 0;
    if (!json::parse(line, &v, nullptr) ||
        !json::field(v, "campaign", &lineCampaign, nullptr, true) ||
        !json::field(v, "heartbeat", &heartbeat, nullptr, true) ||
        !json::field(v, "cell", &cell, nullptr, true) ||
        !json::field(v, "workload", &workload, nullptr) ||
        lineCampaign != campaign || heartbeat != "start")
        return false;
    *cellIndex = cell;
    return true;
}

std::string
storeSummaryLine(const std::string &campaign,
                 const StoreTraffic &traffic)
{
    std::string line = "{\"campaign\":\"";
    line += json::escape(campaign);
    line += "\",\"store_summary\":{\"hits\":";
    line += std::to_string(traffic.hits);
    line += ",\"misses\":";
    line += std::to_string(traffic.misses);
    line += ",\"bytes_read\":";
    line += std::to_string(traffic.bytesRead);
    line += ",\"bytes_written\":";
    line += std::to_string(traffic.bytesWritten);
    line += "}}";
    return line;
}

bool
parseStoreSummaryLine(const std::string &line,
                      const std::string &campaign, StoreTraffic *out)
{
    json::Value v;
    std::string lineCampaign;
    StoreTraffic t;
    const json::Value *summary = nullptr;
    if (!json::parse(line, &v, nullptr) ||
        !json::field(v, "campaign", &lineCampaign, nullptr, true) ||
        lineCampaign != campaign ||
        !json::field(v, "store_summary", &summary, nullptr, true) ||
        !json::field(*summary, "hits", &t.hits, nullptr, true) ||
        !json::field(*summary, "misses", &t.misses, nullptr, true) ||
        !json::field(*summary, "bytes_read", &t.bytesRead, nullptr,
                     true) ||
        !json::field(*summary, "bytes_written", &t.bytesWritten, nullptr,
                     true))
        return false;
    *out = t;
    return true;
}

double
respawnBackoffSeconds(double baseSeconds, int respawnsUsed,
                      std::uint64_t shardId)
{
    if (respawnsUsed < 0)
        respawnsUsed = 0;
    if (respawnsUsed > 30)
        respawnsUsed = 30;      // 2^30 * base already means "give up"
    double delay =
        baseSeconds * double(std::uint64_t(1) << respawnsUsed);
    // SplitMix64 over (shardId, respawnsUsed) → a uniform factor in
    // [0.75, 1.25): pure, so every supervisor computes the same delay
    // for the same (shard, attempt), but no two shards share one.
    std::uint64_t z =
        shardId * 0x9E3779B97F4A7C15ULL + std::uint64_t(respawnsUsed);
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    double unit = double(z >> 11) * (1.0 / 9007199254740992.0);
    return delay * (0.75 + 0.5 * unit);
}

bool
describeWaitStatus(int waitStatus, std::string *errorClass,
                   std::string *message)
{
    if (WIFEXITED(waitStatus)) {
        int code = WEXITSTATUS(waitStatus);
        if (code == 0) {
            errorClass->clear();
            message->clear();
            return true;
        }
        *errorClass = "crash";
        *message = "worker exited with status " +
                   std::to_string(code) +
                   " without completing its cells";
        return false;
    }
    if (WIFSIGNALED(waitStatus)) {
        int sig = WTERMSIG(waitStatus);
        const char *name = strsignal(sig);
        *errorClass = "crash";
        *message = "worker killed by signal " + std::to_string(sig) +
                   " (" + (name ? name : "unknown") + ")";
        return false;
    }
    *errorClass = "crash";
    *message = "worker vanished with unintelligible wait status " +
               std::to_string(waitStatus);
    return false;
}

std::vector<std::string>
manifestHashes(const CampaignSpec &spec)
{
    std::map<std::pair<std::string, validate::Optimization>, std::string>
        memo;
    std::vector<std::string> out;
    for (const Cell &cell : spec.cells) {
        auto [it, fresh] = memo.try_emplace({cell.machine, cell.opt});
        if (fresh)
            it->second = cellManifestHash(cell);
        out.push_back(it->second);
    }
    return out;
}

void
mergeShardJournals(const CampaignSpec &spec,
                   const std::vector<std::string> &journalPaths,
                   CampaignResult *out,
                   std::vector<std::size_t> *missing,
                   std::vector<std::string> *lines,
                   const std::vector<std::string> *hashes)
{
    std::vector<std::string> computed;
    if (!hashes) {
        computed = manifestHashes(spec);
        hashes = &computed;
    }
    std::vector<std::string> keys;
    std::unordered_map<std::string, std::size_t> cellByKey;
    for (std::size_t i = 0; i < spec.cells.size(); i++) {
        keys.push_back(journalKey(spec.cells[i]));
        cellByKey.emplace(keys.back(), i);
    }

    // Each line is manifest-checked before newest-wins (within a
    // journal, then later journal over earlier), so a stale line never
    // hides a current one. Unknown machines journal an empty manifest
    // hash, so empty==empty correctly merges still-unknown machines.
    std::unordered_map<std::string, std::pair<CellResult, std::string>>
        byKey;
    for (const std::string &path : journalPaths)
        readJournal(
            path, spec.name,
            [&](const std::string &key, CellResult &r,
                const std::string &line) {
                auto it = cellByKey.find(key);
                if (it != cellByKey.end() &&
                    r.manifestHash == (*hashes)[it->second])
                    byKey[key] = {std::move(r), line};
            },
            nullptr);

    out->campaign = spec.name;
    out->cells.assign(spec.cells.size(), CellResult());
    if (missing)
        missing->clear();
    if (lines)
        lines->assign(spec.cells.size(), std::string());
    for (std::size_t i = 0; i < spec.cells.size(); i++) {
        const Cell &cell = spec.cells[i];
        auto it = byKey.find(keys[i]);
        if (it != byKey.end()) {
            out->cells[i] = it->second.first;
            out->cells[i].cell = cell;  // identity of *this* cell
            if (lines)
                (*lines)[i] = it->second.second;
            continue;
        }
        out->cells[i].cell = cell;
        out->cells[i].seed = cellSeed(cell);
        if (missing)
            missing->push_back(i);
    }
}

int
runShardWorker(const ShardWorkerOptions &options)
{
    CampaignSpec spec;
    if (!campaignByName(options.campaign, &spec))
        return 2;
    if (options.maxInsts)
        spec = spec.withMaxInsts(options.maxInsts);
    if (options.sample.enabled())
        spec = spec.withSampling(options.sample);

    // The slice runs as one sub-spec through one runner, so its cells
    // share one program and one sampled-window set per workload, as in
    // a thread run. Faults name campaign indices, and so does the
    // runner, through the slice's campaignIndices.
    CampaignSpec slice;
    slice.name = spec.name;
    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ro.storePath = options.storePath;
    ro.maxRetries = options.maxRetries;
    ro.faults = options.faults;
    ro.campaignIndices = options.cells;
    for (std::size_t index : options.cells) {
        if (index >= spec.cells.size())
            return 2;
        slice.cells.push_back(spec.cells[index]);
    }

    // One append-only slice journal: a heartbeat before each cell, its
    // result line after, each one write(2) through CampaignJournal, so
    // the file is a strict start/result alternation. At jobs 1 onCell
    // fires on this thread as each cell settles, before the next
    // starts, so it writes the result and then the next heartbeat. The
    // interrupt flag is read only before a heartbeat: once set, no
    // further cell starts.
    CampaignJournal journal;
    if (!journal.open(options.journalPath, nullptr, options.journalSync))
        return 2;
    std::atomic<bool> stopped{false};
    auto start = [&](std::size_t pos) {
        if (options.interrupted && options.interrupted->load())
            stopped = true;
        else
            journal.appendRaw(heartbeatLine(spec.name, options.cells[pos],
                                            slice.cells[pos].workload));
    };
    std::size_t settled = 0;
    ro.cancel = &stopped;
    ro.onCell = [&](const CellResult &r) {
        journal.append(spec.name, r);
        if (++settled < slice.cells.size())
            start(settled);
    };

    ExperimentRunner rnr(ro);
    if (!slice.cells.empty())
        start(0);
    rnr.run(slice);

    // Store traffic is reported as one summary line when the worker
    // stops — normally or on interrupt. (A crashed worker reports
    // nothing; its respawn re-reports the cells it reruns, and cells it
    // completed before crashing are counted by whoever served or
    // published them.)
    if (!options.storePath.empty()) {
        store::StoreCounters c = rnr.storeCounters();
        journal.appendRaw(storeSummaryLine(
            spec.name, {c.hits, c.misses, c.bytesRead, c.bytesWritten}));
    }
    return stopped ? 3 : 0;
}

} // namespace runner
} // namespace simalpha
