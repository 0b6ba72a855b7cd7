#include "artifacts.hh"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "validate/metrics.hh"

namespace simalpha {
namespace runner {

std::string
fixed6(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

namespace {

std::string
displayMachine(const CellResult &r)
{
    std::string m = r.cell.machine;
    if (r.cell.opt != validate::Optimization::None)
        m.append("+").append(validate::optimizationName(r.cell.opt));
    return m;
}

/** Match key for diffing: the full cell identity. */
std::string
identityKey(const CellResult &r)
{
    return r.cell.machine + '\x1f' +
           validate::optimizationName(r.cell.opt) + '\x1f' +
           r.cell.workload + '\x1f' +
           std::to_string(r.cell.maxInsts) + '\x1f' +
           std::to_string(r.seed);
}

} // namespace

std::string
toJson(const CampaignResult &result)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"campaign\": \"" << json::escape(result.campaign)
       << "\",\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        const CellResult &r = result.cells[i];
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"machine\": \"" << json::escape(r.cell.machine)
           << "\",\n";
        os << "      \"optimization\": \""
           << validate::optimizationName(r.cell.opt) << "\",\n";
        os << "      \"workload\": \"" << json::escape(r.cell.workload)
           << "\",\n";
        os << "      \"max_insts\": " << r.cell.maxInsts << ",\n";
        os << "      \"seed\": " << r.seed << ",\n";
        os << "      \"ok\": " << (r.ok ? "true" : "false") << ",\n";
        os << "      \"error\": \"" << json::escape(r.error) << "\",\n";
        os << "      \"error_class\": \"" << json::escape(r.errorClass)
           << "\",\n";
        os << "      \"cycles\": " << r.cycles << ",\n";
        os << "      \"insts\": " << r.instsCommitted << ",\n";
        os << "      \"finished\": " << (r.finished ? "true" : "false")
           << ",\n";
        os << "      \"ipc\": " << fixed6(r.ipc()) << ",\n";
        os << "      \"cpi\": " << fixed6(r.cpi()) << ",\n";
        // Sampling fields only on sampled cells: unsampled campaigns
        // (the golden tables) keep their exact historical bytes.
        if (r.cell.sample.enabled()) {
            os << "      \"sample\": \""
               << checkpoint::formatSampleSpec(r.cell.sample)
               << "\",\n";
            os << "      \"sample_windows\": " << r.sampleWindows
               << ",\n";
            os << "      \"sample_total_insts\": "
               << r.sampleTotalInsts << ",\n";
            os << "      \"sample_ipc_mean\": "
               << fixed6(r.sampleIpcMean) << ",\n";
            os << "      \"sample_ipc_stddev\": "
               << fixed6(r.sampleIpcStddev) << ",\n";
            os << "      \"sample_ipc_ci\": " << fixed6(r.sampleIpcCi)
               << ",\n";
        }
        // Injection fields likewise: only injected cells carry them.
        if (r.cell.inject.enabled()) {
            os << "      \"inject\": \""
               << inject::formatInjectSpec(r.cell.inject) << "\",\n";
            os << "      \"inject_outcome\": \""
               << json::escape(r.injectOutcome) << "\",\n";
            os << "      \"inject_detail\": \""
               << json::escape(r.injectDetail) << "\",\n";
        }
        os << "      \"manifest_hash\": \"" << r.manifestHash
           << "\",\n";
        os << "      \"counters\": {";
        bool first = true;
        for (const auto &kv : r.counters) {
            os << (first ? "\n" : ",\n");
            os << "        \"" << json::escape(kv.first)
               << "\": " << kv.second;
            first = false;
        }
        os << (first ? "}" : "\n      }") << "\n";
        os << "    }";
    }
    os << "\n  ]\n";
    os << "}\n";
    return os.str();
}

std::string
toCsv(const CampaignResult &result)
{
    // Injection columns appear only when some cell injected, so the
    // CSVs of every pre-injection campaign keep their exact bytes
    // (the golden-table artifacts are compared byte-for-byte).
    bool injected = false;
    for (const CellResult &r : result.cells)
        injected = injected || r.cell.inject.enabled();

    std::ostringstream os;
    os << "machine,optimization,workload,max_insts,seed,ok,error,"
          "error_class,cycles,insts,finished,ipc,cpi,manifest_hash,"
          "sample,sample_windows,sample_total_insts,sample_ipc_mean,"
          "sample_ipc_stddev,sample_ipc_ci";
    if (injected)
        os << ",inject,inject_outcome,inject_detail";
    os << "\n";
    for (const CellResult &r : result.cells) {
        // Free-form text may contain commas; quote it.
        auto quote = [](const std::string &s) {
            std::string quoted = "\"";
            for (char c : s)
                quoted += (c == '"') ? "\"\"" : std::string(1, c);
            quoted += "\"";
            return quoted;
        };
        os << r.cell.machine << ','
           << validate::optimizationName(r.cell.opt) << ','
           << r.cell.workload << ',' << r.cell.maxInsts << ','
           << r.seed << ',' << (r.ok ? 1 : 0) << ','
           << quote(r.error) << ','
           << r.errorClass << ','
           << r.cycles << ',' << r.instsCommitted << ','
           << (r.finished ? 1 : 0) << ',' << fixed6(r.ipc()) << ','
           << fixed6(r.cpi()) << ',' << r.manifestHash << ','
           << (r.cell.sample.enabled()
                   ? checkpoint::formatSampleSpec(r.cell.sample)
                   : std::string())
           << ',' << r.sampleWindows << ',' << r.sampleTotalInsts
           << ',' << fixed6(r.sampleIpcMean) << ','
           << fixed6(r.sampleIpcStddev) << ','
           << fixed6(r.sampleIpcCi);
        if (injected)
            os << ','
               << (r.cell.inject.enabled()
                       ? inject::formatInjectSpec(r.cell.inject)
                       : std::string())
               << ',' << r.injectOutcome << ','
               << quote(r.injectDetail);
        os << "\n";
    }
    return os.str();
}

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string *error)
{
    // The temporary lives in the target's directory so the final
    // rename(2) never crosses a filesystem and is atomic.
    std::string tmp =
        path + ".tmp." + std::to_string(long(::getpid()));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot open '" + tmp + "' for writing";
        return false;
    }
    out << content;
    out.close();
    if (!out) {
        std::remove(tmp.c_str());
        if (error)
            *error = "write to '" + tmp + "' failed";
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        return false;
    }
    return true;
}

bool
writeArtifact(const CampaignResult &result, const std::string &path,
              std::string *error)
{
    bool csv = path.size() >= 4 &&
               path.compare(path.size() - 4, 4, ".csv") == 0;
    return writeFileAtomic(path, csv ? toCsv(result) : toJson(result),
                           error);
}

std::vector<CellDiff>
diffCampaigns(const CampaignResult &a, const CampaignResult &b)
{
    std::vector<CellDiff> diffs;

    auto describe = [](const CellResult &r, const std::string &field,
                       const std::string &va, const std::string &vb) {
        return CellDiff{r.cell.machine,
                        validate::optimizationName(r.cell.opt),
                        r.cell.workload, field, va, vb};
    };

    std::map<std::string, const CellResult *> bIndex;
    for (const CellResult &r : b.cells)
        bIndex[identityKey(r)] = &r;

    std::map<std::string, bool> seen;
    for (const CellResult &ra : a.cells) {
        std::string key = identityKey(ra);
        seen[key] = true;
        auto it = bIndex.find(key);
        if (it == bIndex.end()) {
            diffs.push_back(
                describe(ra, "missing", "present", "absent"));
            continue;
        }
        const CellResult &rb = *it->second;
        if (ra.ok != rb.ok)
            diffs.push_back(describe(ra, "ok",
                                     ra.ok ? "true" : "false",
                                     rb.ok ? "true" : "false"));
        if (ra.errorClass != rb.errorClass)
            diffs.push_back(describe(ra, "error_class", ra.errorClass,
                                     rb.errorClass));
        if (ra.cycles != rb.cycles)
            diffs.push_back(describe(ra, "cycles",
                                     std::to_string(ra.cycles),
                                     std::to_string(rb.cycles)));
        if (ra.instsCommitted != rb.instsCommitted)
            diffs.push_back(
                describe(ra, "insts",
                         std::to_string(ra.instsCommitted),
                         std::to_string(rb.instsCommitted)));
        if (ra.manifestHash != rb.manifestHash)
            diffs.push_back(describe(ra, "manifest_hash",
                                     ra.manifestHash,
                                     rb.manifestHash));
        if (ra.counters != rb.counters)
            diffs.push_back(describe(ra, "counters",
                                     "(differ)", "(differ)"));
        if (ra.sampleWindows != rb.sampleWindows ||
            ra.sampleTotalInsts != rb.sampleTotalInsts ||
            fixed6(ra.sampleIpcMean) != fixed6(rb.sampleIpcMean) ||
            fixed6(ra.sampleIpcStddev) != fixed6(rb.sampleIpcStddev) ||
            fixed6(ra.sampleIpcCi) != fixed6(rb.sampleIpcCi))
            diffs.push_back(describe(ra, "sample",
                                     "(differ)", "(differ)"));
        if (ra.injectOutcome != rb.injectOutcome)
            diffs.push_back(describe(ra, "inject_outcome",
                                     ra.injectOutcome,
                                     rb.injectOutcome));
    }
    for (const CellResult &rb : b.cells)
        if (!seen.count(identityKey(rb)))
            diffs.push_back(
                describe(rb, "missing", "absent", "present"));
    return diffs;
}

std::vector<MachineAggregate>
aggregateByMachine(const CampaignResult &result)
{
    std::vector<MachineAggregate> out;
    std::map<std::string, std::size_t> index;
    std::map<std::string, std::vector<RunResult>> runs;

    for (const CellResult &r : result.cells) {
        std::string m = displayMachine(r);
        if (!index.count(m)) {
            index[m] = out.size();
            out.push_back({m, 0, 0, 0, 0, 0.0});
        }
        MachineAggregate &agg = out[index[m]];
        if (!r.ok) {
            agg.cellsFailed++;
            continue;
        }
        agg.cellsOk++;
        agg.totalCycles += r.cycles;
        agg.totalInsts += r.instsCommitted;
        // Only cells with a measurable IPC feed the harmonic mean:
        // classified injection outcomes (crash/deadlock/timeout) are
        // ok results with zeroed numerics.
        if (r.cycles && r.instsCommitted)
            runs[m].push_back(r.toRunResult());
    }

    for (MachineAggregate &agg : out)
        if (!runs[agg.machine].empty())
            agg.hmeanIpc = validate::aggregateIpc(runs[agg.machine]);
    return out;
}

namespace {

/** The run was given a store and kept it open. */
bool
storeEnabled(const LaunchOptions &o, const LaunchOutcome &s)
{
    return !o.storePath.empty() && !s.storeDegraded;
}

std::string
toSummaryJson(const LaunchOptions &o, const LaunchOutcome &s)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"campaign\": \"" << json::escape(s.result.campaign)
       << "\",\n";
    os << "  \"cells\": " << s.result.cells.size() << ",\n";
    os << "  \"ok\": " << s.result.okCount() << ",\n";
    os << "  \"failed\": " << s.result.errorCount() << ",\n";
    os << "  \"cache_hits\": " << s.cacheHits << ",\n";
    os << "  \"store\": {\n";
    os << "    \"enabled\": " << (storeEnabled(o, s) ? "true" : "false")
       << ",\n";
    os << "    \"path\": \"" << json::escape(o.storePath) << "\",\n";
    os << "    \"hits\": " << s.storeTraffic.hits << ",\n";
    os << "    \"misses\": " << s.storeTraffic.misses << ",\n";
    os << "    \"bytes_read\": " << s.storeTraffic.bytesRead << ",\n";
    os << "    \"bytes_written\": " << s.storeTraffic.bytesWritten
       << ",\n";
    os << "    \"shards\": [";
    for (std::size_t i = 0; i < s.shardStore.size(); i++) {
        const StoreTraffic &t = s.shardStore[i];
        os << (i ? ",\n" : "\n");
        os << "      {\"shard\": " << i << ", \"hits\": " << t.hits
           << ", \"misses\": " << t.misses
           << ", \"bytes_read\": " << t.bytesRead
           << ", \"bytes_written\": " << t.bytesWritten << "}";
    }
    os << (s.shardStore.empty() ? "]\n" : "\n    ]\n");
    os << "  }\n";
    os << "}\n";
    return os.str();
}

std::string
toSummaryCsv(const LaunchOptions &o, const LaunchOutcome &s)
{
    std::ostringstream os;
    os << "metric,value\n";
    os << "campaign," << s.result.campaign << "\n";
    os << "cells," << s.result.cells.size() << "\n";
    os << "ok," << s.result.okCount() << "\n";
    os << "failed," << s.result.errorCount() << "\n";
    os << "cache_hits," << s.cacheHits << "\n";
    os << "store_enabled," << (storeEnabled(o, s) ? 1 : 0) << "\n";
    os << "store_hits," << s.storeTraffic.hits << "\n";
    os << "store_misses," << s.storeTraffic.misses << "\n";
    os << "store_bytes_read," << s.storeTraffic.bytesRead << "\n";
    os << "store_bytes_written," << s.storeTraffic.bytesWritten << "\n";
    for (std::size_t i = 0; i < s.shardStore.size(); i++) {
        const StoreTraffic &t = s.shardStore[i];
        os << "shard" << i << "_store_hits," << t.hits << "\n";
        os << "shard" << i << "_store_misses," << t.misses << "\n";
        os << "shard" << i << "_store_bytes_read," << t.bytesRead
           << "\n";
        os << "shard" << i << "_store_bytes_written,"
           << t.bytesWritten << "\n";
    }
    return os.str();
}

} // namespace

bool
writeSummaryArtifacts(const LaunchOptions &options,
                      const LaunchOutcome &outcome,
                      const std::string &artifactPath,
                      std::string *error)
{
    return writeFileAtomic(artifactPath + ".summary.json",
                           toSummaryJson(options, outcome), error) &&
           writeFileAtomic(artifactPath + ".summary.csv",
                           toSummaryCsv(options, outcome), error);
}

} // namespace runner
} // namespace simalpha
