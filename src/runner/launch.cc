#include "runner/launch.hh"

#include "common/error.hh"
#include "runner/journal.hh"
#include "runner/supervisor.hh"

namespace simalpha {
namespace runner {

CampaignSpec
launchSpec(const LaunchOptions &options)
{
    CampaignSpec spec;
    std::string error;
    if (deriveCampaign(options.campaign, options.maxInsts, options.sample,
                       &spec, &error) != CampaignLookup::Found)
        throw ConfigError(error);
    return spec;
}

LaunchOutcome
launchCampaign(const LaunchOptions &options)
{
    if (options.isolate == "process")
        return superviseCampaign(options);

    const CampaignSpec spec = launchSpec(options);
    RunnerOptions ro;
    ro.jobs = options.jobs;
    ro.cache = options.cache;
    ro.storePath = options.storePath;
    ro.maxRetries = options.maxRetries;
    ro.faults = options.faults;
    ro.journalPath = options.journalPath;
    ro.resume = options.resume;
    ro.journalSync = options.journalSync;
    ro.cancel = options.cancel;
    if (options.onLine)
        ro.onCell = [&](const CellResult &r) {
            options.onLine(journalLine(spec.name, r), r.ok,
                           r.fromJournal || r.fromStore || r.fromCache);
        };
    ExperimentRunner rnr(ro);

    LaunchOutcome out;
    out.result = rnr.run(spec);
    out.interrupted = options.cancel && options.cancel->load();
    for (const CellResult &r : out.result.cells)
        out.replayedCells += r.fromJournal;
    out.cacheHits = rnr.cacheHits();
    out.storeDegraded = !options.storePath.empty() && !rnr.storeOpen();
    if (rnr.storeOpen()) {
        const store::StoreCounters c = rnr.storeCounters();
        out.storeTraffic = {c.hits, c.misses, c.bytesRead, c.bytesWritten};
    }
    return out;
}

} // namespace runner
} // namespace simalpha
