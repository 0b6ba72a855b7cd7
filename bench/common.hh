/**
 * @file
 * The capped-campaign setup shared by the table benches: quiet
 * logging, the common flag set (--store DIR, --jobs N, --max-insts N),
 * one parallel ExperimentRunner, and the optional store-traffic
 * summary after the campaign.
 */

#ifndef SIMALPHA_BENCH_COMMON_HH
#define SIMALPHA_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/error.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"

namespace simalpha {
namespace bench {

class CampaignHarness
{
  public:
    CampaignHarness(int argc, char **argv, const char *prog)
    {
        setQuiet(true);
        _opts.jobs = 0;     // all cores
        _opts.cache = true;
        const flags::Command command{
            "",
            std::string("usage: ") + prog + " [options]\n",
            {{"options",
              {flags::text("--store", "<dir>", &_opts.storePath,
                           "persistent result store to serve and publish "
                           "cells"),
               flags::number("--jobs", "<n>", &_opts.jobs,
                             "worker threads (0 = all cores; default 0)"),
               flags::number("--max-insts", "<n>", &_maxInsts,
                             "cap every cell at n committed instructions")}}}};
        try {
            if (!flags::parse(command, argc, argv))
                std::exit(0);
        } catch (const ConfigError &e) {
            std::fprintf(stderr, "%s: %s\n", prog, e.what());
            std::exit(2);
        }
        _runner = std::make_unique<runner::ExperimentRunner>(_opts);
    }

    /** Run @p spec, capped when --max-insts was given. */
    runner::CampaignResult
    run(runner::CampaignSpec spec)
    {
        if (_maxInsts)
            spec = spec.withMaxInsts(_maxInsts);
        return _runner->run(spec);
    }

    /** Store-traffic summary (no output without --store). */
    void
    reportStore() const
    {
        if (!_runner->storeOpen())
            return;
        store::StoreCounters c = _runner->storeCounters();
        std::printf("\nstore: %llu hits, %llu misses, "
                    "%llu published\n",
                    (unsigned long long)c.hits,
                    (unsigned long long)c.misses,
                    (unsigned long long)c.publishes);
    }

  private:
    runner::RunnerOptions _opts;
    std::uint64_t _maxInsts = 0;
    std::unique_ptr<runner::ExperimentRunner> _runner;
};

} // namespace bench
} // namespace simalpha

#endif // SIMALPHA_BENCH_COMMON_HH
