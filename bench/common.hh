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

#include "common/logging.hh"
#include "common/number.hh"
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
        for (int i = 1; i < argc; i++) {
            const std::string flag = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "missing value after %s\n",
                                 flag.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            auto number = [&](auto *out) {
                const char *text = next();
                if (!parseNumber(text, out)) {
                    std::fprintf(stderr, "%s: '%s' is not a number\n",
                                 flag.c_str(), text);
                    std::exit(2);
                }
            };
            if (flag == "--store")
                _opts.storePath = next();
            else if (flag == "--jobs")
                number(&_opts.jobs);
            else if (flag == "--max-insts")
                number(&_maxInsts);
            else {
                std::fprintf(stderr,
                             "usage: %s [--store DIR] [--jobs N] "
                             "[--max-insts N]\n",
                             prog);
                std::exit(2);
            }
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
