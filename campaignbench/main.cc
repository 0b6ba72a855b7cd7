/**
 * @file
 * campaignbench: the end-to-end benchmark of the simulator, measured on
 * three closed-loop campaign workloads from one process.
 *
 *   t3-full           full-length Table 3 (40 cells, ~13.5M committed
 *                     insts) through an in-process ExperimentRunner,
 *                     jobs=1, no cache, store, or journal;
 *   t3-sampled-store  the same 40 cells sampled (windows=10, len=1000,
 *                     warmup=500) against a fresh ResultStore in three
 *                     passes: cold (empty store), reuse (new Cell::seed,
 *                     so result keys miss and checkpoints hit), and warm
 *                     (every result hits);
 *   t5-fleet          Table 5 capped at 20000 insts (520 cells) submitted
 *                     as "table5" to a front serve::Server whose executor
 *                     is a fleet Dispatcher over two jobs=1 worker
 *                     servers on Unix sockets, cold then warm.
 *
 * Usage (CHECKOUT is the repository root; the reference results are
 * CHECKOUT/campaignbench/reference.txt):
 *   campaignbench --root CHECKOUT --workload NAME --seed N --seconds S
 *                 --trace 0|1
 *   campaignbench --root CHECKOUT --write-reference
 *
 * --trace 0 repeats whole rounds (set-up, passes, tear-down) for about
 * --seconds and prints the end-to-end metrics as medians over rounds,
 * with each round's times scaled to reference host speed by the probe
 * slices it ran (probe.hh).
 * --trace 1 runs one untraced round and one traced round and prints the
 * per-layer metrics; the difference of the two rounds is the tracing
 * overhead. Every run checks its outputs (see Check) and the last line
 * of standard output is one JSON object with the verdict and metrics.
 * Exit status: 0 when every output checks, 1 when one does not, 2 on a
 * usage or set-up error (no result line).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/dispatcher.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "store/store.hh"
#include "probe.hh"
#include "trace.hh"

namespace fs = std::filesystem;
using namespace simalpha;
using cbench::now;
using cbench::Scope;
using cbench::Trace;

namespace {

/** Pass ids: a span, a store counter, or a sim count belongs to one. */
constexpr int kCold = 0;
constexpr int kReuse = 1;
constexpr int kWarm = 2;

constexpr std::uint64_t kFleetCap = 20000;
/** Fleet cells per host-speed probe slice (40 per cold pass). */
constexpr unsigned kFleetProbeEvery = 13;

struct Failure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// -------------------------------------------------------------------
// Small helpers
// -------------------------------------------------------------------

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
fnvHex(const std::string &s)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)fnv64(s));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

double
storeMb(const std::vector<std::string> &roots)
{
    std::uint64_t bytes = 0;
    for (const std::string &root : roots) {
        store::ResultStore s;
        std::string error;
        if (!s.open(root, &error))
            throw Failure(error);
        bytes += s.usage(&error).bytes;
    }
    return double(bytes) / 1e6;
}

/** Detailed-or-represented instructions: sampled cells count the whole
 *  program their windows stand for, plain cells their commits. */
std::uint64_t
simulatedInsts(const runner::CampaignResult &r)
{
    std::uint64_t n = 0;
    for (const runner::CellResult &c : r.cells)
        n += c.sampleWindows ? c.sampleTotalInsts : c.instsCommitted;
    return n;
}

/** A result's bytes with the seed cleared: the seed only names the
 *  result (store key, journal identity) and never changes a number. */
std::string
seedFreeLine(runner::CellResult r)
{
    r.seed = 0;
    r.cell.seed = 0;
    return runner::journalLine("campaignbench", r);
}

/** @p spec's cells reordered by @p seed, each with its own Cell::seed
 *  drawn from (@p seed, @p salt) — the in-process workloads' inputs. */
runner::CampaignSpec
seeded(const runner::CampaignSpec &spec, std::uint64_t seed,
       std::uint64_t salt)
{
    runner::CampaignSpec out = spec;
    std::uint64_t state = splitmix(seed);
    for (std::size_t i = out.cells.size(); i > 1; i--) {
        state = splitmix(state);
        std::swap(out.cells[i - 1], out.cells[state % i]);
    }
    for (runner::Cell &c : out.cells)
        c.seed = splitmix(splitmix(seed ^ (salt << 56)) ^
                          fnv64(cbench::cellIdentity(c))) |
                 1;
    return out;
}

/** @p r reordered into @p canonical's spec order. */
runner::CampaignResult
inCanonicalOrder(const runner::CampaignResult &r,
                 const runner::CampaignSpec &canonical)
{
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < canonical.cells.size(); i++)
        index[cbench::cellIdentity(canonical.cells[i])] = i;
    runner::CampaignResult out;
    out.campaign = r.campaign;
    out.cells.resize(canonical.cells.size());
    for (const runner::CellResult &c : r.cells) {
        auto it = index.find(cbench::cellIdentity(c.cell));
        if (it == index.end())
            throw Failure("result for a cell outside the campaign");
        out.cells[it->second] = c;
    }
    return out;
}

// -------------------------------------------------------------------
// Passes and rounds
// -------------------------------------------------------------------

struct Pass
{
    int id = kCold;
    double seconds = 0.0;
    runner::CampaignResult result;      ///< canonical spec order
    std::vector<std::string> lines;     ///< fleet stream, arrival order
    std::vector<double> lineTimes;      ///< arrival time of each line
    /** Seconds of the host-speed probe slices run during the pass. */
    std::vector<double> probes;
    /** In-process passes: seconds of work before each probe slice, and
     *  after the last one. */
    std::vector<double> stretches;

    /**
     * The pass's seconds at reference host speed. Each stretch of an
     * in-process pass is scaled by the median of the slice after it and
     * that slice's neighbours, so one preempted slice does not skew it;
     * the fleet's probed pass by the mean of its slices; a pass without
     * slices by @p fallback.
     */
    double
    scaledSeconds(double fallback) const
    {
        if (probes.empty())
            return seconds / fallback;
        if (stretches.empty())
            return seconds / cbench::hostSlowdown(probes);
        const std::size_t n = probes.size();
        double total = 0.0;
        for (std::size_t i = 0; i < stretches.size(); i++) {
            std::size_t c = std::min(i, n - 1);
            std::vector<double> near(probes.begin() + (c ? c - 1 : 0),
                                     probes.begin() + std::min(c + 2, n));
            total += stretches[i] / cbench::hostSlowdown({median(near)});
        }
        return total;
    }
};

struct Round
{
    std::vector<Pass> passes;
    double storeMb = 0.0;

    const Pass *
    find(int id) const
    {
        for (const Pass &p : passes)
            if (p.id == id)
                return &p;
        return nullptr;
    }

    /** Timed seconds: every pass, no set-up, restart, or tear-down. */
    double
    seconds() const
    {
        double s = 0.0;
        for (const Pass &p : passes)
            s += p.seconds;
        return s;
    }

    /** How much slower than reference the host ran during the round. */
    double
    slowdown() const
    {
        std::vector<double> all;
        for (const Pass &p : passes)
            all.insert(all.end(), p.probes.begin(), p.probes.end());
        return cbench::hostSlowdown(all);
    }
};

/** One in-process pass: a fresh jobs=1 runner without cache. An
 *  untraced pass runs a probe slice after each cell, on the runner's
 *  thread, and leaves the slices out of its seconds. */
Pass
inProcessPass(int id, const runner::CampaignSpec &spec,
              const runner::CampaignSpec &canonical,
              const std::string &storePath, bool traced)
{
    runner::RunnerOptions o;
    o.jobs = 1;
    o.cache = false;
    o.storePath = storePath;
    Pass p;
    p.id = id;
    double probing = 0.0, mark = 0.0;
    if (!traced)
        o.onCell = [&p, &probing, &mark](const runner::CellResult &) {
            p.stretches.push_back(now() - mark);
            p.probes.push_back(cbench::probeSlice());
            probing += p.probes.back();
            mark = now();
        };
    if (traced)
        Trace::begin(id);
    double t0 = now();
    mark = t0;
    runner::CampaignResult result;
    {
        Scope root("runner.pass", cbench::kRunner);
        runner::ExperimentRunner r(o);
        result = r.run(spec);
    }
    double end = now();
    p.seconds = end - t0 - probing;
    if (!traced)
        p.stretches.push_back(end - mark);
    Trace::end();
    p.result = inCanonicalOrder(result, canonical);
    return p;
}

// -------------------------------------------------------------------
// Workloads
// -------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Everything a round needs before its first pass, in @p dir (a
     *  fresh directory name relative to the working directory). */
    virtual void setup(const std::string &dir) = 0;
    virtual Round round(bool traced) = 0;
    virtual void teardown() = 0;

    const std::string &name() const { return _name; }
    /** The campaign in its seed-free spec order. */
    const runner::CampaignSpec &canonical() const { return _canonical; }

  protected:
    Workload(std::string name, runner::CampaignSpec canonical)
        : _name(std::move(name)), _canonical(std::move(canonical))
    {
    }

    /** Build each distinct program of the campaign once. */
    void
    buildPrograms() const
    {
        std::vector<std::string> names;
        for (const runner::Cell &c : _canonical.cells)
            if (std::find(names.begin(), names.end(), c.workload) ==
                names.end())
                names.push_back(c.workload);
        for (const std::string &n : names) {
            Program program;
            std::string error;
            if (!runner::buildWorkload(n, &program, &error))
                throw Failure(error);
        }
    }

    std::string _name;
    runner::CampaignSpec _canonical;
};

class T3Full : public Workload
{
  public:
    explicit T3Full(std::uint64_t seed)
        : Workload("t3-full", runner::table3Campaign()), _seed(seed)
    {
    }

    void
    setup(const std::string &dir) override
    {
        fs::create_directories(dir);
        _spec = seeded(_canonical, _seed, 0);
        buildPrograms();
    }

    Round
    round(bool traced) override
    {
        Round r;
        r.passes.push_back(
            inProcessPass(kCold, _spec, _canonical, "", traced));
        return r;
    }

    void teardown() override {}

  private:
    std::uint64_t _seed;
    runner::CampaignSpec _spec;
};

checkpoint::SampleSpec
benchSampling()
{
    checkpoint::SampleSpec s;
    s.windows = 10;
    s.len = 1000;
    s.warmup = 500;
    return s;
}

class T3SampledStore : public Workload
{
  public:
    explicit T3SampledStore(std::uint64_t seed)
        : Workload("t3-sampled-store",
                   runner::table3Campaign().withSampling(benchSampling())),
          _seed(seed)
    {
    }

    void
    setup(const std::string &dir) override
    {
        fs::create_directories(dir);
        _dir = dir;
        _store = dir + "/store";
        _cold = seeded(_canonical, _seed, 0);
        // Same order, new seeds: only the result keys change.
        _reuse = seeded(_canonical, _seed, 1);
        buildPrograms();
        store::ResultStore s;
        std::string error;
        if (!s.open(_store, &error))
            throw Failure(error);
    }

    Round
    round(bool traced) override
    {
        Round r;
        r.passes.push_back(
            inProcessPass(kCold, _cold, _canonical, _store, traced));
        r.storeMb = storeMb({_store});
        r.passes.push_back(
            inProcessPass(kReuse, _reuse, _canonical, _store, traced));
        r.passes.push_back(
            inProcessPass(kWarm, _reuse, _canonical, _store, traced));
        return r;
    }

    void
    teardown() override
    {
        fs::remove_all(_dir);
    }

  private:
    std::uint64_t _seed;
    std::string _dir, _store;
    runner::CampaignSpec _cold, _reuse;
};

/** A serve::Server on its own I/O thread. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Start and return the seconds Server::start took. */
    double
    start(serve::ServeOptions options)
    {
        _server = std::make_unique<serve::Server>(std::move(options));
        std::string error;
        double t0 = now();
        if (!_server->start(&error))
            throw Failure("serve: " + error);
        double took = now() - t0;
        serve::Server *s = _server.get();
        _thread = std::thread([s] { s->run(); });
        return took;
    }

    void
    stop()
    {
        if (_server)
            _server->requestShutdown();
        if (_thread.joinable())
            _thread.join();
        _server.reset();
    }

    const std::string &address() const { return _server->boundAddress(); }

  private:
    std::unique_ptr<serve::Server> _server;
    std::thread _thread;
};

class T5Fleet : public Workload
{
  public:
    T5Fleet()
        : Workload("t5-fleet",
                   runner::table5Campaign().withMaxInsts(kFleetCap))
    {
    }
    ~T5Fleet() override { stopFleet(); }

    void
    setup(const std::string &dir) override
    {
        fs::create_directories(dir);
        _dir = dir;
        buildPrograms();
        startFleet();
    }

    Round
    round(bool traced) override
    {
        Round r;
        r.passes.push_back(submit(kCold, traced));
        r.storeMb = storeMb({workerStore(0), workerStore(1)});
        restartWithoutJournals();
        r.passes.push_back(submit(kWarm, traced));
        return r;
    }

    void
    teardown() override
    {
        stopFleet();
        fs::remove_all(_dir);
    }

    /** Daemons down, every job journal gone, daemons up again: the
     *  next submit finds only the stores. */
    void
    restartWithoutJournals()
    {
        stopFleet();
        for (const std::string &root :
             {frontStore(), workerStore(0), workerStore(1)})
            fs::remove_all(root + "/serve.d");
        startFleet();
    }

    /** Seconds of one direct submit of worker @p i's shard. */
    double
    workerShardSeconds(int i)
    {
        serve::ClientOptions c;
        c.connect = _workers[i].address();
        c.maxRetries = 0;
        double t0 = now();
        serve::SubmitOutcome o = serve::submitCampaign(
            c, runner::shardCampaignName("table5", std::size_t(i), 2),
            kFleetCap);
        double took = now() - t0;
        if (!o.ok)
            throw Failure("worker shard submit: " + o.error);
        return took;
    }

    /** Round trips of one health request to the front, in seconds. */
    std::vector<double>
    pings(int n)
    {
        serve::ClientOptions c;
        c.connect = _front.address();
        c.maxRetries = 0;
        c.timeoutSeconds = 10.0;
        std::vector<double> out;
        for (int i = 0; i < n; i++) {
            std::string reply, error;
            double t0 = now();
            if (!serve::requestOnce(c, "{\"op\":\"health\"}", &reply,
                                    &error))
                throw Failure("health: " + error);
            out.push_back(now() - t0);
        }
        return out;
    }

    const std::vector<double> &startSeconds() const { return _starts; }

  private:
    std::string workerStore(int i) const
    {
        return _dir + "/w" + std::to_string(i) + "store";
    }
    std::string frontStore() const { return _dir + "/front"; }

    void
    startFleet()
    {
        std::vector<std::string> addresses;
        for (int i = 0; i < 2; i++) {
            serve::ServeOptions w;
            w.storePath = workerStore(i);
            w.listen = _dir + "/w" + std::to_string(i) + ".sock";
            w.jobs = 1;
            _starts.push_back(_workers[i].start(w));
            addresses.push_back(_workers[i].address());
        }
        fleet::FleetOptions f;
        for (const std::string &a : addresses)
            f.workers.push_back(fleet::WorkerConfig{a});
        f.seed = 1;
        _dispatcher = std::make_unique<fleet::Dispatcher>(f);
        std::string error;
        if (!_dispatcher->start(&error))
            throw Failure("dispatcher: " + error);
        serve::ServeOptions front;
        front.storePath = frontStore();
        front.listen = _dir + "/front.sock";
        front.executor = _dispatcher->executor();
        _starts.push_back(_front.start(front));
        Trace::setLanes({workerStore(0), workerStore(1)}, addresses,
                        _front.address());
    }

    void
    stopFleet()
    {
        _front.stop();
        _dispatcher.reset();
        for (Daemon &w : _workers)
            w.stop();
    }

    Pass
    submit(int id, bool traced)
    {
        serve::ClientOptions c;
        c.connect = _front.address();
        c.maxRetries = 0;
        Pass p;
        p.id = id;
        if (traced)
            Trace::begin(id);
        // Probe on the workers' threads as they journal each cell. The
        // slices lengthen the pass by about 0.5% and stay in its
        // seconds. The warm pass is too short to probe.
        if (!traced && id == kCold)
            cbench::armProbes(kFleetProbeEvery);
        double t0 = now();
        serve::SubmitOutcome o = serve::submitCampaign(
            c, "table5", kFleetCap, "", false,
            [&p](const std::string &) { p.lineTimes.push_back(now()); });
        p.seconds = now() - t0;
        p.probes = cbench::disarmProbes();
        Trace::end();
        if (!o.ok)
            throw Failure("fleet submit: " + o.error);
        p.lines = o.lines;
        std::string error;
        if (!serve::linesToResult("table5", kFleetCap, "", o.lines,
                                  &p.result, &error))
            throw Failure("fleet stream: " + error);
        return p;
    }

    std::string _dir;
    Daemon _workers[2];
    std::unique_ptr<fleet::Dispatcher> _dispatcher;
    Daemon _front;
    std::vector<double> _starts;
};

/** The in-process jobs=1 run of the fleet's campaign: its journal
 *  lines are what the fleet stream must reproduce byte for byte. */
std::vector<std::string>
singleHostLines(const std::string &dir)
{
    fs::create_directories(dir);
    runner::RunnerOptions o;
    o.jobs = 1;
    o.journalPath = dir + "/table5.journal.jsonl";
    runner::ExperimentRunner r(o);
    runner::CampaignResult result =
        r.run(runner::table5Campaign().withMaxInsts(kFleetCap));
    (void)result;
    std::vector<std::string> lines;
    std::ifstream in(o.journalPath);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    fs::remove_all(dir);
    return lines;
}

std::string
streamDigest(const std::vector<std::string> &lines)
{
    std::string all;
    for (const std::string &l : lines)
        all += l + "\n";
    return fnvHex(all);
}

// -------------------------------------------------------------------
// Reference results and the output check
// -------------------------------------------------------------------

/**
 * reference.txt: per-cell digests of seed-free result bytes, fleet
 * stream digests, and the modelled-component counts of each workload's
 * cold pass. Lines: "cell <workload> <identity> <hex>",
 * "stream <workload> <hex>", "count <workload> <field> <value>".
 */
struct Reference
{
    std::map<std::string, std::string> cells;   // "<wl> <identity>"
    std::map<std::string, std::string> streams;
    std::map<std::string, std::uint64_t> counts; // "<wl> <field>"

    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        for (std::string line; std::getline(in, line);) {
            std::istringstream s(line);
            std::string kind, wl, a, b;
            s >> kind >> wl >> a;
            if (kind == "cell" && (s >> b))
                cells[wl + " " + a] = b;
            else if (kind == "stream")
                streams[wl] = a;
            else if (kind == "count" && (s >> b))
                counts[wl + " " + a] = std::stoull(b);
        }
        return true;
    }

    void
    save(const std::string &path) const
    {
        std::ofstream out(path);
        out << "# campaignbench reference: seed-free digests of every "
               "cell's result bytes,\n# the fleet stream digest, and "
               "the modelled-component counts of each cold pass.\n"
               "# Regenerate with run.py --write-reference only after an "
               "intended model change.\n";
        for (const auto &kv : cells)
            out << "cell " << kv.first << " " << kv.second << "\n";
        for (const auto &kv : streams)
            out << "stream " << kv.first << " " << kv.second << "\n";
        for (const auto &kv : counts)
            out << "count " << kv.first << " " << kv.second << "\n";
    }
};

/** Attempted and failed cells, and why each failure failed. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        failed++;
        if (problems.size() < 20)
            problems.push_back(why);
    }

    /** Every pass of @p r: each cell ran, matches the reference, and
     *  matches the same cell of the pass before it. */
    void
    round(const Workload &w, const Round &r, const Reference &ref)
    {
        const std::string &wl = w.name();
        const Pass *prev = nullptr;
        for (const Pass &p : r.passes) {
            const auto &cells = p.result.cells;
            for (std::size_t i = 0; i < cells.size(); i++) {
                attempted++;
                const runner::CellResult &c = cells[i];
                std::string id = cbench::cellIdentity(
                    w.canonical().cells[i]);
                if (!c.ok) {
                    fail(wl + " " + id + ": " + c.error);
                    continue;
                }
                std::string line = seedFreeLine(c);
                auto it = ref.cells.find(wl + " " + id);
                if (it != ref.cells.end() && it->second != fnvHex(line)) {
                    fail(wl + " " + id + ": result differs from reference");
                    continue;
                }
                if (prev && seedFreeLine(prev->result.cells[i]) != line)
                    fail(wl + " " + id + ": pass " +
                         std::to_string(p.id) +
                         " differs from the pass before it");
                // The warm pass reuses the reuse pass's seeds: every
                // byte, seed included, must repeat.
                else if (prev && p.id == kWarm && prev->id == kReuse &&
                         runner::journalLine("x", prev->result.cells[i]) !=
                             runner::journalLine("x", c))
                    fail(wl + " " + id + ": warm bytes differ from reuse");
            }
            if (!p.lines.empty()) {
                auto it = ref.streams.find(wl);
                if (it != ref.streams.end() &&
                    it->second != streamDigest(p.lines))
                    problems.push_back(wl + ": stream differs from the "
                                            "single-host reference");
                if (prev && prev->lines != p.lines)
                    problems.push_back(wl + ": warm stream differs from "
                                            "cold");
            }
            prev = &p;
        }
    }

    bool correct() const { return failed == 0 && problems.empty(); }
};

/** Mean absolute per-benchmark IPC error of @p machine against ds10l,
 *  in percent (simulated time; sampled cells use their window mean). */
double
errPct(const runner::CampaignResult &r, const std::string &machine)
{
    auto ipc = [](const runner::CellResult &c) {
        return c.sampleWindows ? c.sampleIpcMean : c.ipc();
    };
    double sum = 0.0;
    int n = 0;
    for (const runner::CellResult &ref : r.cells) {
        if (ref.cell.machine != "ds10l")
            continue;
        const runner::CellResult *sim = r.find(machine, ref.cell.workload);
        if (!sim || ipc(ref) <= 0.0)
            continue;
        sum += std::fabs(ipc(*sim) - ipc(ref)) / ipc(ref) * 100.0;
        n++;
    }
    return n ? sum / n : 0.0;
}

// -------------------------------------------------------------------
// Reporting
// -------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Check &check, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &p : check.problems)
        std::printf("  CHECK FAILED: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                check.correct() ? "true" : "false",
                (unsigned long long)check.attempted,
                (unsigned long long)check.failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Totals of the spans named @p name in @p pass. */
struct Agg
{
    double seconds = 0.0;
    std::uint64_t count = 0;
    std::uint64_t work = 0;
};

Agg
aggregate(const std::vector<cbench::Span> &spans, const char *name,
          int pass)
{
    Agg a;
    for (const cbench::Span &s : spans)
        if (s.pass == pass && std::strcmp(s.name, name) == 0) {
            a.seconds += s.duration();
            a.count++;
            a.work += s.work;
        }
    return a;
}

double
layerSelf(const std::vector<cbench::Span> &spans,
          const std::vector<double> &self, cbench::Layer layer, int pass)
{
    double t = 0.0;
    for (std::size_t i = 0; i < spans.size(); i++)
        if (spans[i].pass == pass && spans[i].layer == layer)
            t += self[i];
    return t;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** What the fleet's traced run measures besides spans. */
struct ServeFigures
{
    double startS = 0.0;
    double pingP50Ms = 0.0, pingP99Ms = 0.0;
    double gapP50Us = 0.0, gapP98Us = 0.0;
    double workerWarmS = 0.0;
};

/**
 * Per-pass accounting printed for the reader: each layer's self time,
 * and how much of the pass's wall time the critical path accounts for.
 * Returns the smallest accounted share over the passes.
 */
double
printAccounting(const std::vector<cbench::Span> &spans,
                const std::vector<double> &self, const Round &traced)
{
    double worst = 1.0;
    for (const Pass &p : traced.passes) {
        int root = -1;
        for (std::size_t i = 0; i < spans.size() && root < 0; i++)
            if (spans[i].pass == p.id && spans[i].parent < 0)
                root = int(i);
        if (root < 0)
            return 0.0;
        double wall = spans[std::size_t(root)].duration();
        double acc = cbench::accountedTime(spans, self, root);
        std::printf("  pass %d: wall %.4f s, critical path accounts for "
                    "%.4f s (%.2f%%); self time by layer:",
                    p.id, wall, acc, 100.0 * ratio(acc, wall));
        for (int l = 0; l < cbench::kNumLayers; l++) {
            double t = layerSelf(spans, self, cbench::Layer(l), p.id);
            if (t > 0.0)
                std::printf(" %s=%.4f", cbench::layerName(cbench::Layer(l)),
                            t);
        }
        std::printf("\n");
        worst = std::min(worst, ratio(acc, wall));
    }
    return worst;
}

void
writeSpans(const std::string &path, const std::vector<cbench::Span> &spans)
{
    std::ofstream out(path);
    for (const cbench::Span &s : spans)
        out << "{\"name\":\"" << s.name << "\",\"pass\":" << s.pass
            << ",\"start\":" << s.start << ",\"end\":" << s.end
            << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
            << ",\"lane\":" << s.lane << ",\"work\":" << s.work << "}\n";
}

std::vector<Metric>
layerMetrics(const Workload &w, const Round &untraced, const Round &traced,
             const std::vector<cbench::Span> &spans,
             const std::vector<double> &self, double accounted,
             const ServeFigures &serve, const Reference &ref,
             const Check &check)
{
    using cbench::SimCounts;
    const int lookupPass = traced.find(kReuse)  ? kReuse
                           : traced.find(kWarm) ? kWarm
                                                : kCold;
    const int windowPass = traced.find(kReuse) ? kReuse : kCold;
    const Pass *uReuse = untraced.find(kReuse);
    const Pass *uWarm = untraced.find(kWarm);
    const Pass &uCold = untraced.passes.front();

    Agg build = aggregate(spans, "workloads.build", kCold);
    Agg make = aggregate(spans, "validate.make_machine", kCold);
    Agg core = aggregate(spans, "core.run", kCold);
    Agg ruu = aggregate(spans, "outorder.run", kCold);
    Agg coreWin = aggregate(spans, "core.window", windowPass);
    Agg ruuWin = aggregate(spans, "outorder.window", windowPass);
    Agg ff = aggregate(spans, "isa.ff", kCold);
    Agg gen = aggregate(spans, "checkpoint.generate", kCold);
    Agg ser = aggregate(spans, "checkpoint.serialize", kCold);
    Agg parse = aggregate(spans, "checkpoint.parse", lookupPass);
    Agg pub = aggregate(spans, "store.publish", kCold);
    Agg look = aggregate(spans, "store.lookup", lookupPass);
    store::StoreCounters warmStore = Trace::storeCounters(kWarm);
    SimCounts sim = Trace::simCounts(kCold);
    const double ki = double(sim.alphaInsts) / 1000.0;

    int changed = 0;
    for (const auto &[field, value] : sim.fields()) {
        auto it = ref.counts.find(w.name() + " " + field);
        if (it != ref.counts.end() && it->second != value)
            changed++;
    }

    const bool t3 = w.name() != "t5-fleet";
    return {
        {"workloads.build_s", build.seconds, "s"},
        {"workloads.builds", double(build.count), "count"},
        {"validate.make_machine_s", make.seconds, "s"},
        {"validate.machines_made", double(make.count), "count"},
        {"core.run_s", core.seconds, "s"},
        {"core.ns_per_inst", ratio(core.seconds * 1e9, double(core.work)),
         "ns"},
        {"outorder.run_s", ruu.seconds, "s"},
        {"outorder.ns_per_inst", ratio(ruu.seconds * 1e9, double(ruu.work)),
         "ns"},
        {"core.window_s", coreWin.seconds, "s"},
        {"core.window_ns_per_inst",
         ratio(coreWin.seconds * 1e9, double(coreWin.work)), "ns"},
        {"outorder.window_s", ruuWin.seconds, "s"},
        {"memory.l1i_miss_per_ki", ratio(double(sim.l1iMisses), ki), "1/ki"},
        {"memory.l1d_miss_per_ki", ratio(double(sim.l1dMisses), ki), "1/ki"},
        {"memory.l2_miss_per_ki", ratio(double(sim.l2Misses), ki), "1/ki"},
        {"memory.dtlb_miss_per_ki", ratio(double(sim.dtlbMisses), ki),
         "1/ki"},
        {"memory.dram_row_hit_ratio",
         ratio(double(sim.dramRowHits),
               double(sim.dramRowHits + sim.dramRowMisses)),
         "ratio"},
        {"predictors.direction_mispredicts_per_ki",
         ratio(double(sim.directionMispredicts), ki), "1/ki"},
        {"predictors.way_mispredicts_per_ki",
         ratio(double(sim.wayMispredicts), ki), "1/ki"},
        {"core.replay_traps_per_ki", ratio(double(sim.replayTraps), ki),
         "1/ki"},
        {"core.map_stalls_per_ki", ratio(double(sim.mapStalls), ki), "1/ki"},
        {"isa.ff_s", ff.seconds, "s"},
        {"isa.ff_ips", ratio(double(ff.work), ff.seconds), "1/s"},
        {"checkpoint.generate_s", gen.seconds, "s"},
        {"checkpoint.serialize_s", ser.seconds, "s"},
        {"checkpoint.blob_kb_mean",
         ratio(double(ser.work) / 1024.0, double(ser.count)), "KiB"},
        {"checkpoint.parse_s", parse.seconds, "s"},
        {"store.publish_s", pub.seconds, "s"},
        {"store.publishes", double(pub.count), "count"},
        {"store.bytes_written", double(pub.work), "bytes"},
        {"store.lookup_s", look.seconds, "s"},
        {"store.hits", double(look.work), "count"},
        {"store.misses", double(look.count - look.work), "count"},
        {"store.index_hits", double(warmStore.indexHits), "count"},
        {"store.entry_parses", double(warmStore.entryParses), "count"},
        {"runner.self_s", layerSelf(spans, self, cbench::kRunner, kCold),
         "s"},
        {"runner.cells", double(traced.passes.front().result.cells.size()),
         "count"},
        {"serve.start_s", serve.startS, "s"},
        {"serve.ping_ms_p50", serve.pingP50Ms, "ms"},
        {"serve.ping_ms_p99", serve.pingP99Ms, "ms"},
        {"serve.line_gap_us_p50", serve.gapP50Us, "us"},
        {"serve.line_gap_us_p98", serve.gapP98Us, "us"},
        {"serve.worker_warm_s", serve.workerWarmS, "s"},
        {"fleet.self_cold_s", layerSelf(spans, self, cbench::kFleet, kCold),
         "s"},
        {"fleet.self_warm_s", layerSelf(spans, self, cbench::kFleet, kWarm),
         "s"},
        {"trace.overhead_s", traced.seconds() - untraced.seconds(), "s"},
        {"trace.overhead_pct",
         100.0 * ratio(traced.seconds() - untraced.seconds(),
                       untraced.seconds()),
         "%"},
        {"trace.accounted_frac", accounted, "ratio"},
        {"trace.spans", double(spans.size()), "count"},
        {"host.slowdown", untraced.slowdown(), "ratio"},
        {"sim.counts_changed", double(changed), "count"},
        {"reuse_sim_ips",
         uReuse ? ratio(double(simulatedInsts(uReuse->result)),
                        uReuse->seconds)
                : 0.0,
         "1/s"},
        {"warm_s", uWarm ? uWarm->seconds : 0.0, "s"},
        {"store_mb", untraced.storeMb, "MB"},
        {"err_sim_alpha_pct", t3 ? errPct(uCold.result, "sim-alpha") : 0.0,
         "%"},
        {"err_sim_outorder_pct",
         t3 ? errPct(uCold.result, "sim-outorder") : 0.0, "%"},
        {"failed_frac",
         ratio(double(check.failed), double(check.attempted)), "ratio"},
    };
}

// -------------------------------------------------------------------
// Entry points
// -------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string root = ".";
    bool writeReference = false;

    std::string reference() const
    {
        return root + "/campaignbench/reference.txt";
    }
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "t3-full")
        return std::make_unique<T3Full>(seed);
    if (name == "t3-sampled-store")
        return std::make_unique<T3SampledStore>(seed);
    if (name == "t5-fleet")
        return std::make_unique<T5Fleet>();
    return nullptr;
}

/** Untraced rounds for about @p a.seconds (at least two); end-to-end
 *  metrics as medians over rounds, times at reference host speed. */
int
measure(Workload &w, const Args &a, const Reference &ref)
{
    std::vector<double> setups, rounds, ips;
    double rssMb = 0.0;
    auto timedSetup = [&](const std::string &dir) {
        double s0 = now();
        w.setup(dir);
        setups.push_back(now() - s0);
    };
    Check check;
    const double t0 = now();
    for (int k = 0;; k++) {
        // Set-up is short next to a round: sample it six times per
        // round, so its median spans the whole run, not one moment.
        for (int j = 0; j < 5; j++) {
            std::string dir = std::string("s").append(
                std::to_string(k * 5 + j));
            timedSetup(dir);
            w.teardown();
            fs::remove_all(dir);
        }
        std::string dir = std::string("r").append(std::to_string(k));
        timedSetup(dir);
        Round r = w.round(false);
        w.teardown();
        check.round(w, r, ref);
        const Pass &cold = r.passes.front();
        const double slow = r.slowdown();
        double scaled = 0.0;
        std::printf("  round %d: %.4f s (passes:", k, r.seconds());
        for (const Pass &p : r.passes)
            std::printf(" %.4f", p.seconds);
        std::printf("), at reference speed:");
        for (const Pass &p : r.passes) {
            scaled += p.scaledSeconds(slow);
            std::printf(" %.4f", p.scaledSeconds(slow));
        }
        std::printf(", peak rss %.1f MB\n", peakRssMb());
        // Later rounds only add allocator fragmentation whose size
        // depends on thread timing; the first round's peak is the cost.
        if (k == 0)
            rssMb = peakRssMb();
        rounds.push_back(scaled);
        ips.push_back(double(simulatedInsts(cold.result)) /
                      cold.scaledSeconds(slow));
        // At least two rounds, then another only if it fits.
        double elapsed = now() - t0;
        if (k >= 1 && elapsed + elapsed / (k + 1) > a.seconds)
            break;
    }
    std::printf("%s seed=%llu rounds=%zu setups=%zu\n", w.name().c_str(),
                (unsigned long long)a.seed, rounds.size(), setups.size());
    printResult(check, {{"sim_ips", median(ips), "1/s"},
                        {"round_s", median(rounds), "s"},
                        {"peak_rss_mb", rssMb, "MB"},
                        {"setup_s", median(setups), "s"}});
    return check.correct() ? 0 : 1;
}

/** One untraced and one traced round; per-layer metrics. */
int
traceRun(Workload &w, const Args &a, const Reference &ref)
{
    Check check;
    Trace::setCells(w.canonical());

    w.setup("u");
    Round untraced = w.round(false);
    w.teardown();
    check.round(w, untraced, ref);

    ServeFigures serve;
    w.setup("t");
    Round traced = w.round(true);
    check.round(w, traced, ref);
    auto *fleet = dynamic_cast<T5Fleet *>(&w);
    if (fleet) {
        std::vector<double> ping = fleet->pings(1000);
        serve.pingP50Ms = percentile(ping, 50) * 1e3;
        serve.pingP99Ms = percentile(ping, 99) * 1e3;
        fleet->restartWithoutJournals();
        serve.workerWarmS = std::max(fleet->workerShardSeconds(0),
                                     fleet->workerShardSeconds(1));
        serve.startS = median(fleet->startSeconds());
        const Pass *warm = untraced.find(kWarm);
        std::vector<double> gaps;
        for (std::size_t i = 1; i < warm->lineTimes.size(); i++)
            gaps.push_back((warm->lineTimes[i] - warm->lineTimes[i - 1]) *
                           1e6);
        serve.gapP50Us = percentile(gaps, 50);
        serve.gapP98Us = percentile(gaps, 98);
    }
    w.teardown();
    if (fleet) {
        // Byte identity against a single-host jobs=1 run, every seed.
        std::vector<std::string> single = singleHostLines("single");
        for (const Round *r : {&untraced, &traced})
            for (const Pass &p : r->passes)
                if (p.lines != single)
                    check.problems.push_back(
                        "fleet stream differs from the single-host run");
    }

    std::vector<cbench::Span> spans = Trace::spans();
    std::vector<double> self = cbench::selfTimes(spans);
    std::printf("%s seed=%llu traced round, %zu spans\n", w.name().c_str(),
                (unsigned long long)a.seed, spans.size());
    double accounted = printAccounting(spans, self, traced);
    writeSpans(a.root + "/.bench_build/spans-" + w.name() + ".jsonl",
               spans);
    printResult(check, layerMetrics(w, untraced, traced, spans, self,
                                    accounted, serve, ref, check));
    return check.correct() ? 0 : 1;
}

/** Regenerate the reference file from one traced round per workload. */
int
writeReference(const Args &a)
{
    Reference ref;
    for (const char *name : {"t3-full", "t3-sampled-store", "t5-fleet"}) {
        std::unique_ptr<Workload> w = makeWorkload(name, 1);
        Trace::setCells(w->canonical());
        w->setup("ref");
        Round r = w->round(true);
        w->teardown();
        Check check;
        check.round(*w, r, ref);
        if (!check.correct())
            throw Failure(std::string(name) + ": " + check.problems.front());
        const Pass &cold = r.passes.front();
        for (std::size_t i = 0; i < cold.result.cells.size(); i++)
            ref.cells[w->name() + " " +
                      cbench::cellIdentity(w->canonical().cells[i])] =
                fnvHex(seedFreeLine(cold.result.cells[i]));
        for (const auto &[field, value] : Trace::simCounts(kCold).fields())
            ref.counts[w->name() + " " + field] = value;
        if (!cold.lines.empty()) {
            std::vector<std::string> single = singleHostLines("single");
            if (single != cold.lines)
                throw Failure("fleet stream differs from single-host run");
            ref.streams[w->name()] = streamDigest(single);
        }
        Trace::clear();
        std::printf("%s: %zu cells\n", name, cold.result.cells.size());
    }
    ref.save(a.reference());
    return 0;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (k == "--write-reference") {
            a->writeReference = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::stoull(v);
        else if (k == "--seconds")
            a->seconds = std::stod(v);
        else if (k == "--trace")
            a->trace = v == "1";
        else if (k == "--root")
            a->root = v;
        else
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, &a))
            throw Failure("bad arguments");
    } catch (const std::exception &) {
        std::fprintf(stderr,
                     "usage: campaignbench --root DIR --workload NAME "
                     "--seed N --seconds S --trace 0|1\n"
                     "       campaignbench --root DIR --write-reference\n");
        return 2;
    }
    a.root = fs::absolute(a.root).string();

    // Everything the run writes lives in one private tree inside the
    // checkout; socket paths stay short because they are relative.
    const fs::path work = fs::path(a.root) / ".bench_build" /
                          ("work-" + std::to_string(::getpid()));
    int rc = 2;
    try {
        fs::remove_all(work);
        fs::create_directories(work);
        fs::current_path(work);
        if (a.writeReference) {
            rc = writeReference(a);
        } else {
            std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
            if (!w)
                throw Failure("unknown workload '" + a.workload + "'");
            Reference ref;
            if (!ref.load(a.reference()))
                throw Failure("cannot read " + a.reference());
            rc = a.trace ? traceRun(*w, a, ref) : measure(*w, a, ref);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaignbench: %s\n", e.what());
        rc = 2;
    }
    fs::current_path(a.root);
    std::error_code ec;
    fs::remove_all(work, ec);
    return rc;
}
