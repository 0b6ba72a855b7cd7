#include "probe.hh"

#include <atomic>
#include <cstdint>
#include <mutex>

#include "trace.hh"

namespace cbench {

namespace {

constexpr int kSliceSteps = 180000;

/** Written by every slice, so the compiler keeps the work. */
volatile std::uint64_t sink;

std::atomic<unsigned> armedEvery{0};
std::atomic<unsigned> points{0};
std::mutex slicesMutex;
std::vector<double> slices;

} // namespace

double
probeSlice()
{
    std::uint32_t table[4096];
    for (std::uint32_t i = 0; i < 4096; i++)
        table[i] = i * 2654435761u;
    double t0 = now();
    std::uint64_t x = 88172645463325252ULL, acc = 0;
    for (int i = 0; i < kSliceSteps; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t v = table[x & 4095];
        switch (v & 3) {
          case 0:
            acc += v;
            break;
          case 1:
            acc ^= std::uint64_t(v) << 3;
            break;
          case 2:
            acc -= v >> 2;
            break;
          default:
            table[(x >> 20) & 4095] = std::uint32_t(acc);
        }
    }
    double took = now() - t0;
    sink = acc;
    return took;
}

void
armProbes(unsigned every)
{
    std::lock_guard<std::mutex> lock(slicesMutex);
    slices.clear();
    points = 0;
    armedEvery = every;
}

std::vector<double>
disarmProbes()
{
    armedEvery = 0;
    std::lock_guard<std::mutex> lock(slicesMutex);
    return std::move(slices);
}

void
probePoint()
{
    unsigned every = armedEvery.load();
    if (every == 0 || ++points % every != 0)
        return;
    double took = probeSlice();
    std::lock_guard<std::mutex> lock(slicesMutex);
    slices.push_back(took);
}

double
hostSlowdown(const std::vector<double> &slices)
{
    if (slices.empty())
        return 1.0;
    double sum = 0.0;
    for (double s : slices)
        sum += s;
    return sum / double(slices.size()) / kProbeReferenceSeconds;
}

} // namespace cbench
