/**
 * @file
 * A synchronous DRAM timing model after Cuppu et al. [ISCA 1999], the
 * model the paper plugs into sim-alpha.
 *
 * The device is organized as independent banks, each with one open row.
 * An access pays:
 *   - controller overhead (CPU cycles each way),
 *   - precharge if the bank has a different row open (row miss under the
 *     open-page policy, or always under the closed-page policy),
 *   - RAS (row activate) if no row is open,
 *   - CAS (column access),
 * all in DRAM cycles scaled by the CPU/DRAM clock ratio, plus the data
 * transfer on the memory bus.
 *
 * The calibrated DS-10L parameters from Section 4.2 of the paper are the
 * defaults: open-page policy, 2-cycle RAS, 4-cycle CAS, 2-cycle
 * precharge, 2 CPU cycles of controller latency (total, both ways).
 */

#ifndef SIMALPHA_MEMORY_DRAM_HH
#define SIMALPHA_MEMORY_DRAM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "memory/memlevel.hh"

namespace simalpha {

struct DramParams
{
    /** Which DRAM timing backend to instantiate ("classic" is the
     *  calibrated Cuppu-style model below; "openpage" adds a row-buffer
     *  policy with bank queueing and FR-FCFS-style promotion). The cell
     *  manifest records this only when it differs from classic, so every
     *  pre-existing manifest hash — and with it every golden table and
     *  store key — is unchanged. */
    std::string backend = "classic";
    int banks = 4;
    int rowBytes = 4096;            ///< DRAM page (row) size
    int rasCycles = 2;              ///< row activate, DRAM cycles
    int casCycles = 4;              ///< column access, DRAM cycles
    int prechargeCycles = 2;        ///< precharge, DRAM cycles
    int controllerCycles = 2;       ///< CPU cycles, total both ways
    int cpuCyclesPerDramCycle = 4;  ///< DRAM runs at ~25% CPU speed
    bool openPage = true;           ///< open- vs closed-page policy
    /** When nonzero, bypass the bank model entirely and charge this
     *  fixed latency (the abstract sim-outorder memory). */
    int flatLatency = 0;
    /** Controller request reordering (the hardware-only optimization the
     *  paper suspects): precharge/activate overlap behind other work,
     *  halving the row-miss penalty. */
    bool reorderingController = false;
    int busBytesPerBeat = 8;        ///< 64-bit memory bus
    int busCpuCyclesPerBeat = 4;
    int blockBytes = 64;            ///< transfer granularity (L2 block)

    /** Write-to-read turnaround on a bank, DRAM cycles (openpage only). */
    int writeToReadCycles = 2;
};

/**
 * The cell-selectable DRAM timing interface. Every backend is a timed
 * MemLevel plus the reset/stat surface the hierarchy and campaigns rely
 * on; which one a cell gets is chosen by `DramParams::backend` (e.g. the
 * `+dram=openpage` machine-name suffix).
 */
class DramBackend : public MemLevel
{
  public:
    virtual stats::Group &statGroup() = 0;
    virtual std::uint64_t rowHits() const = 0;
    virtual std::uint64_t rowMisses() const = 0;

    /** Restore freshly-constructed state (campaign core reuse). */
    virtual void reset() = 0;

    virtual const char *backendName() const = 0;
};

/** Valid `DramParams::backend` names, for validation and error text. */
const std::vector<std::string> &dramBackendNames();

/**
 * Instantiate the backend `params.backend` names; fatal on an unknown
 * name (machine-name parsing validates earlier with a soft error).
 */
std::unique_ptr<DramBackend> makeDramBackend(const DramParams &params);

class Dram : public DramBackend
{
  public:
    explicit Dram(const DramParams &params);

    AccessResult access(Addr addr, bool is_write, Cycle now) override;

    stats::Group &statGroup() override { return _stats; }
    std::uint64_t rowHits() const override { return _rowHits.value(); }
    std::uint64_t rowMisses() const override { return _rowMisses.value(); }

    const char *backendName() const override { return "classic"; }

    void
    reset() override
    {
        _banks.assign(_banks.size(), Bank{});
        _bus.reset();
        _stats.reset();
    }

  private:
    struct Bank
    {
        Cycle nextFree = 0;
        Addr openRow = kNoAddr;
    };

    DramParams _p;
    std::vector<Bank> _banks;
    Bus _bus;
    stats::Group _stats;
    stats::Counter &_reads;
    stats::Counter &_writes;
    stats::Counter &_rowHits;
    stats::Counter &_rowMisses;
};

/**
 * The `openpage` backend: an open-page row-buffer policy with per-bank
 * state the classic model does not track — write-to-read bus turnaround,
 * a serializing command bus shared by all banks, and an FR-FCFS-style
 * controller that lets a row-buffer hit overtake queued row-miss work on
 * a busy bank (the reordering the paper's §4.2 suspects the real DS-10L
 * controller of, modeled as a bounded queue-delay credit rather than the
 * classic model's blanket halving of the miss penalty).
 */
class OpenPageDram : public DramBackend
{
  public:
    explicit OpenPageDram(const DramParams &params);

    AccessResult access(Addr addr, bool is_write, Cycle now) override;

    stats::Group &statGroup() override { return _stats; }
    std::uint64_t rowHits() const override { return _rowHits.value(); }
    std::uint64_t rowMisses() const override { return _rowMisses.value(); }

    const char *backendName() const override { return "openpage"; }

    void
    reset() override
    {
        _banks.assign(_banks.size(), Bank{});
        _cmdBus.reset();
        _dataBus.reset();
        _stats.reset();
    }

  private:
    struct Bank
    {
        Cycle nextFree = 0;
        Addr openRow = kNoAddr;
        bool lastWasWrite = false;
    };

    DramParams _p;
    std::vector<Bank> _banks;
    Bus _cmdBus;
    Bus _dataBus;
    stats::Group _stats;
    stats::Counter &_reads;
    stats::Counter &_writes;
    stats::Counter &_rowHits;
    stats::Counter &_rowMisses;
    stats::Counter &_conflicts;
    stats::Counter &_promotions;
};

} // namespace simalpha

#endif // SIMALPHA_MEMORY_DRAM_HH
