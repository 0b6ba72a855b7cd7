/**
 * @file
 * TimedCore: the shell of both timing cores, AlphaCore and RuuCore. It
 * holds the state they share and measures a run, a sampled window and
 * a strike once, so the two differ only in the pipelines they model
 * (DESIGN.md section 5.9). Each core resets its own units
 * (resetMachine) and ticks its own pipeline (runLoop).
 */

#ifndef SIMALPHA_CORE_TIMED_CORE_HH
#define SIMALPHA_CORE_TIMED_CORE_HH

#include <memory>
#include <string>

#include "common/error.hh"
#include "core/oracle.hh"
#include "inject/inject.hh"
#include "isa/machine.hh"
#include "memory/hierarchy.hh"
#include "predictors/branch.hh"

namespace simalpha {

class TimedCore : public Machine
{
  public:
    RunResult run(const Program &program,
                  std::uint64_t max_insts = 0) override;

    RunResult runWindow(const Program &program, const Checkpoint &start,
                        std::uint64_t warmup_insts,
                        std::uint64_t measure_insts,
                        std::map<std::string, std::uint64_t>
                            *measured_counters = nullptr) override;

    stats::Group &statGroup() override { return _stats; }

    bool armInjection(const inject::StateInjection *injection,
                      Cycle cycle_budget) override;
    std::string injectionNote() const override { return _injectNote; }
    bool architecturalState(Checkpoint *out) const override;

  protected:
    explicit TimedCore(const std::string &name);

    /** Reset the units and per-run state the core owns alone, after
     *  the shell has reset its own and built the oracle. */
    virtual void resetMachine() = 0;
    /** Tick until halt or _maxInsts commits. The strike, the cycle
     *  budget and the forward-progress watchdog are checked at points
     *  each core keeps: they decide whether a struck run times out or
     *  deadlocks. */
    virtual void runLoop(const Program &program) = 0;

    /** Before a cycle's stages: jump to @p target(), the end of a
     *  stretch in which no stage can act (0 = none; capped at the
     *  watchdog horizon), and return true. The slowpath instead runs
     *  every cycle of the stretch, and the core asserts each idle. */
    template <typename Target>
    bool
    skipIdle(Target target)
    {
        if (!_slowpath) {
            Cycle j = target();
            if (j)
                _cycle = j;
            return j != 0;
        }
        if (_cycle >= _ffCheckUntil) {
            Cycle j = target();
            if (j)
                _ffCheckUntil = j;
        }
        _activity = false;
        return false;
    }
    /** Throw TimeoutError once the cycle passes @p budget: the armed
     *  strike's _injectBudget (0 = none). */
    void
    checkBudget(Cycle budget) const
    {
        if (budget && _cycle > budget)
            throw TimeoutError("injected run exceeded its cycle budget (" +
                               std::to_string(budget) + " cycles)");
    }
    /** Flip the armed bit in a structure both cores share (regfile,
     *  bpred, cachetag, cachedata, tlbtag) and append what it hit to
     *  @p note. The cores flip their window targets (rob, lsq, iq,
     *  renamemap) themselves. */
    void applySharedFlip(std::string &note);
    /** A deadlock snapshot's common fields, with @p window entries in
     *  flight; the core adds its oldest entry and its detail string. */
    DeadlockInfo deadlockHeader(const Program &program,
                                std::size_t window) const;

    stats::Group _stats;

    const Program *_prog = nullptr;
    std::unique_ptr<OracleStream> _oracle;
    /** Built by the core's first resetMachine(), reset on reuse. */
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<TournamentPredictor> _branchPred;

    Cycle _cycle = 0;
    InstSeq _seqCounter = 0;
    std::uint64_t _committed = 0;
    std::uint64_t _maxInsts = 0;
    bool _finished = false;
    Cycle _lastCommitCycle = 0;

    Addr _fetchPc = 0;
    Cycle _fetchResumeAt = 0;
    bool _wrongPathMode = false;
    bool _haltFetched = false;

    /** SIMALPHA_SLOWPATH=1: run the original scans and walks, keep the
     *  fast bookkeeping alongside, and assert they agree. */
    bool _slowpath = false;
    Cycle _ffCheckUntil = 0;     ///< slowpath: predicted-idle window end
    bool _activity = false;      ///< slowpath: a stage acted this cycle

    // ---- State injection (inert unless armed) ------------------------
    inject::StateInjection _inject;  ///< armed spec (None = disarmed)
    Cycle _injectBudget = 0;         ///< cycle cap on injected runs
    /** True while armed and the flip has not struck yet: the single
     *  flag the per-cycle poll reads, so disarmed runs pay one
     *  predicted-not-taken branch per tick. */
    bool _injectPending = false;
    std::string _injectNote;         ///< what the last strike hit

  private:
    /** Reset the shell's per-run state, then the core's. */
    void startRun(const Program &program, const Checkpoint *start);
    /** The last run's result since (@p cycles, @p insts), with the
     *  cycle and commit counters brought up to date. */
    RunResult result(const Program &program, Cycle cycles,
                     std::uint64_t insts);
    void publishCounts();

    stats::Counter &_cyclesStat;
    stats::Counter &_committedStat;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_TIMED_CORE_HH
