/**
 * @file
 * The in-flight dynamic instruction record of the detailed core model.
 */

#ifndef SIMALPHA_CORE_DYNINST_HH
#define SIMALPHA_CORE_DYNINST_HH

#include "common/types.hh"
#include "isa/isa.hh"
#include "predictors/branch.hh"

namespace simalpha {

/** Physical register index; kNoPhys means "no destination". */
using PhysReg = std::int16_t;
constexpr PhysReg kNoPhys = -1;

struct DynInst
{
    InstSeq seq = 0;            ///< dynamic (fetch-order) number
    bool wrongPath = false;
    bool issued = false;
    bool completed = false;
    bool retiredEarly = false;      ///< unop removed at map (eret)

    // Issue-select state (AlphaCore::doIssue; DESIGN.md section 5.9),
    // kept with the flags above in the first cache line: the select
    // reads these for every queue entry each active cycle.
    OpClass cls = OpClass::Nop;     ///< inst.opClass(), cached at map
    std::uint8_t fitMask = 0;       ///< pipes able to execute it
    std::uint64_t readyEpoch = 0;
    /** Earliest issue cycle on cluster 0 / 1 (fp-queue entries use
     *  [0]), kNoCycle while a source is pending. Cached while
     *  readyEpoch equals the core's select epoch (0 = stale). */
    Cycle issueAt[2] = {kNoCycle, kNoCycle};
    DynInst *nextWaiter = nullptr;  ///< wake-up list link while parked

    InstSeq oracleSeq = 0;      ///< emulator sequence (correct path only)
    Addr pc = 0;
    Instruction inst;

    // Oracle outcome (meaningless on the wrong path).
    Addr nextPc = 0;
    bool taken = false;
    Addr effAddr = kNoAddr;
    bool halt = false;

    // Front-end prediction state.
    bool hasBpSnap = false;
    BranchSnapshot bpSnap;
    bool hasRasSnap = false;
    ReturnAddressStack::Snapshot rasSnap;
    bool predTaken = false;
    Addr predNextFetch = kNoAddr;   ///< what fetch continued with
    bool mispredicted = false;      ///< resolves at execute
    Addr lpTrainPc = kNoAddr;       ///< line-predictor retire training
    Addr lpTrainNext = kNoAddr;

    // Rename state (correct path only; wrong-path insts do not rename).
    PhysReg srcPhys[3] = {kNoPhys, kNoPhys, kNoPhys};
    int numSrcs = 0;
    PhysReg dstPhys = kNoPhys;
    PhysReg oldPhys = kNoPhys;      ///< previous mapping of the arch dest
    RegIndex archDst = kNoReg;

    // Pipeline timing.
    Cycle fetchCycle = 0;
    Cycle readyForMap = 0;
    Cycle mapCycle = kNoCycle;
    Cycle issueCycle = kNoCycle;
    /** Cycle at which same-cluster consumers may issue. */
    Cycle doneCycle = kNoCycle;

    // Execution placement.
    int cluster = -1;               ///< resolved at issue
    int slottedUpper = 0;           ///< subcluster assignment from slot

    // Memory behaviour.
    bool dcacheHit = false;
    bool memIssued = false;         ///< address resolved / access begun
    bool predictedHit = false;      ///< load-use predictor's call
    Cycle replayBlockedUntil = 0;   ///< earliest re-issue after a replay

    bool isBranchLike() const { return inst.isControl(); }
};

} // namespace simalpha

#endif // SIMALPHA_CORE_DYNINST_HH
