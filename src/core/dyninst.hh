/**
 * @file
 * The in-flight dynamic instruction record of the detailed core model.
 */

#ifndef SIMALPHA_CORE_DYNINST_HH
#define SIMALPHA_CORE_DYNINST_HH

#include "common/types.hh"
#include "core/slot_set.hh"
#include "isa/isa.hh"
#include "predictors/branch.hh"

namespace simalpha {

/** Physical register index; kNoPhys means "no destination". */
using PhysReg = std::int16_t;
constexpr PhysReg kNoPhys = -1;

struct DynInst
{
    // Fields the issue stage reads every active cycle come first, in
    // one cache line.
    InstSeq seq = 0;            ///< dynamic (fetch-order) number
    bool wrongPath = false;
    bool issued = false;
    bool completed = false;
    bool retiredEarly = false;      ///< unop removed at map (eret)
    std::uint8_t fitMask = 0;       ///< pipes able to execute it (map)
    bool taken = false;             ///< oracle outcome
    bool halt = false;              ///< oracle outcome
    bool mispredicted = false;      ///< resolves at execute
    /** The static instruction: its Program::decoded() record, or the
     *  unop record for a wrong-path PC outside the text. */
    const DecodedInst *dec = nullptr;
    /** Issue select (AlphaCore::doIssue; DESIGN.md section 5.9): the
     *  wake-up list link while parked on a pending source. */
    DynInst *nextWaiter = nullptr;
    Cycle readyForMap = 0;
    Cycle mapCycle = kNoCycle;
    Cycle issueCycle = kNoCycle;
    Cycle replayBlockedUntil = 0;   ///< earliest re-issue after a replay

    InstSeq oracleSeq = 0;      ///< emulator sequence (correct path only)
    Addr pc = 0;

    // Oracle outcome (meaningless on the wrong path).
    Addr nextPc = 0;
    Addr effAddr = kNoAddr;

    /** Cycle at which same-cluster consumers may issue. */
    Cycle doneCycle = kNoCycle;

    // Front-end prediction state.
    Addr lpTrainPc = kNoAddr;       ///< line-predictor retire training
    Addr lpTrainNext = kNoAddr;
    ReturnAddressStack::Snapshot rasSnap;
    BranchSnapshot bpSnap;
    bool hasBpSnap = false;
    bool hasRasSnap = false;

    // Memory behaviour.
    bool dcacheHit = false;
    bool memIssued = false;         ///< address resolved / access begun
    bool predictedHit = false;      ///< load-use predictor's call

    // Rename state (correct path only; wrong-path insts do not rename).
    RegIndex archDst = kNoReg;
    PhysReg srcPhys[3] = {kNoPhys, kNoPhys, kNoPhys};
    PhysReg dstPhys = kNoPhys;
    PhysReg oldPhys = kNoPhys;      ///< previous mapping of the arch dest
    std::uint8_t numSrcs = 0;

    // Execution placement.
    std::int8_t cluster = -1;       ///< resolved at issue
    std::uint8_t slottedUpper = 0;  ///< subcluster assignment from slot

    // Issue select (AlphaCore; DESIGN.md section 5.9).
    std::uint16_t slot = 0;         ///< ring slot, fixed from fetch on
    /** Per cluster, the timing-wheel bucket holding it (kNoBucket:
     *  none). */
    std::uint8_t wheelBucket[2] = {kNoBucket, kNoBucket};
};

} // namespace simalpha

#endif // SIMALPHA_CORE_DYNINST_HH
