/**
 * @file
 * OracleStream: a rewindable window over the functional emulator's
 * correct-path instruction stream.
 *
 * The timing model steps the emulator at fetch time. Replay traps refetch
 * correct-path instructions that already executed architecturally, so the
 * stream buffers records until they retire and supports rewinding the
 * read cursor to any still-buffered sequence number.
 */

#ifndef SIMALPHA_CORE_ORACLE_HH
#define SIMALPHA_CORE_ORACLE_HH

#include "common/ring.hh"
#include "isa/emulator.hh"

namespace simalpha {

class OracleStream
{
  public:
    explicit OracleStream(const Program &program);

    /** Start the stream from restored architectural state instead of
     *  reset: the emulator resumes at @p start and delivered records
     *  carry sequence numbers continuing from start.seq (which is
     *  also the rewind floor — nothing older is reachable). */
    OracleStream(const Program &program, const Checkpoint &start);

    /** Is another correct-path instruction available? */
    bool exhausted() const;

    /** PC of the next instruction the cursor will deliver. */
    Addr nextPc() const;

    /** Deliver the next correct-path record, stepping the emulator if
     *  the cursor is at the frontier. */
    const ExecutedInst &next();

    /** Rewind the cursor so `seq` is the next record delivered. */
    void rewindTo(InstSeq seq);

    /** Drop buffered records with seq < `seq` (they retired). */
    void retireBefore(InstSeq seq);

    std::size_t bufferedRecords() const { return _buffer.size(); }

    const Emulator &emulator() const { return _emu; }
    /** Mutable access for state injection (register/memory flips). */
    Emulator &emulator() { return _emu; }

  private:
    Emulator _emu;
    Ring<ExecutedInst> _buffer;         ///< records not yet retired
    std::size_t _cursor = 0;            ///< next index into _buffer
    InstSeq _baseSeq = 0;               ///< seq of _buffer.front()
};

} // namespace simalpha

#endif // SIMALPHA_CORE_ORACLE_HH
