/**
 * @file
 * ProgramBuilder: a fluent in-process assembler for MiniAlpha.
 *
 * Workload generators construct programs through this interface:
 *
 *     ProgramBuilder b("loop-demo");
 *     b.lda(R(1), 100);
 *     b.label("top");
 *     b.subq(R(1), R(2), R(1));  // uses r2 preloaded with 1
 *     b.bne(R(1), "top");
 *     b.halt();
 *     Program p = b.finish();
 *
 * Labels may be referenced before definition; finish() resolves them and
 * fails fatally on dangling references.
 */

#ifndef SIMALPHA_ISA_ASSEMBLER_HH
#define SIMALPHA_ISA_ASSEMBLER_HH

#include <map>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace simalpha {

/** Convenience constructors for register indices. */
inline RegIndex R(int i) { return intReg(i); }
inline RegIndex F(int i) { return fpReg(i); }

class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** Define a label at the current text position. */
    ProgramBuilder &label(const std::string &name);

    // Integer operate.
    ProgramBuilder &addq(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &subq(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &mulq(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &and_(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &bis(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &xor_(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &sll(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &srl(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &cmpeq(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &cmplt(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &cmple(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &cmoveq(RegIndex ra, RegIndex rb, RegIndex rc);
    ProgramBuilder &cmovne(RegIndex ra, RegIndex rb, RegIndex rc);

    /** rc = rb + imm; lda(rc, imm) alone is "load immediate". */
    ProgramBuilder &lda(RegIndex rc, std::int64_t imm,
                        RegIndex rb = intReg(kIntZeroReg));

    // Memory.
    ProgramBuilder &ldq(RegIndex rc, std::int64_t disp, RegIndex base);
    ProgramBuilder &stq(RegIndex ra, std::int64_t disp, RegIndex base);
    ProgramBuilder &ldl(RegIndex rc, std::int64_t disp, RegIndex base);
    ProgramBuilder &stl(RegIndex ra, std::int64_t disp, RegIndex base);
    ProgramBuilder &ldt(RegIndex fc, std::int64_t disp, RegIndex base);
    ProgramBuilder &stt(RegIndex fa, std::int64_t disp, RegIndex base);

    // Floating point.
    ProgramBuilder &addt(RegIndex fa, RegIndex fb, RegIndex fc);
    ProgramBuilder &subt(RegIndex fa, RegIndex fb, RegIndex fc);
    ProgramBuilder &mult(RegIndex fa, RegIndex fb, RegIndex fc);
    ProgramBuilder &divt(RegIndex fa, RegIndex fb, RegIndex fc);
    ProgramBuilder &divs(RegIndex fa, RegIndex fb, RegIndex fc);
    ProgramBuilder &sqrtt(RegIndex fb, RegIndex fc);
    ProgramBuilder &sqrts(RegIndex fb, RegIndex fc);
    ProgramBuilder &cpys(RegIndex fa, RegIndex fc);

    // Control.
    ProgramBuilder &beq(RegIndex ra, const std::string &target);
    ProgramBuilder &bne(RegIndex ra, const std::string &target);
    ProgramBuilder &blt(RegIndex ra, const std::string &target);
    ProgramBuilder &ble(RegIndex ra, const std::string &target);
    ProgramBuilder &bgt(RegIndex ra, const std::string &target);
    ProgramBuilder &bge(RegIndex ra, const std::string &target);
    ProgramBuilder &br(const std::string &target);
    ProgramBuilder &bsr(RegIndex link, const std::string &target);
    ProgramBuilder &jmp(RegIndex rb);
    ProgramBuilder &jsr(RegIndex link, RegIndex rb);
    ProgramBuilder &ret(RegIndex rb);

    // Misc.
    ProgramBuilder &unop(int count = 1);
    ProgramBuilder &halt();

    /** Deposit an initial 64-bit word in the data segment. */
    ProgramBuilder &dataWord(Addr addr, RegVal value);
    /** Room for @p words data words in all, so that a large image is
     *  deposited without regrowing the word list. */
    void reserveData(std::size_t words) { _prog.data.reserve(words); }

    /** Deposit the PC of a label (resolved at finish) — jump tables. */
    ProgramBuilder &dataWordLabel(Addr addr, const std::string &label);

    /** Current text index (for computing label-free loop bounds). */
    std::size_t here() const { return _prog.text.size(); }

    /**
     * Pad with unops until the next instruction lands on an octaword
     * (16-byte, 4-instruction) boundary, optionally offset by `slot`
     * instructions past the boundary.
     */
    ProgramBuilder &alignOctaword(int slot = 0);

    /** Resolve labels and return the finished program. */
    Program finish();

  private:
    Instruction &emit(Op op);
    ProgramBuilder &branchTo(Op op, RegIndex ra, const std::string &target);

    Program _prog;
    std::map<std::string, std::int32_t> _labels;
    std::vector<std::pair<std::size_t, std::string>> _fixups;
    std::vector<std::pair<Addr, std::string>> _dataFixups;
    bool _finished = false;
};

} // namespace simalpha

#endif // SIMALPHA_ISA_ASSEMBLER_HH
