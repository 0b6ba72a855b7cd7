/**
 * @file
 * The MiniAlpha ISA: a faithful Alpha-subset RISC used by every workload
 * in this repository.
 *
 * MiniAlpha keeps the properties of the Alpha ISA that the 21264 pipeline
 * model cares about: fixed 4-byte instructions fetched in octaword-aligned
 * packets of four, 32 integer + 32 floating-point registers with a
 * hardwired zero register in each file (r31/f31), `unop` padding, separate
 * PC-relative conditional/unconditional branches versus indirect jumps
 * (whose targets cannot be computed by the slot-stage adder), and the
 * instruction-class latencies of Table 1 of the paper.
 */

#ifndef SIMALPHA_ISA_ISA_HH
#define SIMALPHA_ISA_ISA_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"

namespace simalpha {

struct PageImage;   // isa/emulator.hh

/** Number of architectural integer (and, separately, fp) registers. */
constexpr int kNumIntRegs = 32;
constexpr int kNumFpRegs = 32;

/** The hardwired zero registers. */
constexpr int kIntZeroReg = 31;
constexpr int kFpZeroReg = 31;

/**
 * A flat architectural register index: 0..31 integer, 32..63 fp.
 * kNoReg means "no register operand".
 */
using RegIndex = std::uint8_t;
constexpr RegIndex kNoReg = 255;

inline RegIndex intReg(int i) { return RegIndex(i); }
inline RegIndex fpReg(int i) { return RegIndex(kNumIntRegs + i); }
inline bool isFpRegIndex(RegIndex r) { return r != kNoReg && r >= kNumIntRegs; }
inline bool
isZeroRegIndex(RegIndex r)
{
    return r == intReg(kIntZeroReg) || r == fpReg(kFpZeroReg);
}

/** MiniAlpha opcodes. */
enum class Op : std::uint8_t
{
    // Integer operate.
    Addq,       ///< rc = ra + rb
    Subq,       ///< rc = ra - rb
    Mulq,       ///< rc = ra * rb
    And,        ///< rc = ra & rb
    Bis,        ///< rc = ra | rb (Alpha's OR)
    Xor,        ///< rc = ra ^ rb
    Sll,        ///< rc = ra << (rb & 63)
    Srl,        ///< rc = ra >> (rb & 63) (logical)
    Cmpeq,      ///< rc = (ra == rb)
    Cmplt,      ///< rc = (signed ra < rb)
    Cmple,      ///< rc = (signed ra <= rb)
    Lda,        ///< rc = rb + imm (also used as "load immediate" with rb=r31)
    Cmoveq,     ///< if (ra == 0) rc = rb  (reads old rc as well)
    Cmovne,     ///< if (ra != 0) rc = rb

    // Memory.
    Ldq,        ///< rc = mem64[rb + imm]
    Stq,        ///< mem64[rb + imm] = ra
    Ldl,        ///< rc = sext(mem32[rb + imm]) (longword load)
    Stl,        ///< mem32[rb + imm] = ra<31:0>
    Ldt,        ///< fc = mem64[rb + imm] (fp load)
    Stt,        ///< mem64[rb + imm] = fa (fp store)

    // Floating point operate (double unless noted).
    Addt,       ///< fc = fa + fb
    Subt,       ///< fc = fa - fb
    Mult,       ///< fc = fa * fb
    Divt,       ///< fc = fa / fb          (double divide)
    Divs,       ///< fc = fa / fb          (single divide)
    Sqrtt,      ///< fc = sqrt(fb)         (double)
    Sqrts,      ///< fc = sqrt(fb)         (single)
    Cpys,       ///< fc = fa (fp move / sign copy)

    // Control. Conditional branches test integer ra against zero.
    Beq,        ///< branch if ra == 0
    Bne,        ///< branch if ra != 0
    Blt,        ///< branch if ra < 0 (signed)
    Ble,        ///< branch if ra <= 0
    Bgt,        ///< branch if ra > 0
    Bge,        ///< branch if ra >= 0
    Br,         ///< unconditional PC-relative branch
    Bsr,        ///< PC-relative call: ra = return address
    Jmp,        ///< indirect jump via rb (target NOT slot-computable)
    Jsr,        ///< indirect call via rb: ra = return address
    Ret,        ///< indirect return via rb (RAS-hinted)

    // Misc.
    Unop,       ///< the Alpha universal no-op (padding)
    Halt,       ///< terminate the program (stand-in for exit syscall)
};

/** Functional-unit / latency class of an instruction (Table 1). */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< 1 cycle
    IntMul,     ///< 7 cycles
    IntLoad,    ///< 3-cycle load-to-use on a D-cache hit
    IntStore,
    FpAdd,      ///< 4 cycles (covers FP add and multiply pipes' adds)
    FpMul,      ///< 4 cycles
    FpDivS,     ///< 12 cycles, unpipelined
    FpDivD,     ///< 15 cycles, unpipelined
    FpSqrtS,    ///< 18 cycles, unpipelined
    FpSqrtD,    ///< 33 cycles, unpipelined
    FpLoad,     ///< 4-cycle load-to-use on a D-cache hit
    FpStore,
    CondBranch,
    UncondBranch,   ///< 3 cycles (Table 1 "unconditional jump")
    Call,
    IndirectJump,
    Return,
    Nop,
    Halt,
};

/** A decoded MiniAlpha instruction. */
struct Instruction
{
    Op op = Op::Unop;
    RegIndex ra = kNoReg;       ///< first source (or link register for calls)
    RegIndex rb = kNoReg;       ///< second source / base register
    RegIndex rc = kNoReg;       ///< destination
    std::int64_t imm = 0;       ///< displacement / immediate
    std::int32_t target = -1;   ///< branch target, as a text-segment index

    OpClass opClass() const;

    bool isCondBranch() const;
    /** Any PC-relative control transfer (cond or uncond, incl. bsr). */
    bool isPcRelBranch() const;
    /** Indirect control transfer (jmp/jsr/ret): slot adder cannot help. */
    bool isIndirect() const;
    bool isControl() const { return isPcRelBranch() || isIndirect(); }
    bool isCall() const { return op == Op::Bsr || op == Op::Jsr; }
    bool isReturn() const { return op == Op::Ret; }
    bool
    isLoad() const
    {
        return op == Op::Ldq || op == Op::Ldl || op == Op::Ldt;
    }
    bool
    isStore() const
    {
        return op == Op::Stq || op == Op::Stl || op == Op::Stt;
    }
    bool isMem() const { return isLoad() || isStore(); }
    /** Access width in bytes for memory operations. */
    int
    memBytes() const
    {
        return (op == Op::Ldl || op == Op::Stl) ? 4 : 8;
    }
    bool isFp() const;
    bool isNop() const { return op == Op::Unop; }
    bool isHalt() const { return op == Op::Halt; }

    /** Execution latency in cycles (Table 1); loads report hit latency. */
    int latency() const;

    /**
     * Source architectural registers (zero registers excluded).
     * @param out array of at least 3 entries
     * @return number of sources written
     */
    int srcRegs(RegIndex out[3]) const;

    /** Destination register, or kNoReg (zero-register dests excluded). */
    RegIndex dstReg() const;

    std::string disassemble() const;
};

/** Mnemonic for an opcode. */
const char *opName(Op op);

/**
 * One predecoded instruction: everything the emulator and the timing
 * models ask of an Instruction, computed once per text index of a
 * Program (Program::decoded()) by decode() from the Instruction
 * predicates above, which stay the definition.
 *
 * The emulator half resolves operands to slots in an extended register
 * file (real registers 0..63, plus a hardwired zero-source slot and a
 * write-sink slot for discarded destinations), widens immediates, and
 * resolves PC-relative targets to text indices, so the execution loops
 * dispatch on `handler` without re-inspecting the encoding. The timing
 * half is the op class, latency, access width, control/memory flags,
 * and the architectural sources and destination with r31/f31 dropped.
 */
struct DecodedInst
{
    /** Extended register file slots (Emulator): never written / never
     *  read. */
    static constexpr std::uint8_t kZeroSlot = kNumIntRegs + kNumFpRegs;
    static constexpr std::uint8_t kSinkSlot = kZeroSlot + 1;

    /** `flags` bits. */
    enum Flag : std::uint16_t
    {
        kLoad = 1u << 0,
        kStore = 1u << 1,
        kFpQueue = 1u << 2,     ///< issues from the fp queue
        kControl = 1u << 3,
        kCondBranch = 1u << 4,
        kPcRel = 1u << 5,       ///< PC-relative control transfer
        kIndirect = 1u << 6,
        kCall = 1u << 7,
        kReturn = 1u << 8,
        kNop = 1u << 9,
        kHalt = 1u << 10,
    };

    std::uint8_t handler = 0;   ///< dense opcode, == uint8_t(Instruction::op)
    std::uint8_t srcA = 0;      ///< extended-file slot read for `ra`
    std::uint8_t srcB = 0;      ///< extended-file slot read for `rb`
    std::uint8_t dst = 0;       ///< extended-file slot written
    OpClass cls = OpClass::Nop;
    std::uint8_t latency = 1;   ///< Instruction::latency()
    std::uint8_t memBytes = 8;  ///< Instruction::memBytes()
    std::uint8_t numSrcs = 0;
    std::uint16_t flags = 0;
    RegIndex srcs[3] = {kNoReg, kNoReg, kNoReg};  ///< Instruction::srcRegs
    RegIndex archDst = kNoReg;  ///< Instruction::dstReg()
    std::int32_t target = -1;   ///< taken successor as a text index
    Addr targetPc = 0;          ///< taken successor as a PC (target >= 0)
    std::int64_t imm = 0;

    bool isLoad() const { return flags & kLoad; }
    bool isStore() const { return flags & kStore; }
    bool isMem() const { return flags & (kLoad | kStore); }
    bool isFpQueue() const { return flags & kFpQueue; }
    bool isControl() const { return flags & kControl; }
    bool isCondBranch() const { return flags & kCondBranch; }
    bool isPcRel() const { return flags & kPcRel; }
    bool isIndirect() const { return flags & kIndirect; }
    bool isCall() const { return flags & kCall; }
    bool isReturn() const { return flags & kReturn; }
    bool isNop() const { return flags & kNop; }
    bool isHalt() const { return flags & kHalt; }

    bool operator==(const DecodedInst &o) const = default;
};

/** Decode one instruction (pure). */
DecodedInst decode(const Instruction &inst);

/**
 * A loaded program image: a text segment of decoded instructions plus
 * initial data regions. Instruction i lives at textBase + 4*i.
 */
class Program
{
  public:
    static constexpr Addr kTextBase = 0x120000000ULL;
    static constexpr Addr kDataBase = 0x140000000ULL;
    static constexpr Addr kStackBase = 0x160000000ULL;

    std::vector<Instruction> text;

    /** Initial 64-bit data words: (address, value). */
    std::vector<std::pair<Addr, RegVal>> data;

    std::string name = "anonymous";

    Addr entryPc = kTextBase;

    Addr textBase() const { return kTextBase; }
    Addr pcOf(std::size_t index) const { return kTextBase + 4 * index; }

    /** Text index of a PC, or -1 if outside the text segment. */
    std::int64_t
    indexOf(Addr pc) const
    {
        if (pc < kTextBase || (pc - kTextBase) % 4 != 0)
            return -1;
        std::uint64_t idx = (pc - kTextBase) / 4;
        return idx < text.size() ? std::int64_t(idx) : -1;
    }

    /** Fetch the static instruction at a PC; Unop if out of range. */
    const Instruction &fetch(Addr pc) const;

    /**
     * The text decoded once, one DecodedInst per index, shared by every
     * Emulator and timing model of this program. Built on first use, so
     * building a program costs nothing extra; safe when several threads
     * ask at once, and lock-free once built. A copy of the Program
     * builds its own, so edit `text` before the first use.
     */
    const std::vector<DecodedInst> &
    decoded() const
    {
        return _decoded.get([this] { return buildDecoded(); });
    }

    /** decoded() at a PC; the unop record (fetch()'s unop) outside the
     *  text, as wrong-path fetch needs. */
    const DecodedInst &
    decodedAt(Addr pc) const
    {
        static const DecodedInst unop = decode(Instruction{});
        std::int64_t idx = indexOf(pc);
        return idx < 0 ? unop : decoded()[std::size_t(idx)];
    }

    /**
     * The initial data as one read-only page image, shared by every
     * Emulator of this program (each copies a page on its first write
     * to it). Built on first use, like decoded(). A copy of the Program
     * builds its own, so edit `data` before the first use.
     */
    std::shared_ptr<const PageImage> dataImage() const;

    /**
     * Build dataImage() and free `data`: from here on the image alone
     * stands for the words. A word appended later, or a copy of this
     * Program asking for an image of its own, fails its sim_assert.
     * For a program many cells share, whose word list would otherwise
     * live as long as the image.
     */
    void releaseData();
    bool dataReleased() const { return _dataReleased; }

  private:
    /** A value derived from the program, built on first use. Copying
     *  starts a fresh, empty slot. */
    template <typename T>
    struct LazySlot
    {
        LazySlot() = default;
        LazySlot(const LazySlot &) {}
        LazySlot &
        operator=(const LazySlot &)
        {
            ready.store(nullptr);
            value.reset();
            return *this;
        }

        /** The value, built by @p build under the lock on first use. */
        template <typename Build>
        const T &
        get(Build build)
        {
            if (const T *v = ready.load(std::memory_order_acquire))
                return *v;
            std::lock_guard<std::mutex> lock(mu);
            if (!value) {
                value = build();
                ready.store(value.get(), std::memory_order_release);
            }
            return *value;
        }

        std::mutex mu;
        std::shared_ptr<const T> value;
        std::atomic<const T *> ready{nullptr};
    };

    std::shared_ptr<const std::vector<DecodedInst>> buildDecoded() const;

    mutable LazySlot<std::vector<DecodedInst>> _decoded;
    mutable LazySlot<PageImage> _image;
    bool _dataReleased = false;
};

} // namespace simalpha

#endif // SIMALPHA_ISA_ISA_HH
