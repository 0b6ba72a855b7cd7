/**
 * @file
 * The MiniAlpha functional emulator ("oracle core").
 *
 * Timing models drive their correct path from this emulator: each step()
 * architecturally executes one instruction and reports everything the
 * timing model needs (actual next PC, branch outcome, effective address).
 * Wrong-path work is decoded from the static Program image instead and is
 * never executed here.
 */

#ifndef SIMALPHA_ISA_EMULATOR_HH
#define SIMALPHA_ISA_EMULATOR_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace simalpha {

/** One architecturally executed (correct-path) dynamic instruction. */
struct ExecutedInst
{
    InstSeq seq = 0;            ///< dynamic instruction number
    Addr pc = 0;
    Addr nextPc = 0;            ///< actual successor PC
    const DecodedInst *dec = nullptr;   ///< in Program::decoded()
    Addr effAddr = kNoAddr;     ///< effective address for memory ops
    bool taken = false;         ///< control transfer taken (non-fallthrough)
    bool halted = false;        ///< this instruction was a Halt
};

/** A program's initial data as read-only 4 KB pages: the shared base
 *  every emulator of the program starts from (Program::dataImage()). */
struct PageImage
{
    static constexpr Addr kPageShift = 12;
    static constexpr Addr kPageBytes = Addr(1) << kPageShift;
    using Page = std::array<std::uint8_t, kPageBytes>;

    std::vector<Addr> pageNos;                  ///< ascending
    std::vector<std::unique_ptr<Page>> pages;   ///< pages[i] is pageNos[i]
    std::unordered_map<Addr, std::size_t> slotOf;   ///< page number → i
    std::size_t dataWords = 0;  ///< Program::data entries it holds

    /** Lay @p data out as pages (later words win, as in memory). */
    static std::shared_ptr<const PageImage>
    build(const std::vector<std::pair<Addr, RegVal>> &data);
};

/**
 * Sparse byte-addressable memory backed by 4 KB pages. Loads of never-
 * written locations return zero, matching a zero-filled address space,
 * unless the memory starts from a PageImage: then reads see the image
 * and the first write to an image page copies it (copy-on-write), so
 * construction costs nothing per word and the copied pages are exactly
 * the ones written.
 *
 * Aligned accesses that fit inside one page (the overwhelmingly common
 * case) take a single page lookup through a one-entry page cache and a
 * memcpy; accesses that straddle a page boundary or are misaligned fall
 * back to the byte loop. Both paths produce identical bytes.
 */
class SparseMemory
{
  public:
    SparseMemory() = default;
    /** Start as @p image. */
    explicit SparseMemory(std::shared_ptr<const PageImage> image)
        : _image(std::move(image))
    {
    }

    RegVal read64(Addr addr) const;
    void write64(Addr addr, RegVal value);
    std::uint32_t read32(Addr addr) const;
    void write32(Addr addr, std::uint32_t value);

    /** Pages written since construction or clear(): copied image
     *  pages plus pages outside the image (tests / footprint stats). */
    std::size_t pagesTouched() const;

    /** Every nonzero word, the image's included, sorted by address. */
    std::vector<std::pair<Addr, RegVal>> exportWords() const;

    /** The words that differ from the image, sorted by address: a
     *  zero where the program cleared an image word. Depends only on
     *  the memory's contents, never on which pages were copied. */
    std::vector<std::pair<Addr, RegVal>> exportDelta() const;

    /** Drop every written page: memory reads as the image again. */
    void clear();

  private:
    using Page = PageImage::Page;
    static constexpr Addr kPageShift = PageImage::kPageShift;
    static constexpr Addr kPageBytes = PageImage::kPageBytes;
    static constexpr Addr kNoPage = ~Addr(0);

    const Page *findPage(Addr page_no) const;
    Page &touchPage(Addr page_no);
    /** One-entry caches over findPage/touchPage. Pages are never freed
     *  except by clear(), so the pointers are stable across rehashes;
     *  a write also points the read cache at the page it wrote, so a
     *  read never sees an image page that has since been copied. */
    const Page *cachedFind(Addr addr) const;
    Page &cachedTouch(Addr addr);
    /** Export words that differ from the image (delta) or from zero. */
    std::vector<std::pair<Addr, RegVal>> words(bool delta) const;

    std::shared_ptr<const PageImage> _image;
    /** Private copies of image pages by image slot (null: still the
     *  image's); sized on the first write to the image. */
    std::vector<std::unique_ptr<Page>> _copies;
    /** Written pages outside the image. */
    std::unordered_map<Addr, std::unique_ptr<Page>> _extra;
    mutable Addr _readNo = kNoPage;
    mutable const Page *_readPage = nullptr;
    Addr _writeNo = kNoPage;
    Page *_writePage = nullptr;
};

/**
 * A snapshot of architectural state (registers, PC, memory), restorable
 * onto an emulator of the same program — the checkpoint facility
 * sim-alpha inherited from the SimpleScalar tool set.
 */
struct Checkpoint
{
    std::array<RegVal, kNumIntRegs + kNumFpRegs> regs{};
    Addr pc = 0;
    InstSeq seq = 0;
    bool halted = false;
    /** (address, 64-bit word) pairs sorted by address. From
     *  Emulator::checkpoint(): the delta over the program's data image
     *  (SparseMemory::exportDelta()). From Emulator::fullState() and
     *  Machine::architecturalState(): every nonzero word. */
    std::vector<std::pair<Addr, RegVal>> memory;
};

class Emulator
{
  public:
    explicit Emulator(const Program &program);

    /** Capture the architectural state as registers plus the memory
     *  delta over the program's data image. */
    Checkpoint checkpoint() const;

    /** The same state with every nonzero memory word instead of the
     *  delta: the form state digests hash (inject::archDigest). */
    Checkpoint fullState() const;

    /** Restore a checkpoint() of the same program: the image plus the
     *  delta. The memory first drops every page it copied. */
    void restore(const Checkpoint &ckpt);

    /** Execute one instruction; undefined after halted(). */
    ExecutedInst step();

    /**
     * Architecturally execute up to `max_insts` instructions through the
     * predecoded batch dispatcher (computed goto),
     * without materializing per-instruction records — the fast-forward
     * path for checkpoint collection and `--sample` runs. Stops early at
     * Halt. State afterwards is byte-identical to calling step() the
     * same number of times. Under SIMALPHA_SLOWPATH=1 the batch runs
     * through the retained switch interpreter instead, asserting per
     * instruction that the predecoded image agrees with a fresh decode.
     * @return instructions executed
     */
    std::uint64_t run(std::uint64_t max_insts);

    bool halted() const { return _halted; }
    Addr pc() const { return _pc; }
    InstSeq instsExecuted() const { return _seq; }

    RegVal readIntReg(int i) const;
    double readFpReg(int i) const;

    /**
     * XOR one bit of an architectural register (soft-error
     * injection). Callers should treat the hardwired-zero registers
     * as masked-by-construction: reads bypass the backing array, but
     * a flipped backing word would still show up in checkpoint().
     */
    void
    flipRegisterBit(std::uint64_t reg, std::uint32_t bit)
    {
        _regs[std::size_t(reg % (kNumIntRegs + kNumFpRegs))] ^=
            RegVal(1) << (bit % 64);
    }

    SparseMemory &memory() { return _mem; }
    const SparseMemory &memory() const { return _mem; }

    const Program &program() const { return _prog; }

    /** The program's shared decode, Program::decoded() (exposed for
     *  equivalence tests). */
    const std::vector<DecodedInst> &decodedText() const { return _dec; }

    /** Predecode one instruction (pure; used for the slowpath check). */
    static DecodedInst
    decodeOne(const Instruction &inst)
    {
        return decode(inst);
    }

  private:
    /** Extended register file layout: slots 0..63 are the architectural
     *  registers; kZeroSlot is a hardwired-zero source (never written);
     *  kSinkSlot absorbs writes to zero registers / kNoReg (never
     *  read). Remapping operands into these slots at decode time
     *  removes every zero-register branch from the execute loops. */
    static constexpr std::size_t kZeroSlot = DecodedInst::kZeroSlot;
    static constexpr std::size_t kSinkSlot = DecodedInst::kSinkSlot;

    RegVal reg(RegIndex r) const;
    void setReg(RegIndex r, RegVal v);
    Checkpoint capture(std::vector<std::pair<Addr, RegVal>> memory) const;

    ExecutedInst stepFast();
    /** The original fully-generic switch interpreter, retained as the
     *  SIMALPHA_SLOWPATH=1 reference; asserts decode equivalence. */
    ExecutedInst stepSlow();
    /** Aligned to a cache line, so the computed-goto loop's layout, and
     *  with it the fast-forward speed, does not move with the size of
     *  unrelated code linked ahead of it. */
    [[gnu::aligned(64)]] std::uint64_t runBatch(std::uint64_t max_insts);

    const Program &_prog;
    SparseMemory _mem;
    std::array<RegVal, kNumIntRegs + kNumFpRegs + 2> _regs{};
    const std::vector<DecodedInst> &_dec;  ///< _prog.decoded()
    Addr _pc;
    std::int64_t _ip;           ///< text index of _pc, or -1 if outside
    InstSeq _seq = 0;
    bool _halted = false;
    bool _slowpath = false;     ///< SIMALPHA_SLOWPATH=1 at construction
};

} // namespace simalpha

#endif // SIMALPHA_ISA_EMULATOR_HH
