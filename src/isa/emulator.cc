#include "emulator.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace simalpha {

std::shared_ptr<const PageImage>
PageImage::build(const std::vector<std::pair<Addr, RegVal>> &data)
{
    // Pass 1 finds every page a word touches. Pages within a window
    // above the lowest one (the contiguous footprints of the bundled
    // workloads) are indexed by a dense vector; the window is at most
    // as many pages as there are words, so its index costs less than
    // the word list. Pages beyond it (a far dispatch table) go in a
    // map.
    constexpr std::uint32_t kUnset = ~std::uint32_t(0);
    Addr lo = kNoAddr;
    for (const auto &entry : data)
        lo = std::min(lo, entry.first >> kPageShift);
    const Addr window = Addr(data.size()) + 64;
    std::vector<std::uint32_t> dense;
    std::unordered_map<Addr, std::uint32_t> sparse;
    auto mark = [&](Addr page_no) {
        Addr off = page_no - lo;
        if (off >= window) {
            sparse.emplace(page_no, kUnset);
        } else {
            if (off >= dense.size())
                dense.resize(std::size_t(off) + 1, kUnset);
            dense[std::size_t(off)] = 0;
        }
    };
    for (const auto &entry : data) {
        mark(entry.first >> kPageShift);
        mark((entry.first + 7) >> kPageShift);
    }

    // Number the pages in address order (every map page lies above
    // the window) and allocate them zero-filled.
    auto image = std::make_shared<PageImage>();
    image->dataWords = data.size();
    for (std::size_t off = 0; off < dense.size(); off++)
        if (dense[off] != kUnset)
            image->pageNos.push_back(lo + Addr(off));
    std::size_t dense_pages = image->pageNos.size();
    for (const auto &entry : sparse)
        image->pageNos.push_back(entry.first);
    std::sort(image->pageNos.begin() + std::ptrdiff_t(dense_pages),
              image->pageNos.end());
    image->pages.reserve(image->pageNos.size());
    image->slotOf.reserve(image->pageNos.size());
    for (std::size_t i = 0; i < image->pageNos.size(); i++) {
        Addr page_no = image->pageNos[i];
        (i < dense_pages ? dense[std::size_t(page_no - lo)]
                         : sparse[page_no]) = std::uint32_t(i);
        image->slotOf.emplace(page_no, i);
        image->pages.push_back(std::make_unique<Page>());
    }

    // Pass 2 stores each word in data order, so a repeated address
    // ends with its last value, as sequential stores would leave it.
    auto page_at = [&](Addr addr) -> Page & {
        Addr page_no = addr >> kPageShift;
        Addr off = page_no - lo;
        return *image->pages[off < window ? dense[std::size_t(off)]
                                          : sparse.at(page_no)];
    };
    for (const auto &[addr, value] : data) {
        Addr off = addr & (kPageBytes - 1);
        if (std::endian::native == std::endian::little &&
            off <= kPageBytes - 8) {
            std::memcpy(page_at(addr).data() + off, &value, 8);
            continue;
        }
        // A word straddling two pages (or a big-endian host): bytes.
        for (int i = 0; i < 8; i++) {
            Addr a = addr + Addr(i);
            page_at(a)[a & (kPageBytes - 1)] =
                std::uint8_t((value >> (8 * i)) & 0xff);
        }
    }
    return image;
}

std::shared_ptr<const PageImage>
Program::dataImage() const
{
    const PageImage &image = _image.get([this] {
        // Released words are gone: only the image built before the
        // release stands for them, and a copy starts without it.
        sim_assert(!_dataReleased);
        return PageImage::build(data);
    });
    sim_assert(_dataReleased ? data.empty()
                             : image.dataWords == data.size());
    return _image.value;
}

void
Program::releaseData()
{
    dataImage();
    decltype(data)().swap(data);
    _dataReleased = true;
}

const SparseMemory::Page *
SparseMemory::findPage(Addr page_no) const
{
    if (_image) {
        auto it = _image->slotOf.find(page_no);
        if (it != _image->slotOf.end()) {
            std::size_t slot = it->second;
            if (slot < _copies.size() && _copies[slot])
                return _copies[slot].get();
            return _image->pages[slot].get();
        }
    }
    auto it = _extra.find(page_no);
    return it == _extra.end() ? nullptr : it->second.get();
}

SparseMemory::Page &
SparseMemory::touchPage(Addr page_no)
{
    if (_image) {
        auto it = _image->slotOf.find(page_no);
        if (it != _image->slotOf.end()) {
            if (_copies.empty())
                _copies.resize(_image->pages.size());
            std::unique_ptr<Page> &copy = _copies[it->second];
            if (!copy)
                copy = std::make_unique<Page>(*_image->pages[it->second]);
            return *copy;
        }
    }
    auto &slot = _extra[page_no];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

const SparseMemory::Page *
SparseMemory::cachedFind(Addr addr) const
{
    Addr page_no = addr >> kPageShift;
    if (_readNo == page_no)
        return _readPage;
    const Page *p = findPage(page_no);
    if (p) {
        _readNo = page_no;
        _readPage = p;
    }
    return p;
}

SparseMemory::Page &
SparseMemory::cachedTouch(Addr addr)
{
    Addr page_no = addr >> kPageShift;
    if (_writeNo == page_no)
        return *_writePage;
    Page &p = touchPage(page_no);
    _writeNo = _readNo = page_no;
    _writePage = &p;
    _readPage = &p;
    return p;
}

std::size_t
SparseMemory::pagesTouched() const
{
    return _extra.size() +
           std::size_t(std::count_if(
               _copies.begin(), _copies.end(),
               [](const std::unique_ptr<Page> &copy) { return bool(copy); }));
}

void
SparseMemory::clear()
{
    _copies.clear();
    _extra.clear();
    _readNo = _writeNo = kNoPage;
    _readPage = nullptr;
    _writePage = nullptr;
}

RegVal
SparseMemory::read64(Addr addr) const
{
    if constexpr (std::endian::native == std::endian::little) {
        // Aligned accesses cannot straddle a page: one lookup + memcpy.
        if ((addr & 7) == 0) {
            const Page *p = cachedFind(addr);
            if (!p)
                return 0;
            RegVal v;
            std::memcpy(&v, p->data() + (addr & (kPageBytes - 1)), 8);
            return v;
        }
    }
    RegVal v = 0;
    // Handle straddling page boundaries byte-by-byte; the common case is
    // an aligned access entirely within one page.
    for (int i = 0; i < 8; i++) {
        Addr a = addr + Addr(i);
        const Page *p = cachedFind(a);
        std::uint8_t byte = p ? (*p)[a & (kPageBytes - 1)] : 0;
        v |= RegVal(byte) << (8 * i);
    }
    return v;
}

void
SparseMemory::write64(Addr addr, RegVal value)
{
    if constexpr (std::endian::native == std::endian::little) {
        if ((addr & 7) == 0) {
            Page &p = cachedTouch(addr);
            std::memcpy(p.data() + (addr & (kPageBytes - 1)), &value, 8);
            return;
        }
    }
    for (int i = 0; i < 8; i++) {
        Addr a = addr + Addr(i);
        cachedTouch(a)[a & (kPageBytes - 1)] =
            std::uint8_t((value >> (8 * i)) & 0xff);
    }
}

std::uint32_t
SparseMemory::read32(Addr addr) const
{
    if constexpr (std::endian::native == std::endian::little) {
        if ((addr & 3) == 0) {
            const Page *p = cachedFind(addr);
            if (!p)
                return 0;
            std::uint32_t v;
            std::memcpy(&v, p->data() + (addr & (kPageBytes - 1)), 4);
            return v;
        }
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
        Addr a = addr + Addr(i);
        const Page *p = cachedFind(a);
        std::uint8_t byte = p ? (*p)[a & (kPageBytes - 1)] : 0;
        v |= std::uint32_t(byte) << (8 * i);
    }
    return v;
}

void
SparseMemory::write32(Addr addr, std::uint32_t value)
{
    if constexpr (std::endian::native == std::endian::little) {
        if ((addr & 3) == 0) {
            Page &p = cachedTouch(addr);
            std::memcpy(p.data() + (addr & (kPageBytes - 1)), &value, 4);
            return;
        }
    }
    for (int i = 0; i < 4; i++) {
        Addr a = addr + Addr(i);
        cachedTouch(a)[a & (kPageBytes - 1)] =
            std::uint8_t((value >> (8 * i)) & 0xff);
    }
}

std::vector<std::pair<Addr, RegVal>>
SparseMemory::words(bool delta) const
{
    // (page number, current bytes, image bytes or null), in address
    // order; a delta visits only the pages written since clear().
    struct Source
    {
        Addr pageNo;
        const Page *now;
        const Page *base;
    };
    std::vector<Source> sources;
    if (_image) {
        for (std::size_t s = 0; s < _image->pages.size(); s++) {
            const Page *copy =
                s < _copies.size() ? _copies[s].get() : nullptr;
            if (copy || !delta)
                sources.push_back({_image->pageNos[s],
                                   copy ? copy : _image->pages[s].get(),
                                   _image->pages[s].get()});
        }
    }
    for (const auto &[page_no, page] : _extra)
        sources.push_back({page_no, page.get(), nullptr});
    std::sort(sources.begin(), sources.end(),
              [](const Source &a, const Source &b) {
                  return a.pageNo < b.pageNo;
              });

    auto word_at = [](const Page &page, Addr off) {
        RegVal v = 0;
        for (int i = 0; i < 8; i++)
            v |= RegVal(page[off + Addr(i)]) << (8 * i);
        return v;
    };
    std::vector<std::pair<Addr, RegVal>> out;
    for (const Source &src : sources) {
        Addr base = src.pageNo << kPageShift;
        for (Addr off = 0; off < kPageBytes; off += 8) {
            RegVal v = word_at(*src.now, off);
            RegVal was = delta && src.base ? word_at(*src.base, off) : 0;
            if (v != was)
                out.emplace_back(base + off, v);
        }
    }
    return out;
}

std::vector<std::pair<Addr, RegVal>>
SparseMemory::exportWords() const
{
    return words(false);
}

std::vector<std::pair<Addr, RegVal>>
SparseMemory::exportDelta() const
{
    return words(true);
}

namespace {

double
asDouble(RegVal v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

RegVal
asBits(double d)
{
    RegVal v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

} // namespace

Emulator::Emulator(const Program &program)
    : _prog(program), _mem(program.dataImage()), _dec(program.decoded()),
      _pc(program.entryPc), _ip(program.indexOf(_pc))
{
    const char *slow = std::getenv("SIMALPHA_SLOWPATH");
    _slowpath = slow && std::strcmp(slow, "1") == 0;
}

RegVal
Emulator::reg(RegIndex r) const
{
    if (r == kNoReg || isZeroRegIndex(r))
        return 0;
    return _regs[r];
}

void
Emulator::setReg(RegIndex r, RegVal v)
{
    if (r == kNoReg || isZeroRegIndex(r))
        return;
    _regs[r] = v;
}

RegVal
Emulator::readIntReg(int i) const
{
    return reg(intReg(i));
}

double
Emulator::readFpReg(int i) const
{
    return asDouble(reg(fpReg(i)));
}

Checkpoint
Emulator::checkpoint() const
{
    return capture(_mem.exportDelta());
}

Checkpoint
Emulator::fullState() const
{
    return capture(_mem.exportWords());
}

Checkpoint
Emulator::capture(std::vector<std::pair<Addr, RegVal>> memory) const
{
    Checkpoint c;
    std::copy_n(_regs.begin(), c.regs.size(), c.regs.begin());
    c.pc = _pc;
    c.seq = _seq;
    c.halted = _halted;
    c.memory = std::move(memory);
    return c;
}

void
Emulator::restore(const Checkpoint &ckpt)
{
    std::copy_n(ckpt.regs.begin(), ckpt.regs.size(), _regs.begin());
    _regs[kZeroSlot] = 0;
    _regs[kSinkSlot] = 0;
    _pc = ckpt.pc;
    _ip = _prog.indexOf(_pc);
    _seq = ckpt.seq;
    _halted = ckpt.halted;
    _mem.clear();
    for (const auto &[addr, value] : ckpt.memory)
        _mem.write64(addr, value);
}

ExecutedInst
Emulator::step()
{
    return _slowpath ? stepSlow() : stepFast();
}

ExecutedInst
Emulator::stepFast()
{
    sim_assert(!_halted);

    if (_ip < 0 || std::size_t(_ip) >= _dec.size())
        panic("PC 0x%llx outside text segment of '%s'",
              (unsigned long long)_pc, _prog.name.c_str());

    const DecodedInst &d = _dec[std::size_t(_ip)];

    ExecutedInst rec;
    rec.seq = _seq++;
    rec.pc = _pc;
    rec.dec = &d;

    Addr next_pc = _pc + 4;
    std::int64_t next_ip = _ip + 1;
    bool taken = false;
    bool indirect = false;

    RegVal *const regs = _regs.data();
    const RegVal a = regs[d.srcA];
    const RegVal b = regs[d.srcB];
    const std::int64_t sa = std::int64_t(a);

    switch (Op(d.handler)) {
      case Op::Addq: regs[d.dst] = a + b; break;
      case Op::Subq: regs[d.dst] = a - b; break;
      case Op::Mulq: regs[d.dst] = a * b; break;
      case Op::And: regs[d.dst] = a & b; break;
      case Op::Bis: regs[d.dst] = a | b; break;
      case Op::Xor: regs[d.dst] = a ^ b; break;
      case Op::Sll: regs[d.dst] = a << (b & 63); break;
      case Op::Srl: regs[d.dst] = a >> (b & 63); break;
      case Op::Cmpeq: regs[d.dst] = a == b ? 1 : 0; break;
      case Op::Cmplt:
        regs[d.dst] = sa < std::int64_t(b) ? 1 : 0;
        break;
      case Op::Cmple:
        regs[d.dst] = sa <= std::int64_t(b) ? 1 : 0;
        break;
      case Op::Lda:
        regs[d.dst] = b + RegVal(d.imm);
        break;
      case Op::Cmoveq:
        if (a == 0)
            regs[d.dst] = b;
        break;
      case Op::Cmovne:
        if (a != 0)
            regs[d.dst] = b;
        break;

      case Op::Ldq: case Op::Ldt:
        rec.effAddr = b + RegVal(d.imm);
        regs[d.dst] = _mem.read64(rec.effAddr);
        break;
      case Op::Ldl:
        rec.effAddr = b + RegVal(d.imm);
        regs[d.dst] =
            RegVal(std::int64_t(std::int32_t(_mem.read32(rec.effAddr))));
        break;
      case Op::Stq: case Op::Stt:
        rec.effAddr = b + RegVal(d.imm);
        _mem.write64(rec.effAddr, a);
        break;
      case Op::Stl:
        rec.effAddr = b + RegVal(d.imm);
        _mem.write32(rec.effAddr, std::uint32_t(a));
        break;

      case Op::Addt:
        regs[d.dst] = asBits(asDouble(a) + asDouble(b));
        break;
      case Op::Subt:
        regs[d.dst] = asBits(asDouble(a) - asDouble(b));
        break;
      case Op::Mult:
        regs[d.dst] = asBits(asDouble(a) * asDouble(b));
        break;
      case Op::Divt: case Op::Divs:
        regs[d.dst] = asBits(asDouble(a) / asDouble(b));
        break;
      case Op::Sqrtt: case Op::Sqrts:
        regs[d.dst] = asBits(std::sqrt(asDouble(b)));
        break;
      case Op::Cpys:
        regs[d.dst] = a;
        break;

      case Op::Beq: taken = (a == 0); break;
      case Op::Bne: taken = (a != 0); break;
      case Op::Blt: taken = (sa < 0); break;
      case Op::Ble: taken = (sa <= 0); break;
      case Op::Bgt: taken = (sa > 0); break;
      case Op::Bge: taken = (sa >= 0); break;

      case Op::Br:
        taken = true;
        break;
      case Op::Bsr:
        regs[d.dst] = _pc + 4;
        taken = true;
        break;
      case Op::Jmp:
        taken = true;
        indirect = true;
        next_pc = b;
        break;
      case Op::Jsr:
        regs[d.dst] = _pc + 4;
        taken = true;
        indirect = true;
        next_pc = b;
        break;
      case Op::Ret:
        taken = true;
        indirect = true;
        next_pc = b;
        break;

      case Op::Unop:
        break;
      case Op::Halt:
        _halted = true;
        rec.halted = true;
        break;
    }

    if (taken && d.isPcRel()) {
        sim_assert(d.target >= 0);
        next_ip = d.target;
        next_pc = d.targetPc;
    } else if (indirect) {
        next_ip = _prog.indexOf(next_pc);
    }

    rec.taken = taken;
    rec.nextPc = next_pc;
    _pc = next_pc;
    _ip = next_ip;
    return rec;
}

std::uint64_t
Emulator::run(std::uint64_t max_insts)
{
    if (_slowpath) {
        // Reference mode: the retained switch interpreter, one record at
        // a time, with the per-instruction decode-equivalence assertion.
        std::uint64_t n = 0;
        while (n < max_insts && !_halted) {
            stepSlow();
            ++n;
        }
        return n;
    }
    return runBatch(max_insts);
}

std::uint64_t
Emulator::runBatch(std::uint64_t max_insts)
{
    if (_halted || max_insts == 0)
        return 0;

    RegVal *const regs = _regs.data();
    const DecodedInst *const dec = _dec.data();
    const std::int64_t ntext = std::int64_t(_dec.size());
    std::int64_t ip = _ip;
    Addr pc = _pc;
    std::uint64_t n = 0;
    const DecodedInst *d = nullptr;

    // Computed-goto dispatch: one indirect jump per instruction, no
    // bounds-checked switch and no per-step record materialization.
    // Order must match the Op enumeration exactly.
    static const void *kJump[] = {
        &&L_Addq, &&L_Subq, &&L_Mulq, &&L_And, &&L_Bis, &&L_Xor,
        &&L_Sll, &&L_Srl, &&L_Cmpeq, &&L_Cmplt, &&L_Cmple, &&L_Lda,
        &&L_Cmoveq, &&L_Cmovne,
        &&L_Ldq, &&L_Stq, &&L_Ldl, &&L_Stl, &&L_Ldt, &&L_Stt,
        &&L_Addt, &&L_Subt, &&L_Mult, &&L_Divt, &&L_Divs,
        &&L_Sqrtt, &&L_Sqrts, &&L_Cpys,
        &&L_Beq, &&L_Bne, &&L_Blt, &&L_Ble, &&L_Bgt, &&L_Bge,
        &&L_Br, &&L_Bsr, &&L_Jmp, &&L_Jsr, &&L_Ret,
        &&L_Unop, &&L_Halt,
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                  std::size_t(Op::Halt) + 1,
                  "jump table must cover every opcode");

#define SIMALPHA_FETCH() \
    do { \
        if (n >= max_insts) \
            goto L_done; \
        if (ip < 0 || ip >= ntext) \
            goto L_badpc; \
        d = &dec[ip]; \
        goto *kJump[d->handler]; \
    } while (0)
#define SIMALPHA_FALL() \
    do { ++ip; pc += 4; ++n; SIMALPHA_FETCH(); } while (0)
#define SIMALPHA_TAKEN() \
    do { \
        sim_assert(d->target >= 0); \
        ip = d->target; \
        pc = d->targetPc; \
        ++n; \
        SIMALPHA_FETCH(); \
    } while (0)
#define SIMALPHA_JUMP(tgt) \
    do { \
        pc = (tgt); \
        ip = _prog.indexOf(pc); \
        ++n; \
        SIMALPHA_FETCH(); \
    } while (0)

    SIMALPHA_FETCH();

L_Addq: regs[d->dst] = regs[d->srcA] + regs[d->srcB]; SIMALPHA_FALL();
L_Subq: regs[d->dst] = regs[d->srcA] - regs[d->srcB]; SIMALPHA_FALL();
L_Mulq: regs[d->dst] = regs[d->srcA] * regs[d->srcB]; SIMALPHA_FALL();
L_And: regs[d->dst] = regs[d->srcA] & regs[d->srcB]; SIMALPHA_FALL();
L_Bis: regs[d->dst] = regs[d->srcA] | regs[d->srcB]; SIMALPHA_FALL();
L_Xor: regs[d->dst] = regs[d->srcA] ^ regs[d->srcB]; SIMALPHA_FALL();
L_Sll:
    regs[d->dst] = regs[d->srcA] << (regs[d->srcB] & 63);
    SIMALPHA_FALL();
L_Srl:
    regs[d->dst] = regs[d->srcA] >> (regs[d->srcB] & 63);
    SIMALPHA_FALL();
L_Cmpeq:
    regs[d->dst] = regs[d->srcA] == regs[d->srcB] ? 1 : 0;
    SIMALPHA_FALL();
L_Cmplt:
    regs[d->dst] =
        std::int64_t(regs[d->srcA]) < std::int64_t(regs[d->srcB]) ? 1 : 0;
    SIMALPHA_FALL();
L_Cmple:
    regs[d->dst] =
        std::int64_t(regs[d->srcA]) <= std::int64_t(regs[d->srcB]) ? 1 : 0;
    SIMALPHA_FALL();
L_Lda: regs[d->dst] = regs[d->srcB] + RegVal(d->imm); SIMALPHA_FALL();
L_Cmoveq:
    if (regs[d->srcA] == 0)
        regs[d->dst] = regs[d->srcB];
    SIMALPHA_FALL();
L_Cmovne:
    if (regs[d->srcA] != 0)
        regs[d->dst] = regs[d->srcB];
    SIMALPHA_FALL();

L_Ldq:
L_Ldt:
    regs[d->dst] = _mem.read64(regs[d->srcB] + RegVal(d->imm));
    SIMALPHA_FALL();
L_Ldl:
    regs[d->dst] = RegVal(std::int64_t(
        std::int32_t(_mem.read32(regs[d->srcB] + RegVal(d->imm)))));
    SIMALPHA_FALL();
L_Stq:
L_Stt:
    _mem.write64(regs[d->srcB] + RegVal(d->imm), regs[d->srcA]);
    SIMALPHA_FALL();
L_Stl:
    _mem.write32(regs[d->srcB] + RegVal(d->imm),
                 std::uint32_t(regs[d->srcA]));
    SIMALPHA_FALL();

L_Addt:
    regs[d->dst] = asBits(asDouble(regs[d->srcA]) + asDouble(regs[d->srcB]));
    SIMALPHA_FALL();
L_Subt:
    regs[d->dst] = asBits(asDouble(regs[d->srcA]) - asDouble(regs[d->srcB]));
    SIMALPHA_FALL();
L_Mult:
    regs[d->dst] = asBits(asDouble(regs[d->srcA]) * asDouble(regs[d->srcB]));
    SIMALPHA_FALL();
L_Divt:
L_Divs:
    regs[d->dst] = asBits(asDouble(regs[d->srcA]) / asDouble(regs[d->srcB]));
    SIMALPHA_FALL();
L_Sqrtt:
L_Sqrts:
    regs[d->dst] = asBits(std::sqrt(asDouble(regs[d->srcB])));
    SIMALPHA_FALL();
L_Cpys: regs[d->dst] = regs[d->srcA]; SIMALPHA_FALL();

L_Beq:
    if (regs[d->srcA] == 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();
L_Bne:
    if (regs[d->srcA] != 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();
L_Blt:
    if (std::int64_t(regs[d->srcA]) < 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();
L_Ble:
    if (std::int64_t(regs[d->srcA]) <= 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();
L_Bgt:
    if (std::int64_t(regs[d->srcA]) > 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();
L_Bge:
    if (std::int64_t(regs[d->srcA]) >= 0)
        SIMALPHA_TAKEN();
    SIMALPHA_FALL();

L_Br: SIMALPHA_TAKEN();
L_Bsr:
    regs[d->dst] = pc + 4;
    SIMALPHA_TAKEN();
L_Jmp: SIMALPHA_JUMP(regs[d->srcB]);
L_Jsr: {
    // Read the target before writing the link: jsr ra,(ra) is legal.
    const RegVal jsr_target = regs[d->srcB];
    regs[d->dst] = pc + 4;
    SIMALPHA_JUMP(jsr_target);
}
L_Ret: SIMALPHA_JUMP(regs[d->srcB]);

L_Unop: SIMALPHA_FALL();
L_Halt:
    _halted = true;
    pc += 4;
    ++ip;
    ++n;
    goto L_done;

L_badpc:
    _pc = pc;
    _ip = ip;
    _seq += n;
    panic("PC 0x%llx outside text segment of '%s'",
          (unsigned long long)pc, _prog.name.c_str());

L_done:
    _pc = pc;
    _ip = ip;
    _seq += n;
    return n;

#undef SIMALPHA_FETCH
#undef SIMALPHA_FALL
#undef SIMALPHA_TAKEN
#undef SIMALPHA_JUMP
}

ExecutedInst
Emulator::stepSlow()
{
    sim_assert(!_halted);

    std::int64_t idx = _prog.indexOf(_pc);
    if (idx < 0)
        panic("PC 0x%llx outside text segment of '%s'",
              (unsigned long long)_pc, _prog.name.c_str());

    const Instruction &inst = _prog.text[std::size_t(idx)];

    // Equivalence check against the predecoded image: the fast paths
    // execute _dec, the slowpath executes the Instruction directly, and
    // the two must describe the same operation.
    sim_assert(_dec[std::size_t(idx)] == decodeOne(inst));

    ExecutedInst rec;
    rec.seq = _seq++;
    rec.pc = _pc;
    rec.dec = &_dec[std::size_t(idx)];

    Addr next_pc = _pc + 4;
    bool taken = false;

    auto branch_target = [&]() -> Addr {
        sim_assert(inst.target >= 0);
        return _prog.pcOf(std::size_t(inst.target));
    };

    const RegVal a = reg(inst.ra);
    const RegVal b = reg(inst.rb);
    const std::int64_t sa = std::int64_t(a);

    switch (inst.op) {
      case Op::Addq: setReg(inst.rc, a + b); break;
      case Op::Subq: setReg(inst.rc, a - b); break;
      case Op::Mulq: setReg(inst.rc, a * b); break;
      case Op::And: setReg(inst.rc, a & b); break;
      case Op::Bis: setReg(inst.rc, a | b); break;
      case Op::Xor: setReg(inst.rc, a ^ b); break;
      case Op::Sll: setReg(inst.rc, a << (b & 63)); break;
      case Op::Srl: setReg(inst.rc, a >> (b & 63)); break;
      case Op::Cmpeq: setReg(inst.rc, a == b ? 1 : 0); break;
      case Op::Cmplt:
        setReg(inst.rc, sa < std::int64_t(b) ? 1 : 0);
        break;
      case Op::Cmple:
        setReg(inst.rc, sa <= std::int64_t(b) ? 1 : 0);
        break;
      case Op::Lda:
        setReg(inst.rc, b + RegVal(inst.imm));
        break;
      case Op::Cmoveq:
        if (a == 0)
            setReg(inst.rc, b);
        break;
      case Op::Cmovne:
        if (a != 0)
            setReg(inst.rc, b);
        break;

      case Op::Ldq: case Op::Ldt:
        rec.effAddr = b + RegVal(inst.imm);
        setReg(inst.rc, _mem.read64(rec.effAddr));
        break;
      case Op::Ldl:
        rec.effAddr = b + RegVal(inst.imm);
        setReg(inst.rc,
               RegVal(std::int64_t(std::int32_t(
                   _mem.read32(rec.effAddr)))));
        break;
      case Op::Stq: case Op::Stt:
        rec.effAddr = b + RegVal(inst.imm);
        _mem.write64(rec.effAddr, a);
        break;
      case Op::Stl:
        rec.effAddr = b + RegVal(inst.imm);
        _mem.write32(rec.effAddr, std::uint32_t(a));
        break;

      case Op::Addt:
        setReg(inst.rc, asBits(asDouble(a) + asDouble(b)));
        break;
      case Op::Subt:
        setReg(inst.rc, asBits(asDouble(a) - asDouble(b)));
        break;
      case Op::Mult:
        setReg(inst.rc, asBits(asDouble(a) * asDouble(b)));
        break;
      case Op::Divt: case Op::Divs:
        setReg(inst.rc, asBits(asDouble(a) / asDouble(b)));
        break;
      case Op::Sqrtt: case Op::Sqrts:
        setReg(inst.rc, asBits(std::sqrt(asDouble(b))));
        break;
      case Op::Cpys:
        setReg(inst.rc, a);
        break;

      case Op::Beq: taken = (a == 0); break;
      case Op::Bne: taken = (a != 0); break;
      case Op::Blt: taken = (sa < 0); break;
      case Op::Ble: taken = (sa <= 0); break;
      case Op::Bgt: taken = (sa > 0); break;
      case Op::Bge: taken = (sa >= 0); break;

      case Op::Br:
        taken = true;
        break;
      case Op::Bsr:
        setReg(inst.ra, _pc + 4);
        taken = true;
        break;
      case Op::Jmp:
        taken = true;
        next_pc = b;
        break;
      case Op::Jsr:
        setReg(inst.ra, _pc + 4);
        taken = true;
        next_pc = b;
        break;
      case Op::Ret:
        taken = true;
        next_pc = b;
        break;

      case Op::Unop:
        break;
      case Op::Halt:
        _halted = true;
        rec.halted = true;
        break;
    }

    if (inst.isPcRelBranch() && taken)
        next_pc = branch_target();

    rec.taken = taken;
    rec.nextPc = next_pc;
    _pc = next_pc;
    _ip = _prog.indexOf(_pc);
    return rec;
}

} // namespace simalpha
