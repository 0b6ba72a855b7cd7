#include "macro.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace simalpha {
namespace workloads {

namespace {

constexpr int kOne = 10;
constexpr int kCount = 9;
constexpr int kLink = 26;
constexpr int kDispatchTargets = 8;

/** Stream-pointer registers (up to four independent streams). */
constexpr int kStreamRegs[4] = {20, 24, 25, 27};

void
loadImm64(ProgramBuilder &b, RegIndex reg, std::int64_t value)
{
    if (value >= -32768 && value <= 32767) {
        b.lda(reg, value);
        return;
    }
    std::int64_t hi = value >> 16;
    std::int64_t lo = value & 0xFFFF;
    b.lda(reg, hi);
    b.lda(R(28), 16);
    b.sll(reg, R(28), reg);
    if (lo)
        b.lda(reg, lo, reg);
}

} // namespace

Program
makeMacro(const MacroProfile &p)
{
    ProgramBuilder b(p.name);
    Random rng(0xC0FFEE ^ std::hash<std::string>{}(p.name));

    const Addr data = Program::kDataBase;
    const std::int64_t footprint = std::int64_t(p.footprintKB) * 1024;
    const int nodes = int(footprint / p.stride);
    sim_assert(nodes > 1);
    const int streams = std::max(1, std::min(4, p.streams));

    // Data image: a shuffled circular chase through the footprint (used
    // when pointerChase) plus payload words on every node, and the
    // dispatch table's words (below).
    b.reserveData(std::size_t(nodes) * (p.stride >= 16 ? 2 : 1) +
                  (p.indirectDispatch ? kDispatchTargets : 0));
    {
        std::vector<int> order{};
        order.resize(std::size_t(nodes));
        for (int i = 0; i < nodes; i++)
            order[std::size_t(i)] = i;
        for (int i = nodes - 1; i > 0; i--) {
            int j = int(rng.below(std::uint64_t(i + 1)));
            std::swap(order[std::size_t(i)], order[std::size_t(j)]);
        }
        for (int i = 0; i < nodes; i++) {
            Addr node = data + Addr(order[std::size_t(i)]) *
                                   Addr(p.stride);
            Addr next = data + Addr(order[std::size_t((i + 1) % nodes)]) *
                                   Addr(p.stride);
            b.dataWord(node, next);
            if (p.stride >= 16)
                b.dataWord(node + 8, RegVal(i) * 3 + 1);
        }
    }

    // Register plan: stream pointers per kStreamRegs, r19 data base,
    // r18 stride, r17 footprint limit, r4 iteration counter, r6 sink,
    // r7/r8 scratch, r1..r5 ALU chains (r4/r5 reserved), f1..f6 fp.
    b.lda(R(kOne), 1);
    loadImm64(b, R(kCount), p.iterations);
    loadImm64(b, R(19), std::int64_t(data));
    loadImm64(b, R(18), p.stride);
    loadImm64(b, R(17), std::int64_t(data) + footprint);
    for (int s = 0; s < streams; s++) {
        // Spread the streams across the footprint.
        loadImm64(b, R(kStreamRegs[s]),
                  std::int64_t(data) + (footprint / streams) * s);
    }
    b.lda(R(4), 0);     // iteration counter (drives pattern branches)
    b.lda(R(6), 0);
    if (p.fp)
        b.ldt(F(7), 8, R(19));

    const Addr table = Program::kDataBase + 0x40000000ULL;

    b.alignOctaword();
    b.label("outer");

    if (p.indirectDispatch) {
        // A jump whose target rotates: line-predictor hostile.
        b.lda(R(7), 7);
        b.and_(R(4), R(7), R(7));
        b.lda(R(8), 3);
        b.sll(R(7), R(8), R(7));
        loadImm64(b, R(8), std::int64_t(table));
        b.addq(R(7), R(8), R(7));
        b.ldq(R(7), 0, R(7));
        b.jmp(R(7));
        for (int t = 0; t < kDispatchTargets; t++) {
            std::string lbl = "disp" + std::to_string(t);
            b.label(lbl);
            b.dataWordLabel(table + Addr(8 * t), lbl);
            b.addq(R(6), R(kOne), R(6));
            b.br("body");
        }
    }

    b.label("body");

    for (int blk = 0; blk < p.blocks; blk++) {
        std::string next_lbl = "blk" + std::to_string(blk + 1);
        int sp = kStreamRegs[blk % streams];

        // Loads: chase or stream through this block's stream pointer.
        for (int l = 0; l < p.loadsPerBlock; l++) {
            if (p.pointerChase && l == 0 && blk % streams == 0) {
                b.ldq(R(sp), 0, R(sp));         // serial chase
                if (p.stride >= 16)
                    b.ldq(R(21), 8, R(sp));
            } else {
                b.ldq(R(21 + (l % 2)), 8 * (l + 1), R(sp));
            }
        }
        if (!p.pointerChase || blk % streams != 0) {
            // Advance and wrap the stream pointer.
            b.addq(R(sp), R(18), R(sp));
            b.cmplt(R(sp), R(17), R(7));
            b.bne(R(7), next_lbl + "w");
            loadImm64(b, R(sp),
                      std::int64_t(data) +
                          (footprint / streams) * (blk % streams));
            b.label(next_lbl + "w");
        }

        // Aliased store/load pairs: write a slot, read it back through
        // the same address a few instructions later.
        for (int s = 0; s < p.aliasedStoresPerBlock; s++) {
            b.stl(R(6), 16, R(sp));
            b.addq(R(6), R(kOne), R(6));
            b.ldl(R(22), 16, R(sp));
            b.addq(R(6), R(22), R(6));
        }

        // ALU work in `chains` interleaved dependence chains.
        for (int a = 0; a < p.aluPerBlock; a++) {
            int chain = a % std::max(1, p.chains);
            if (p.fp && (a % 2) == 0)
                b.addt(F(1 + chain), F(7), F(1 + chain));
            else
                b.addq(R(1 + (chain % 3)), R(21), R(1 + (chain % 3)));
        }

        // Far call creating I-cache way conflicts (eon).
        if (p.wayConflictCalls && blk == 0)
            b.bsr(R(kLink), "farfunc");

        // Block-terminating branch. Three flavours:
        //  - pattern: direction follows an iteration-counter bit — a
        //    TNTN-style pattern the tournament predictor learns but a
        //    line predictor alone cannot follow (what the slot adder
        //    and speculative update are worth);
        //  - hard: direction from loaded data — unpredictable;
        //  - else a predictable always-taken branch.
        int roll = int(rng.below(16));
        if (blk < p.blocks - 1) {
            // The taken path skips a couple of fetch lines of work, so
            // the branch direction genuinely changes the next fetch
            // line (as compiled if/else arms do).
            auto arm = [&](int insts) {
                for (int i = 0; i < insts; i++)
                    b.addq(R(2 + (i & 1)), R(kOne), R(2 + (i & 1)));
            };
            if (roll < p.patternBranchSixteenths) {
                b.lda(R(8), 1 << (blk % 2));
                b.and_(R(4), R(8), R(7));
                b.beq(R(7), next_lbl);
                arm(9);
                b.label(next_lbl);
            } else if (roll < p.patternBranchSixteenths +
                                  p.hardBranchSixteenths) {
                b.lda(R(8), 1);
                b.and_(R(21), R(8), R(7));
                b.beq(R(7), next_lbl);
                arm(7);
                b.label(next_lbl);
            } else {
                b.br(next_lbl);
                b.unop(5);
                b.label(next_lbl);
            }
        }
    }

    // Loop control.
    b.addq(R(4), R(kOne), R(4));
    b.subq(R(kCount), R(kOne), R(kCount));
    b.bne(R(kCount), "outer");
    b.halt();

    if (p.wayConflictCalls) {
        // Park the function 32KB past the loop so its lines share
        // I-cache sets with the caller across the two ways; alternating
        // fetch between them defeats the way predictor.
        while (b.here() * 4 < 32 * 1024 + 512)
            b.unop(4);
        b.label("farfunc");
        for (int i = 0; i < 12; i++)
            b.addq(R(3), R(kOne), R(3));
        b.ret(R(kLink));
    }

    return b.finish();
}

std::vector<MacroProfile>
spec2000Profiles()
{
    std::vector<MacroProfile> ps;

    {   // gzip: integer compression; cache-warm, decent ILP, patterned
        // match/literal branches.
        MacroProfile p;
        p.name = "gzip";
        p.footprintKB = 192;
        p.stride = 24;
        p.blocks = 8;
        p.aluPerBlock = 10;
        p.chains = 4;
        p.loadsPerBlock = 1;
        p.patternBranchSixteenths = 6;
        p.hardBranchSixteenths = 3;
        p.iterations = 2600;
        ps.push_back(p);
    }
    {   // vpr: place-and-route; cache resident, branchy.
        MacroProfile p;
        p.name = "vpr";
        p.footprintKB = 48;
        p.stride = 24;
        p.blocks = 10;
        p.aluPerBlock = 6;
        p.chains = 3;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 6;
        p.hardBranchSixteenths = 5;
        p.iterations = 3000;
        ps.push_back(p);
    }
    {   // gcc: large instruction footprint, branchy, indirect dispatch.
        MacroProfile p;
        p.name = "gcc";
        p.footprintKB = 160;
        p.stride = 40;
        p.blocks = 24;
        p.aluPerBlock = 5;
        p.chains = 2;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 5;
        p.hardBranchSixteenths = 4;
        p.indirectDispatch = true;
        p.iterations = 1500;
        ps.push_back(p);
    }
    {   // parser: linked-list chasing with patterned dictionary walks.
        MacroProfile p;
        p.name = "parser";
        p.footprintKB = 48;
        p.stride = 16;
        p.pointerChase = true;
        p.streams = 2;
        p.blocks = 8;
        p.aluPerBlock = 6;
        p.chains = 3;
        p.loadsPerBlock = 1;
        p.patternBranchSixteenths = 5;
        p.hardBranchSixteenths = 4;
        p.iterations = 2600;
        ps.push_back(p);
    }
    {   // eon: C++ ray tracer; cache resident, way-predictor hostile.
        MacroProfile p;
        p.name = "eon";
        p.footprintKB = 40;
        p.stride = 32;
        p.blocks = 8;
        p.aluPerBlock = 8;
        p.chains = 4;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 4;
        p.hardBranchSixteenths = 1;
        p.wayConflictCalls = true;
        p.iterations = 2600;
        ps.push_back(p);
    }
    {   // twolf: placement; cache resident, branchy.
        MacroProfile p;
        p.name = "twolf";
        p.footprintKB = 56;
        p.stride = 24;
        p.blocks = 12;
        p.aluPerBlock = 6;
        p.chains = 3;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 5;
        p.hardBranchSixteenths = 5;
        p.iterations = 2400;
        ps.push_back(p);
    }
    {   // mesa: 3D rendering; fp streaming with a high L2 miss rate,
        // spatially dense (several loads per block) so the hardware's
        // row locality and prefetch-friendly buses pay off.
        MacroProfile p;
        p.name = "mesa";
        p.footprintKB = 4096;
        p.stride = 16;
        p.streams = 2;
        p.blocks = 6;
        p.aluPerBlock = 12;
        p.chains = 6;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 2;
        p.hardBranchSixteenths = 0;
        p.fp = true;
        p.iterations = 2400;
        ps.push_back(p);
    }
    {   // art: neural-net fp; four concurrent miss streams plus heavy
        // store/load aliasing — the replay-trap storm of the hardware.
        MacroProfile p;
        p.name = "art";
        p.footprintKB = 3072;
        p.stride = 64;
        p.streams = 4;
        p.blocks = 8;
        p.aluPerBlock = 6;
        p.chains = 3;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 1;
        p.hardBranchSixteenths = 1;
        p.fp = true;
        p.aliasedStoresPerBlock = 1;
        p.iterations = 1800;
        ps.push_back(p);
    }
    {   // equake: sparse fp; pointer chase over a mid-size working set.
        MacroProfile p;
        p.name = "equake";
        p.footprintKB = 512;
        p.stride = 48;
        p.pointerChase = true;
        p.streams = 2;
        p.blocks = 6;
        p.aluPerBlock = 8;
        p.chains = 4;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 3;
        p.hardBranchSixteenths = 1;
        p.fp = true;
        p.iterations = 2000;
        ps.push_back(p);
    }
    {   // lucas: fp number theory; dense regular strides, high ILP.
        MacroProfile p;
        p.name = "lucas";
        p.footprintKB = 1536;
        p.stride = 16;
        p.blocks = 4;
        p.aluPerBlock = 14;
        p.chains = 6;
        p.loadsPerBlock = 2;
        p.patternBranchSixteenths = 0;
        p.hardBranchSixteenths = 0;
        p.fp = true;
        p.iterations = 2800;
        ps.push_back(p);
    }
    return ps;
}

std::vector<Program>
spec2000Suite()
{
    std::vector<Program> progs;
    for (const MacroProfile &p : spec2000Profiles())
        progs.push_back(makeMacro(p));
    return progs;
}

std::vector<Program>
spec95Suite()
{
    // The Figure 2 study simulated SPEC95 on machines "balanced to
    // avoid obvious bottlenecks": the kernels here are cache-resident
    // and ILP-rich so the register-file configuration — not the memory
    // system — sets the performance.
    std::vector<MacroProfile> ps;
    auto add = [&](const char *name, int kb, bool fp, int chains,
                   int alu, int pattern, int hard) {
        MacroProfile p;
        p.name = name;
        p.footprintKB = kb;
        p.fp = fp;
        p.chains = chains;
        p.aluPerBlock = alu;
        p.patternBranchSixteenths = pattern;
        p.hardBranchSixteenths = hard;
        p.blocks = 8;
        p.loadsPerBlock = 1;
        p.iterations = 2000;
        ps.push_back(p);
    };
    add("go", 16, false, 4, 10, 4, 5);
    add("compress", 24, false, 5, 10, 4, 2);
    add("gcc95", 16, false, 4, 8, 5, 4);
    add("ijpeg", 16, false, 8, 16, 2, 0);
    add("perl", 16, false, 4, 9, 5, 3);
    add("swim", 24, true, 8, 16, 0, 0);
    add("mgrid", 24, true, 8, 16, 0, 0);
    add("applu", 24, true, 6, 14, 1, 0);
    add("turb3d", 16, true, 6, 12, 1, 0);
    add("fpppp", 16, true, 6, 16, 1, 0);
    add("wave5", 24, true, 6, 14, 1, 0);

    std::vector<Program> progs;
    for (const MacroProfile &p : ps)
        progs.push_back(makeMacro(p));
    return progs;
}

} // namespace workloads
} // namespace simalpha
