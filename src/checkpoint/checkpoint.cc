#include "checkpoint.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/logging.hh"

namespace simalpha {
namespace checkpoint {

namespace {

constexpr const char *kCkptMagic = "ckpt1";
constexpr const char *kMetaMagic = "ffwd1";

void
appendHex(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llx", (unsigned long long)v);
    out += buf;
}

/** Parse a hex field terminated by @p term (or end of string). */
bool
readHex(const char *&p, std::uint64_t *out)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(p, &end, 16);
    if (end == p)
        return false;
    p = end;
    *out = v;
    return true;
}

bool
readDec(const char *&p, std::uint64_t *out)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(p, &end, 10);
    if (end == p)
        return false;
    p = end;
    *out = v;
    return true;
}

bool
eatLit(const char *&p, const char *lit)
{
    std::size_t n = std::strlen(lit);
    if (std::strncmp(p, lit, n) != 0)
        return false;
    p += n;
    return true;
}

} // namespace

// -------------------------------------------------------------------
// Serialization
// -------------------------------------------------------------------

std::string
serializeCheckpoint(const Checkpoint &ckpt)
{
    // Sorted memory makes equal states byte-equal regardless of the
    // sparse memory's hash-map iteration order.
    std::vector<std::pair<Addr, RegVal>> mem = ckpt.memory;
    std::sort(mem.begin(), mem.end());

    std::string out = kCkptMagic;
    out += " pc=";
    appendHex(out, ckpt.pc);
    out += " seq=";
    out += std::to_string(ckpt.seq);
    out += " halted=";
    out += ckpt.halted ? '1' : '0';
    out += " regs=";
    for (std::size_t i = 0; i < ckpt.regs.size(); i++) {
        if (i)
            out += ',';
        appendHex(out, ckpt.regs[i]);
    }
    out += " mem=";
    for (std::size_t i = 0; i < mem.size(); i++) {
        if (i)
            out += ';';
        appendHex(out, mem[i].first);
        out += ':';
        appendHex(out, mem[i].second);
    }
    return out;
}

bool
parseCheckpoint(const std::string &text, Checkpoint *out,
                std::string *error)
{
    auto fail = [&](const char *what) {
        if (error)
            *error = std::string("malformed checkpoint blob: ") + what;
        return false;
    };

    const char *p = text.c_str();
    if (!eatLit(p, kCkptMagic))
        return fail("bad magic");

    Checkpoint c;
    std::uint64_t v = 0;
    if (!eatLit(p, " pc=") || !readHex(p, &v))
        return fail("pc");
    c.pc = v;
    if (!eatLit(p, " seq=") || !readDec(p, &v))
        return fail("seq");
    c.seq = v;
    if (!eatLit(p, " halted=") || !readDec(p, &v) || v > 1)
        return fail("halted");
    c.halted = v != 0;
    if (!eatLit(p, " regs="))
        return fail("regs");
    for (std::size_t i = 0; i < c.regs.size(); i++) {
        if (i && !eatLit(p, ","))
            return fail("regs separator");
        if (!readHex(p, &v))
            return fail("regs value");
        c.regs[i] = v;
    }
    if (!eatLit(p, " mem="))
        return fail("mem");
    while (*p) {
        std::uint64_t addr = 0, word = 0;
        if (!c.memory.empty() && !eatLit(p, ";"))
            return fail("mem separator");
        if (!readHex(p, &addr) || !eatLit(p, ":") ||
            !readHex(p, &word))
            return fail("mem pair");
        c.memory.emplace_back(addr, word);
    }
    *out = std::move(c);
    return true;
}

// -------------------------------------------------------------------
// Keying
// -------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
mixBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
mixU64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
    }
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

} // namespace

std::uint64_t
programHash(const Program &program)
{
    // Hashes the word list, which a released program no longer has.
    sim_assert(!program.dataReleased());
    std::uint64_t h = kFnvOffset;
    mixBytes(h, program.name.data(), program.name.size());
    mixU64(h, program.entryPc);
    mixU64(h, program.text.size());
    for (const Instruction &inst : program.text) {
        mixU64(h, std::uint64_t(inst.op));
        mixU64(h, std::uint64_t(inst.ra));
        mixU64(h, std::uint64_t(inst.rb));
        mixU64(h, std::uint64_t(inst.rc));
        mixU64(h, std::uint64_t(inst.imm));
        mixU64(h, std::uint64_t(inst.target));
    }
    mixU64(h, program.data.size());
    for (const auto &dw : program.data) {
        mixU64(h, dw.first);
        mixU64(h, dw.second);
    }
    return h ? h : 1;
}

std::string
checkpointKey(const Program &program, std::uint64_t insts)
{
    return "ckpt|" + hex16(programHash(program)) + "|" +
           std::to_string(insts);
}

std::string
metaKey(const Program &program, std::uint64_t maxInsts)
{
    return "ckpt-meta|" + hex16(programHash(program)) + "|" +
           std::to_string(maxInsts);
}

std::string
serializeMeta(const FastForwardInfo &info)
{
    return std::string(kMetaMagic) + " total=" +
           std::to_string(info.totalInsts) + " finished=" +
           (info.finished ? "1" : "0");
}

bool
parseMeta(const std::string &text, FastForwardInfo *out)
{
    const char *p = text.c_str();
    std::uint64_t total = 0, fin = 0;
    if (!eatLit(p, kMetaMagic) || !eatLit(p, " total=") ||
        !readDec(p, &total) || !eatLit(p, " finished=") ||
        !readDec(p, &fin) || fin > 1 || *p)
        return false;
    out->totalInsts = total;
    out->finished = fin != 0;
    return true;
}

// -------------------------------------------------------------------
// Sampling spec + planning
// -------------------------------------------------------------------

bool
parseSampleSpec(const std::string &text, SampleSpec *out,
                std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = "bad --sample spec '" + text + "': " + what;
        return false;
    };

    SampleSpec spec;
    bool sawWindows = false, sawLen = false;
    const char *p = text.c_str();
    while (*p) {
        std::uint64_t v = 0;
        if (eatLit(p, "windows=")) {
            if (!readDec(p, &v))
                return fail("windows needs a number");
            spec.windows = v;
            sawWindows = true;
        } else if (eatLit(p, "len=")) {
            if (!readDec(p, &v))
                return fail("len needs a number");
            spec.len = v;
            sawLen = true;
        } else if (eatLit(p, "warmup=")) {
            if (!readDec(p, &v))
                return fail("warmup needs a number");
            spec.warmup = v;
        } else {
            return fail("expected windows=/len=/warmup=");
        }
        if (*p && !eatLit(p, ","))
            return fail("expected ','");
    }
    if (!sawWindows || spec.windows == 0)
        return fail("windows must be > 0");
    if (!sawLen || spec.len == 0)
        return fail("len must be > 0");
    *out = spec;
    return true;
}

std::string
formatSampleSpec(const SampleSpec &spec)
{
    return "windows=" + std::to_string(spec.windows) +
           ",len=" + std::to_string(spec.len) +
           ",warmup=" + std::to_string(spec.warmup);
}

std::vector<WindowPlan>
planWindows(std::uint64_t totalInsts, const SampleSpec &spec)
{
    std::vector<WindowPlan> plan;
    if (!spec.enabled() || totalInsts == 0)
        return plan;

    // Window i measures [start_i, start_i + len), starts evenly
    // spaced at i * total / windows. The first window therefore
    // anchors at instruction 0 (no warm-up possible there) and the
    // spacing is a pure function of (total, windows) — deterministic
    // for every jobs count, shard split, and resume.
    for (std::uint64_t i = 0; i < spec.windows; i++) {
        std::uint64_t start =
            (totalInsts / spec.windows) * i;
        if (i > 0 && start >= totalInsts)
            break;
        WindowPlan w;
        w.warmup = std::min(spec.warmup, start);
        w.checkpointAt = start - w.warmup;
        w.measure = std::min(spec.len, totalInsts - start);
        if (w.measure == 0)
            continue;
        plan.push_back(w);
    }
    return plan;
}

// -------------------------------------------------------------------
// Fast-forward + collection
// -------------------------------------------------------------------

FastForwardInfo
fastForward(const Program &program, std::uint64_t maxInsts)
{
    Emulator emu(program);
    FastForwardInfo info;
    // Batch through the predecoded dispatcher; ~0 means "to the halt".
    while (!emu.halted() &&
           (maxInsts == 0 || info.totalInsts < maxInsts)) {
        std::uint64_t want = maxInsts == 0
            ? std::uint64_t(1) << 30
            : maxInsts - info.totalInsts;
        std::uint64_t ran = emu.run(want);
        info.totalInsts += ran;
        if (ran == 0)
            break;
    }
    info.finished = emu.halted();
    return info;
}

bool
collectCheckpoints(const Program &program,
                   const std::vector<std::uint64_t> &offsets,
                   store::ResultStore *store,
                   std::vector<Checkpoint> *out,
                   std::string *error)
{
    bool useStore = store && store->isOpen();

    // Resolve each distinct offset exactly once; ascending order so
    // the generation pass below is a single forward sweep.
    std::vector<std::uint64_t> distinct = offsets;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    std::map<std::uint64_t, Checkpoint> resolved;
    std::vector<std::uint64_t> missing;
    for (std::uint64_t offset : distinct) {
        std::string payload, perror;
        Checkpoint c;
        if (useStore &&
            store->lookup(checkpointKey(program, offset), &payload) &&
            parseCheckpoint(payload, &c, &perror) && c.seq == offset) {
            resolved[offset] = std::move(c);
        } else {
            missing.push_back(offset);
        }
    }

    // One generation pass over the ascending missing offsets, always
    // resuming from the nearest preceding already-resolved state —
    // a warm store turns an O(total) sweep into O(largest gap).
    Emulator emu(program);
    std::uint64_t at = 0;
    for (std::uint64_t target : missing) {
        auto it = resolved.upper_bound(target);
        if (it != resolved.begin()) {
            --it;
            if (it->first > at) {
                emu.restore(it->second);
                at = it->first;
            }
        }
        while (at < target) {
            if (emu.halted()) {
                if (error)
                    *error = "checkpoint offset " +
                             std::to_string(target) +
                             " is beyond the program's halt (" +
                             std::to_string(at) + " instructions)";
                return false;
            }
            at += emu.run(target - at);
        }
        Checkpoint c = emu.checkpoint();
        if (useStore) {
            std::string serror;
            // Publication failure is non-fatal: the blob exists in
            // memory and the next cold run regenerates it.
            (void)store->publish(checkpointKey(program, target),
                                 serializeCheckpoint(c), &serror);
        }
        resolved[target] = std::move(c);
    }

    out->clear();
    out->reserve(offsets.size());
    for (std::uint64_t offset : offsets)
        out->push_back(resolved[offset]);
    return true;
}

std::size_t
touchPlannedCheckpoints(const Program &program, std::uint64_t maxInsts,
                        const SampleSpec &spec,
                        store::ResultStore *store)
{
    if (!store || !store->isOpen() || !spec.enabled())
        return 0;

    // The plan is derivable without running anything iff the meta
    // entry is present; if it is gone, the checkpoints are already
    // cold and the next run regenerates everything anyway.
    std::string payload;
    FastForwardInfo info;
    if (!store->lookup(metaKey(program, maxInsts), &payload) ||
        !parseMeta(payload, &info))
        return 0;

    std::size_t touched = 1;    // lookup() refreshed the meta sidecar
    std::vector<std::uint64_t> seen;
    for (const WindowPlan &w : planWindows(info.totalInsts, spec)) {
        if (std::find(seen.begin(), seen.end(), w.checkpointAt) !=
            seen.end())
            continue;
        seen.push_back(w.checkpointAt);
        if (store->touch(checkpointKey(program, w.checkpointAt)))
            touched++;
    }
    return touched;
}

// -------------------------------------------------------------------
// Sample statistics
// -------------------------------------------------------------------

double
tCritical95(std::uint64_t df)
{
    // Two-sided 95% critical values of Student's t distribution
    // (df 1..30); the normal limit beyond.
    static const double kT[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kT[df - 1];
    return 1.960;
}

SampleStats
sampleStats(const std::vector<double> &samples)
{
    SampleStats s;
    s.n = samples.size();
    if (s.n == 0)
        return s;
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    s.mean = sum / double(s.n);
    if (s.n < 2)
        return s;
    double ss = 0.0;
    for (double x : samples) {
        double d = x - s.mean;
        ss += d * d;
    }
    s.stddev = std::sqrt(ss / double(s.n - 1));
    s.ciHalf = tCritical95(s.n - 1) * s.stddev /
               std::sqrt(double(s.n));
    return s;
}

} // namespace checkpoint
} // namespace simalpha
