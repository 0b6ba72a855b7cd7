#include "inject.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "checkpoint/checkpoint.hh"
#include "common/names.hh"
#include "common/random.hh"

namespace simalpha {
namespace inject {

namespace {

/** The one target⇄name table every grammar element derives from. */
constexpr EnumName<Target> kTargets[] = {
    {Target::RegFile, "regfile"},   {Target::RenameMap, "renamemap"},
    {Target::Rob, "rob"},           {Target::Lsq, "lsq"},
    {Target::Iq, "iq"},             {Target::Bpred, "bpred"},
    {Target::CacheTag, "cachetag"}, {Target::CacheData, "cachedata"},
    {Target::TlbTag, "tlbtag"},
};

constexpr EnumName<Outcome> kOutcomes[] = {
    {Outcome::Masked, "masked"},     {Outcome::Sdc, "sdc"},
    {Outcome::Crash, "crash"},       {Outcome::Deadlock, "deadlock"},
    {Outcome::Timeout, "timeout"},
};

bool
parseDecimal(const std::string &text, std::uint64_t *out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

} // namespace

const char *
targetName(Target target)
{
    return enumName(kTargets, target, "none");
}

bool
targetByName(const std::string &name, Target *out)
{
    return enumByName(kTargets, name, out);
}

std::string
targetNameList()
{
    return enumNameList(kTargets);
}

bool
parseTargetList(const std::string &list, std::vector<Target> *out,
                std::string *error)
{
    for (std::size_t start = 0;;) {
        const std::size_t plus = list.find('+', start);
        const std::string name = list.substr(start, plus - start);
        Target target;
        if (!targetByName(name, &target)) {
            *error = "unknown target '" + name + "' (targets: " +
                     targetNameList() + ")";
            return false;
        }
        out->push_back(target);
        if (plus == std::string::npos)
            return true;
        start = plus + 1;
    }
}

const std::vector<Target> &
allTargets()
{
    static const std::vector<Target> all = [] {
        std::vector<Target> v;
        for (const EnumName<Target> &row : kTargets)
            v.push_back(row.value);
        return v;
    }();
    return all;
}

std::string
formatInjectSpec(const StateInjection &injection)
{
    std::string out = targetName(injection.target);
    out += ':';
    out += std::to_string(injection.index);
    out += ':';
    out += std::to_string(injection.bit);
    out += ':';
    out += std::to_string(injection.cycle);
    return out;
}

bool
parseInjectSpec(const std::string &text, StateInjection *out,
                std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "injection spec '" + text + "' " + why +
                     " (targets: " + targetNameList() + ")";
        return false;
    };

    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (parts.size() < 4) {
        std::size_t colon = text.find(':', pos);
        if (colon == std::string::npos) {
            parts.push_back(text.substr(pos));
            break;
        }
        parts.push_back(text.substr(pos, colon - pos));
        pos = colon + 1;
    }
    if (parts.size() != 4)
        return fail("is not <target>:<index>:<bit>:<cycle>");

    StateInjection inj;
    if (!targetByName(parts[0], &inj.target) ||
        inj.target == Target::None)
        return fail("names unknown target '" + parts[0] + "'");
    std::uint64_t bit = 0;
    if (!parseDecimal(parts[1], &inj.index) ||
        !parseDecimal(parts[2], &bit) ||
        !parseDecimal(parts[3], &inj.cycle))
        return fail("has a non-numeric index, bit, or cycle");
    if (bit >= 64)
        return fail("has bit " + parts[2] + " outside [0, 64)");
    inj.bit = std::uint32_t(bit);
    *out = inj;
    return true;
}

std::vector<StateInjection>
makeInjectionPlan(std::size_t cells, std::uint64_t seed,
                  const std::vector<Target> &targets,
                  std::uint64_t maxCycle)
{
    std::vector<StateInjection> plan;
    if (targets.empty())
        return plan;
    plan.reserve(cells);
    Random rng(seed ? seed : 1);
    for (std::size_t i = 0; i < cells; i++) {
        StateInjection inj;
        // Round-robin targets so every structure gets even coverage
        // regardless of how the random draws land.
        inj.target = targets[i % targets.size()];
        inj.index = rng.next();
        inj.bit = std::uint32_t(rng.below(64));
        inj.cycle = 1 + Cycle(rng.below(maxCycle ? maxCycle : 1));
        plan.push_back(inj);
    }
    return plan;
}

const char *
outcomeName(Outcome outcome)
{
    return enumName(kOutcomes, outcome, "crash");
}

bool
outcomeByName(const std::string &name, Outcome *out)
{
    return enumByName(kOutcomes, name, out);
}

std::uint64_t
archDigest(const Checkpoint &state)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (RegVal r : state.regs)
        mix64(r);
    mix64(state.pc);
    mix64(state.halted ? 1 : 0);
    // The emulator exports words in page-table iteration order; sort
    // so equal states digest equally regardless of touch order.
    std::vector<std::pair<Addr, RegVal>> mem = state.memory;
    std::sort(mem.begin(), mem.end());
    for (const auto &[addr, word] : mem) {
        mix64(addr);
        mix64(word);
    }
    return h;
}

std::string
goldenKey(const std::string &manifestHash, const std::string &workload,
          std::uint64_t maxInsts)
{
    return "vgold|" + manifestHash + "|" + workload + "|" +
           std::to_string(maxInsts);
}

std::string
serializeGolden(const GoldenRef &golden)
{
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(golden.digest));
    std::string out = "vgold1 digest=";
    out += digest;
    out += " cycles=" + std::to_string(golden.cycles);
    out += " insts=" + std::to_string(golden.insts);
    out += " finished=";
    out += golden.finished ? '1' : '0';
    return out;
}

bool
parseGolden(const std::string &text, GoldenRef *out)
{
    // Strict parse of our own writer's output, same contract as the
    // checkpoint meta blobs: read what we write, reject everything
    // else (including a corrupted store payload).
    const std::string prefix = "vgold1 digest=";
    if (text.compare(0, prefix.size(), prefix) != 0)
        return false;
    std::size_t pos = prefix.size();
    if (text.size() < pos + 16)
        return false;
    std::string hex = text.substr(pos, 16);
    if (hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    GoldenRef g;
    g.digest = std::strtoull(hex.c_str(), nullptr, 16);
    pos += 16;

    auto field = [&](const char *name, std::uint64_t *value) {
        std::string want = std::string(" ") + name + "=";
        if (text.compare(pos, want.size(), want) != 0)
            return false;
        pos += want.size();
        std::size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' &&
               text[pos] <= '9')
            pos++;
        if (pos == start)
            return false;
        *value = std::strtoull(text.substr(start, pos - start).c_str(),
                               nullptr, 10);
        return true;
    };
    std::uint64_t cycles = 0, finished = 0;
    if (!field("cycles", &cycles) || !field("insts", &g.insts) ||
        !field("finished", &finished))
        return false;
    if (pos != text.size() || finished > 1)
        return false;
    g.cycles = cycles;
    g.finished = finished == 1;
    *out = g;
    return true;
}

// ---------------------------------------------------------------------
// Vulnerability table
// ---------------------------------------------------------------------

namespace {

std::string
fixed6(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

VulnRow
finishRow(VulnRow row)
{
    // Non-masked rate with a Student-t 95% CI over the per-cell 0/1
    // indicators — the same helper the sampled campaigns use.
    std::vector<double> indicators;
    indicators.reserve(row.cells);
    for (std::uint64_t i = 0; i < row.masked; i++)
        indicators.push_back(0.0);
    for (std::uint64_t i = 0; i < row.cells - row.masked; i++)
        indicators.push_back(1.0);
    checkpoint::SampleStats stats = checkpoint::sampleStats(indicators);
    row.nonMaskedRate = row.cells ? stats.mean : 0.0;
    row.nonMaskedCi = stats.ciHalf;
    return row;
}

} // namespace

std::vector<VulnRow>
buildVulnTable(const std::vector<OutcomeSample> &samples)
{
    // Canonical target order first so the table is deterministic no
    // matter what order the cells were classified in.
    std::vector<std::string> order;
    for (Target t : allTargets())
        order.push_back(targetName(t));
    for (const OutcomeSample &s : samples)
        if (std::find(order.begin(), order.end(), s.target) ==
            order.end())
            order.push_back(s.target);

    std::vector<VulnRow> rows;
    VulnRow total;
    total.target = "all";
    for (const std::string &target : order) {
        VulnRow row;
        row.target = target;
        for (const OutcomeSample &s : samples) {
            if (s.target != target)
                continue;
            row.cells++;
            Outcome o = Outcome::Crash;
            if (!outcomeByName(s.outcome, &o))
                o = Outcome::Crash;
            switch (o) {
              case Outcome::Masked:
                row.masked++;
                break;
              case Outcome::Sdc:
                row.sdc++;
                break;
              case Outcome::Crash:
                row.crash++;
                break;
              case Outcome::Deadlock:
                row.deadlock++;
                break;
              case Outcome::Timeout:
                row.timeout++;
                break;
            }
        }
        if (!row.cells)
            continue;
        total.cells += row.cells;
        total.masked += row.masked;
        total.sdc += row.sdc;
        total.crash += row.crash;
        total.deadlock += row.deadlock;
        total.timeout += row.timeout;
        rows.push_back(finishRow(row));
    }
    if (total.cells)
        rows.push_back(finishRow(total));
    return rows;
}

std::string
vulnTableJson(const std::vector<VulnRow> &rows)
{
    std::string os = "{\n  \"table\": \"vulnerability\",\n"
                     "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); i++) {
        const VulnRow &r = rows[i];
        os += i ? ",\n" : "\n";
        os += "    {\"target\": \"" + r.target + "\"";
        os += ", \"cells\": " + std::to_string(r.cells);
        os += ", \"masked\": " + std::to_string(r.masked);
        os += ", \"sdc\": " + std::to_string(r.sdc);
        os += ", \"crash\": " + std::to_string(r.crash);
        os += ", \"deadlock\": " + std::to_string(r.deadlock);
        os += ", \"timeout\": " + std::to_string(r.timeout);
        os += ", \"non_masked_rate\": " + fixed6(r.nonMaskedRate);
        os += ", \"non_masked_ci95\": " + fixed6(r.nonMaskedCi);
        os += "}";
    }
    os += rows.empty() ? "]\n" : "\n  ]\n";
    os += "}\n";
    return os;
}

std::string
vulnTableCsv(const std::vector<VulnRow> &rows)
{
    std::string os = "target,cells,masked,sdc,crash,deadlock,timeout,"
                     "non_masked_rate,non_masked_ci95\n";
    for (const VulnRow &r : rows) {
        os += r.target;
        os += ',' + std::to_string(r.cells);
        os += ',' + std::to_string(r.masked);
        os += ',' + std::to_string(r.sdc);
        os += ',' + std::to_string(r.crash);
        os += ',' + std::to_string(r.deadlock);
        os += ',' + std::to_string(r.timeout);
        os += ',' + fixed6(r.nonMaskedRate);
        os += ',' + fixed6(r.nonMaskedCi);
        os += '\n';
    }
    return os;
}

std::string
vulnTableText(const std::vector<VulnRow> &rows)
{
    char buf[160];
    std::string os;
    std::snprintf(buf, sizeof(buf),
                  "%-10s %6s %7s %5s %6s %9s %8s %11s\n", "target",
                  "cells", "masked", "sdc", "crash", "deadlock",
                  "timeout", "non-masked");
    os += buf;
    for (const VulnRow &r : rows) {
        std::snprintf(buf, sizeof(buf),
                      "%-10s %6llu %7llu %5llu %6llu %9llu %8llu "
                      "%.4f±%.4f\n",
                      r.target.c_str(),
                      static_cast<unsigned long long>(r.cells),
                      static_cast<unsigned long long>(r.masked),
                      static_cast<unsigned long long>(r.sdc),
                      static_cast<unsigned long long>(r.crash),
                      static_cast<unsigned long long>(r.deadlock),
                      static_cast<unsigned long long>(r.timeout),
                      r.nonMaskedRate, r.nonMaskedCi);
        os += buf;
    }
    return os;
}

} // namespace inject
} // namespace simalpha
