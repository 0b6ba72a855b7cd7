#include "journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "checkpoint/checkpoint.hh"
#include "common/json.hh"
#include "common/logging.hh"

#include "runner/artifacts.hh"
#include "runner/campaign.hh"

namespace simalpha {
namespace runner {

using validate::Optimization;

std::string
journalKey(const Cell &cell)
{
    std::string key = cell.machine;
    key += '\x1f';
    key += validate::optimizationName(cell.opt);
    key += '\x1f';
    key += cell.workload;
    key += '\x1f';
    key += std::to_string(cell.maxInsts);
    key += '\x1f';
    key += std::to_string(cellSeed(cell));
    // Sampled and unsampled runs of one identity are different
    // measurements; unsampled keys keep their historical bytes.
    if (cell.sample.enabled()) {
        key += '\x1f';
        key += checkpoint::formatSampleSpec(cell.sample);
    }
    // Injected cells likewise: the spec joins the identity, plain
    // cells keep their historical key bytes.
    if (cell.inject.enabled()) {
        key += '\x1f';
        key += inject::formatInjectSpec(cell.inject);
    }
    return key;
}

std::string
journalLine(const std::string &campaign, const CellResult &r)
{
    std::ostringstream os;
    os << "{\"campaign\":\"" << json::escape(campaign) << "\""
       << ",\"machine\":\"" << json::escape(r.cell.machine) << "\""
       << ",\"optimization\":\""
       << validate::optimizationName(r.cell.opt) << "\""
       << ",\"workload\":\"" << json::escape(r.cell.workload) << "\""
       << ",\"max_insts\":" << r.cell.maxInsts
       << ",\"seed\":" << r.seed
       << ",\"manifest_hash\":\"" << json::escape(r.manifestHash) << "\""
       << ",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"error\":\"" << json::escape(r.error) << "\""
       << ",\"error_class\":\"" << json::escape(r.errorClass) << "\""
       << ",\"cycles\":" << r.cycles
       << ",\"insts\":" << r.instsCommitted
       << ",\"finished\":" << (r.finished ? "true" : "false");
    // Sampling fields appear only on sampled cells, so every line an
    // unsampled campaign writes is byte-identical to the pre-sampling
    // format (golden artifacts, store payloads, resume keys).
    if (r.cell.sample.enabled()) {
        os << ",\"sample\":\""
           << checkpoint::formatSampleSpec(r.cell.sample) << "\""
           << ",\"sample_windows\":" << r.sampleWindows
           << ",\"sample_total_insts\":" << r.sampleTotalInsts
           << ",\"sample_ipc_mean\":\"" << fixed6(r.sampleIpcMean)
           << "\""
           << ",\"sample_ipc_stddev\":\"" << fixed6(r.sampleIpcStddev)
           << "\""
           << ",\"sample_ipc_ci\":\"" << fixed6(r.sampleIpcCi) << "\"";
    }
    // Injection fields likewise appear only on injected cells, so
    // plain campaigns keep writing their historical bytes.
    if (r.cell.inject.enabled()) {
        os << ",\"inject\":\""
           << inject::formatInjectSpec(r.cell.inject) << "\""
           << ",\"inject_outcome\":\"" << json::escape(r.injectOutcome)
           << "\""
           << ",\"inject_detail\":\"" << json::escape(r.injectDetail)
           << "\"";
    }
    os << ",\"counters\":{";
    bool first = true;
    for (const auto &kv : r.counters) {
        if (!first)
            os << ",";
        os << "\"" << json::escape(kv.first) << "\":" << kv.second;
        first = false;
    }
    os << "}}";
    return os.str();
}

bool
parseJournalLine(const std::string &line, const std::string &campaign,
                 CellResult *result, std::string *key)
{
    json::Value v;
    if (!json::parse(line, &v, nullptr))
        return false;
    // Only `counters` nests: an object of unsigned integers.
    for (const auto &[name, member] : v.members())
        if (member.kind() == json::Value::Kind::Object &&
            name != "counters")
            return false;
    const json::Value *counterValues = nullptr;
    if (!json::field(v, "counters", &counterValues, nullptr))
        return false;
    std::map<std::string, std::uint64_t> counters;
    if (counterValues)
        for (const auto &[name, value] : counterValues->members())
            if (!value.read(&counters[name]))
                return false;

    CellResult r;
    std::string lineCampaign, optimization = "none", sample, mean,
        stddev, ci, inject;
    if (!json::field(v, "campaign", &lineCampaign, nullptr) ||
        lineCampaign != campaign ||
        !json::field(v, "machine", &r.cell.machine, nullptr, true) ||
        !json::field(v, "optimization", &optimization, nullptr) ||
        !json::field(v, "workload", &r.cell.workload, nullptr, true) ||
        !json::field(v, "max_insts", &r.cell.maxInsts, nullptr) ||
        !json::field(v, "seed", &r.seed, nullptr, true) ||
        !json::field(v, "manifest_hash", &r.manifestHash, nullptr) ||
        !json::field(v, "ok", &r.ok, nullptr, true) ||
        !json::field(v, "error", &r.error, nullptr) ||
        !json::field(v, "error_class", &r.errorClass, nullptr) ||
        !json::field(v, "cycles", &r.cycles, nullptr) ||
        !json::field(v, "insts", &r.instsCommitted, nullptr) ||
        !json::field(v, "finished", &r.finished, nullptr) ||
        !json::field(v, "sample", &sample, nullptr) ||
        !json::field(v, "sample_windows", &r.sampleWindows, nullptr) ||
        !json::field(v, "sample_total_insts", &r.sampleTotalInsts,
                     nullptr) ||
        !json::field(v, "sample_ipc_mean", &mean, nullptr) ||
        !json::field(v, "sample_ipc_stddev", &stddev, nullptr) ||
        !json::field(v, "sample_ipc_ci", &ci, nullptr) ||
        !json::field(v, "inject", &inject, nullptr) ||
        !json::field(v, "inject_outcome", &r.injectOutcome, nullptr) ||
        !json::field(v, "inject_detail", &r.injectDetail, nullptr))
        return false;
    bool known = false;
    for (Optimization opt : {Optimization::None, Optimization::FastL1,
                             Optimization::BigL1, Optimization::MoreRegs})
        if (validate::optimizationName(opt) == optimization) {
            r.cell.opt = opt;
            known = true;
        }
    if (!known)
        return false;
    r.cell.seed = r.seed;   // pin the journaled seed
    std::string serror;
    if (v.find("sample") &&
        !checkpoint::parseSampleSpec(sample, &r.cell.sample, &serror))
        return false;
    if (v.find("inject") &&
        !inject::parseInjectSpec(inject, &r.cell.inject, &serror))
        return false;
    r.sampleIpcMean = std::strtod(mean.c_str(), nullptr);
    r.sampleIpcStddev = std::strtod(stddev.c_str(), nullptr);
    r.sampleIpcCi = std::strtod(ci.c_str(), nullptr);
    r.counters = std::move(counters);
    r.fromJournal = true;

    *key = journalKey(r.cell);
    *result = std::move(r);
    return true;
}

bool
loadJournal(const std::string &path, const std::string &campaign,
            std::unordered_map<std::string, CellResult> *out,
            std::string *error)
{
    return readJournal(
        path, campaign,
        [out](const std::string &key, CellResult &r, const std::string &) {
            (*out)[key] = std::move(r);
        },
        error);
}

bool
readJournal(const std::string &path, const std::string &campaign,
            const std::function<void(const std::string &key,
                                     CellResult &result,
                                     const std::string &line)> &visit,
            std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        // A journal that does not exist yet is an empty journal.
        return true;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
        if (error)
            *error = "error reading journal '" + path + "'";
        return false;
    }
    std::string data = buf.str();

    // A file not ending in '\n' carries the torn tail of a process
    // killed mid-write: the fragment can never be a valid entry, so
    // discard it loudly rather than feeding it to the parser — the
    // rest of the journal replays as usual.
    std::size_t usable = data.size();
    if (usable > 0 && data[usable - 1] != '\n') {
        std::size_t nl = data.rfind('\n');
        std::size_t torn =
            nl == std::string::npos ? usable : usable - (nl + 1);
        warn("journal '%s' ends in a torn line (%zu bytes, killed "
             "mid-write?); discarding it and replaying the %s",
             path.c_str(), torn,
             nl == std::string::npos ? "empty remainder"
                                     : "intact entries before it");
        usable = nl == std::string::npos ? 0 : nl + 1;
    }

    std::size_t pos = 0;
    while (pos < usable) {
        std::size_t nl = data.find('\n', pos);
        std::string line = data.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        CellResult r;
        std::string key;
        if (!parseJournalLine(line, campaign, &r, &key))
            continue;   // other campaign's (or a heartbeat) line
        visit(key, r, line);
    }
    return true;
}

CampaignJournal::~CampaignJournal()
{
    close();
}

bool
CampaignJournal::open(const std::string &path, std::string *error,
                      bool sync)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd >= 0)
        ::close(_fd);
    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (_fd < 0) {
        if (error)
            *error = "cannot open journal '" + path +
                     "' for append: " + std::strerror(errno);
        return false;
    }
    _sync = sync;
    return true;
}

void
CampaignJournal::close()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
}

void
CampaignJournal::append(const std::string &campaign,
                        const CellResult &result)
{
    appendRaw(journalLine(campaign, result));
}

void
CampaignJournal::appendRaw(const std::string &line)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd < 0)
        return;
    // One write(2) per line: O_APPEND writes from a single process
    // never interleave, so a kill between cells tears nothing.
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::write(_fd, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;     // best effort, like the flush it replaces
        }
        off += std::size_t(n);
    }
    if (_sync)
        ::fsync(_fd);
}

} // namespace runner
} // namespace simalpha
