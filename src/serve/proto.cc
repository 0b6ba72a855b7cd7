#include "serve/proto.hh"

#include <sstream>

#include "common/json.hh"
#include "common/number.hh"

namespace simalpha {
namespace serve {

using json::escape;

namespace {

/** Parse a flat object, the shape of requests and control lines:
 *  every member a string or an unsigned integer. */
bool
parseFlat(const std::string &line, json::Value *v, std::string *error)
{
    if (!json::parse(line, v, error))
        return false;
    for (const auto &[key, member] : v->members()) {
        std::uint64_t number = 0;
        if (member.kind() != json::Value::Kind::String &&
            !member.read(&number))
            return json::fieldError(key, true, error);
    }
    return true;
}

} // namespace

bool
parseTcpAddress(const std::string &address, std::string *host,
                std::uint16_t *port, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad TCP address '" + address + "': " + why;
        return false;
    };
    if (address.rfind("tcp:", 0) != 0)
        return fail("expected tcp:PORT or tcp:HOST:PORT");
    std::string rest = address.substr(4);
    std::string hostText = "127.0.0.1";
    std::string portText = rest;
    std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
        hostText = rest.substr(0, colon);
        portText = rest.substr(colon + 1);
        if (hostText.empty())
            return fail("empty host");
    }
    std::uint64_t value = 0;
    if (!parseNumber(portText, &value))
        return fail("port '" + portText + "' is not a number");
    if (value > 65535)
        return fail("port " + portText + " is out of range (0-65535)");
    *host = hostText;
    *port = std::uint16_t(value);
    return true;
}

bool
parseRequest(const std::string &line, Request *out, std::string *error)
{
    if (line.size() > kMaxLineBytes) {
        if (error)
            *error = "request line exceeds the per-line byte cap";
        return false;
    }
    json::Value v;
    Request r;
    if (!parseFlat(line, &v, error) ||
        !json::field(v, "op", &r.op, error, true) ||
        !json::field(v, "campaign", &r.campaign, error) ||
        !json::field(v, "max_insts", &r.maxInsts, error) ||
        !json::field(v, "sample", &r.sample, error) ||
        !json::field(v, "client", &r.client, error) ||
        !json::field(v, "mode", &r.mode, error) ||
        !json::field(v, "entries", &r.entries, error) ||
        !json::field(v, "newer_than", &r.newerThan, error))
        return false;
    *out = std::move(r);
    return true;
}

std::string
requestLine(const Request &r)
{
    std::string line = "{\"op\":\"" + escape(r.op) + "\"";
    auto text = [&](const char *key, const std::string &value) {
        if (!value.empty())
            line += ",\"" + std::string(key) + "\":\"" +
                    escape(value) + "\"";
    };
    auto number = [&](const char *key, std::uint64_t value) {
        if (value)
            line += ",\"" + std::string(key) +
                    "\":" + std::to_string(value);
    };
    text("campaign", r.campaign);
    number("max_insts", r.maxInsts);
    text("sample", r.sample);
    text("client", r.client);
    text("mode", r.mode);
    number("entries", r.entries);
    number("newer_than", r.newerThan);
    return line + "}";
}

bool
isServeLine(const std::string &line)
{
    return line.rfind("{\"serve\":1,", 0) == 0 ||
           line == "{\"serve\":1}";
}

bool
parseServeLine(const std::string &line,
               std::map<std::string, std::string> *strings,
               std::map<std::string, std::uint64_t> *numbers)
{
    json::Value v;
    if (!parseFlat(line, &v, nullptr))
        return false;
    // In document order, so a repeated key keeps its last value.
    for (const auto &[key, member] : v.members()) {
        strings->erase(key);
        numbers->erase(key);
        if (member.kind() == json::Value::Kind::String)
            member.read(&(*strings)[key]);
        else
            member.read(&(*numbers)[key]);
    }
    return true;
}

std::string
helloLine(const std::string &storePath, std::size_t maxPending,
          std::size_t maxClients)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"hello\",\"version\":"
       << kProtoVersion << ",\"store\":\"" << escape(storePath)
       << "\",\"max_pending\":" << maxPending
       << ",\"max_clients\":" << maxClients << "}";
    return os.str();
}

std::string
errorLine(const std::string &code, const std::string &message)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"error\",\"code\":\""
       << escape(code) << "\",\"message\":\""
       << escape(message) << "\"}";
    return os.str();
}

std::string
acceptedLine(const std::string &campaign, const std::string &jobId,
             std::size_t cells, std::size_t pendingAhead)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"accepted\",\"campaign\":\""
       << escape(campaign) << "\",\"job\":\"" << escape(jobId)
       << "\",\"cells\":" << cells
       << ",\"pending_ahead\":" << pendingAhead << "}";
    return os.str();
}

std::string
doneLine(const std::string &campaign, const std::string &jobId,
         std::size_t cells, std::size_t okCells,
         std::size_t failedCells, const std::string &outcome)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"done\",\"campaign\":\""
       << escape(campaign) << "\",\"job\":\"" << escape(jobId)
       << "\",\"cells\":" << cells << ",\"ok\":" << okCells
       << ",\"failed\":" << failedCells << ",\"outcome\":\""
       << escape(outcome) << "\"}";
    return os.str();
}

std::string
statusLine(const std::string &campaign, const std::string &jobId,
           const std::string &state, std::size_t settled,
           std::size_t cells)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"status\",\"campaign\":\""
       << escape(campaign) << "\",\"job\":\"" << escape(jobId)
       << "\",\"state\":\"" << escape(state)
       << "\",\"settled\":" << settled << ",\"cells\":" << cells
       << "}";
    return os.str();
}

std::string
healthLine(const HealthSnapshot &s)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"health\",\"status\":\""
       << (s.draining ? "draining" : "ok")
       << "\",\"store\":\"" << (s.storeDegraded ? "degraded" : "ok")
       << "\",\"clients\":" << s.clients
       << ",\"jobs_pending\":" << s.jobsPending
       << ",\"jobs_running\":" << (s.jobRunning ? 1 : 0)
       << ",\"jobs_done\":" << s.jobsDone
       << ",\"cells_computed\":" << s.cellsComputed
       << ",\"cells_served\":" << s.cellsServed
       << ",\"busy_rejections\":" << s.busyRejections
       << ",\"pid\":" << s.pid
       << ",\"uptime_s\":" << s.uptimeSeconds
       << ",\"store_path\":\"" << escape(s.storePath) << "\"}";
    return os.str();
}

std::string
capabilitiesLine(const Capabilities &caps)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"capabilities\",\"version\":"
       << kProtoVersion
       << ",\"ops\":\"hello,submit,status,results,cancel,health,"
          "capabilities,sync,shutdown\""
       << ",\"store_path\":\"" << escape(caps.storePath)
       << "\",\"isolate\":\"" << escape(caps.isolate)
       << "\",\"max_line_bytes\":" << kMaxLineBytes
       << ",\"max_sync_line_bytes\":" << kMaxSyncLineBytes
       << ",\"max_pending\":" << caps.maxPending
       << ",\"max_clients\":" << caps.maxClients
       << ",\"max_cells\":" << caps.maxCellsPerCampaign
       << ",\"max_client_cells\":" << caps.maxClientCells << "}";
    return os.str();
}

std::string
syncedLine(const std::string &direction, std::uint64_t entries)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"synced\",\"direction\":\""
       << escape(direction) << "\",\"entries\":" << entries
       << "}";
    return os.str();
}

std::string
drainingLine()
{
    return "{\"serve\":1,\"event\":\"draining\"}";
}

std::string
cancellingLine(const std::string &campaign, const std::string &jobId)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"cancelling\",\"campaign\":\""
       << escape(campaign) << "\",\"job\":\"" << escape(jobId)
       << "\"}";
    return os.str();
}

} // namespace serve
} // namespace simalpha
