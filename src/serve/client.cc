#include "serve/client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "checkpoint/checkpoint.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/shard.hh"
#include "serve/proto.hh"

namespace simalpha {
namespace serve {

using Clock = std::chrono::steady_clock;

namespace {

double
remainingSeconds(Clock::time_point deadline, bool hasDeadline)
{
    if (!hasDeadline)
        return -1.0;    // poll() "forever"
    return std::chrono::duration<double>(deadline - Clock::now())
        .count();
}

/**
 * Connect to a Unix-socket path or a tcp:[HOST:]PORT address, bounded
 * by the earlier of the per-attempt deadline and the connect timeout.
 * The connect itself runs non-blocking so an unreachable (black-holed)
 * host reports "timed out connecting" instead of hanging; the returned
 * descriptor is switched back to blocking for the request exchange.
 */
int
connectTo(const std::string &where, Clock::time_point deadline,
          bool hasDeadline, double connectTimeoutSeconds,
          std::string *error)
{
    sockaddr_storage ss{};
    socklen_t slen = 0;
    int family = AF_UNIX;
    if (where.rfind("tcp:", 0) == 0) {
        std::string host;
        std::uint16_t port = 0;
        if (!parseTcpAddress(where, &host, &port, error))
            return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            *error = "cannot connect to " + where + ": '" + host +
                     "' is not an IPv4 address";
            return -1;
        }
        addr.sin_port = htons(port);
        std::memcpy(&ss, &addr, sizeof(addr));
        slen = sizeof(addr);
        family = AF_INET;
    } else {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (where.size() >= sizeof(addr.sun_path)) {
            *error = "cannot connect to '" + where +
                     "': socket path exceeds the sockaddr_un limit";
            return -1;
        }
        std::strncpy(addr.sun_path, where.c_str(),
                     sizeof(addr.sun_path) - 1);
        std::memcpy(&ss, &addr, sizeof(addr));
        slen = sizeof(addr);
    }

    int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::string("cannot create socket: ") +
                 std::strerror(errno);
        return -1;
    }

    Clock::time_point connectDeadline = deadline;
    bool hasConnectDeadline = hasDeadline;
    if (connectTimeoutSeconds > 0.0) {
        Clock::time_point t =
            Clock::now() + std::chrono::microseconds(
                               long(connectTimeoutSeconds * 1e6));
        if (!hasConnectDeadline || t < connectDeadline)
            connectDeadline = t;
        hasConnectDeadline = true;
    }

    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&ss), slen);
    if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
        *error = "cannot connect to " + where + ": " +
                 std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (rc != 0) {
        for (;;) {
            int timeoutMs = -1;
            if (hasConnectDeadline) {
                double remain = std::chrono::duration<double>(
                                    connectDeadline - Clock::now())
                                    .count();
                if (remain <= 0.0) {
                    *error = "timed out connecting to " + where;
                    ::close(fd);
                    return -1;
                }
                timeoutMs = int(remain * 1000.0) + 1;
            }
            pollfd pfd{fd, POLLOUT, 0};
            int prc = ::poll(&pfd, 1, timeoutMs);
            if (prc > 0)
                break;
            if (prc == 0) {
                *error = "timed out connecting to " + where;
                ::close(fd);
                return -1;
            }
            if (errno != EINTR) {
                *error = std::string("poll failed: ") +
                         std::strerror(errno);
                ::close(fd);
                return -1;
            }
        }
        int soError = 0;
        socklen_t elen = sizeof(soError);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &elen);
        if (soError != 0) {
            *error = "cannot connect to " + where + ": " +
                     std::strerror(soError);
            ::close(fd);
            return -1;
        }
    }
    ::fcntl(fd, F_SETFL, flags);
    return fd;
}

bool
sendAll(int fd, const std::string &data, std::string *error)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            *error = std::string("send failed: ") +
                     std::strerror(errno);
            return false;
        }
        off += std::size_t(n);
    }
    return true;
}

/** Read one '\n'-terminated line (buffered in *carry). Returns 1 on
 *  a line, 0 on orderly EOF with nothing buffered, -1 on error or
 *  timeout (with *error filled). */
int
readLine(int fd, std::string *carry, std::string *line,
         Clock::time_point deadline, bool hasDeadline,
         std::string *error, std::size_t maxLineBytes = kMaxLineBytes)
{
    for (;;) {
        std::size_t pos = carry->find('\n');
        if (pos != std::string::npos) {
            *line = carry->substr(0, pos);
            carry->erase(0, pos + 1);
            return 1;
        }
        if (carry->size() > maxLineBytes) {
            *error = "reply line exceeds the per-line byte cap";
            return -1;
        }
        double remain = remainingSeconds(deadline, hasDeadline);
        if (hasDeadline && remain <= 0.0) {
            *error = "timed out waiting for the daemon";
            return -1;
        }
        pollfd pfd{fd, POLLIN, 0};
        int timeoutMs =
            hasDeadline ? int(remain * 1000.0) + 1 : -1;
        int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc == 0) {
            *error = "timed out waiting for the daemon";
            return -1;
        }
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            *error = std::string("poll failed: ") +
                     std::strerror(errno);
            return -1;
        }
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            carry->append(buf, std::size_t(n));
            continue;
        }
        if (n == 0) {
            if (carry->empty())
                return 0;
            *error = "connection closed mid-line";
            return -1;
        }
        if (errno == EINTR)
            continue;
        *error = std::string("read failed: ") + std::strerror(errno);
        return -1;
    }
}

} // namespace

double
retryBackoffSeconds(double baseSeconds, int attempt,
                    std::uint64_t seed)
{
    return runner::respawnBackoffSeconds(baseSeconds, attempt, seed);
}

SubmitOutcome
submitCampaign(const ClientOptions &options,
               const std::string &campaign, std::uint64_t maxInsts,
               const std::string &sample, bool resultsOnly,
               const std::function<void(const std::string &)> &onLine)
{
    SubmitOutcome out;
    Request req;
    req.op = resultsOnly ? "results" : "submit";
    req.campaign = campaign;
    req.maxInsts = maxInsts;
    req.sample = sample;
    const std::string request = requestLine(req) + "\n";

    for (int attempt = 0;; attempt++) {
        bool retryable = false;
        std::string aerror;

        if (attempt > 0) {
            double delay = retryBackoffSeconds(
                options.backoffSeconds, attempt - 1, options.seed);
            std::this_thread::sleep_for(
                std::chrono::microseconds(long(delay * 1e6)));
        }

        const bool hasDeadline = options.timeoutSeconds > 0.0;
        Clock::time_point deadline =
            Clock::now() + std::chrono::microseconds(
                               long(options.timeoutSeconds * 1e6));

        out.attempts++;
        out.lines.clear();
        out.doneStrings.clear();
        out.doneNumbers.clear();
        out.errorCode.clear();

        int fd = connectTo(options.connect, deadline, hasDeadline,
                           options.connectTimeoutSeconds, &aerror);
        if (fd < 0) {
            retryable = true;   // daemon restarting, stale socket
        } else if (!sendAll(fd, request, &aerror)) {
            retryable = true;
            ::close(fd);
            fd = -1;
        }

        bool finished = false;
        std::string carry, line;
        while (fd >= 0 && !finished) {
            int rc = readLine(fd, &carry, &line, deadline,
                              hasDeadline, &aerror);
            if (rc <= 0) {
                // EOF or timeout mid-stream: the daemon died or
                // drained under us. The journal has everything that
                // settled; resubmission replays it byte-identically.
                if (rc == 0)
                    aerror = "connection closed mid-stream";
                retryable = true;
                break;
            }
            if (!isServeLine(line)) {
                out.lines.push_back(line);
                if (onLine)
                    onLine(line);
                continue;
            }
            std::map<std::string, std::string> strings;
            std::map<std::string, std::uint64_t> numbers;
            if (!parseServeLine(line, &strings, &numbers)) {
                aerror = "unparseable control line from the daemon";
                retryable = true;
                break;
            }
            const std::string &event = strings["event"];
            if (event == "accepted")
                continue;
            if (event == "done") {
                out.doneStrings = std::move(strings);
                out.doneNumbers = std::move(numbers);
                out.ok = true;
                finished = true;
                continue;
            }
            if (event == "error") {
                out.errorCode = strings["code"];
                aerror = strings["message"];
                // busy is the only protocol-level retryable error:
                // backoff is exactly what the daemon asked for.
                retryable = out.errorCode == "busy";
                break;
            }
            if (event == "draining") {
                out.errorCode = "draining";
                aerror = "daemon is draining";
                retryable = false;
                break;
            }
            // Unknown control events are ignorable (forward compat).
        }
        if (fd >= 0)
            ::close(fd);

        if (finished)
            return out;
        if (!retryable || attempt >= options.maxRetries) {
            out.ok = false;
            out.error = aerror.empty() ? "submission failed" : aerror;
            return out;
        }
    }
}

bool
requestOnce(const ClientOptions &options,
            const std::string &requestLine, std::string *reply,
            std::string *error)
{
    const bool hasDeadline = options.timeoutSeconds > 0.0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(
                           long(options.timeoutSeconds * 1e6));
    int fd = connectTo(options.connect, deadline, hasDeadline,
                       options.connectTimeoutSeconds, error);
    if (fd < 0)
        return false;
    if (!sendAll(fd, requestLine + "\n", error)) {
        ::close(fd);
        return false;
    }
    std::string carry;
    int rc =
        readLine(fd, &carry, reply, deadline, hasDeadline, error);
    ::close(fd);
    if (rc == 1)
        return true;
    if (rc == 0 && error)
        *error = "daemon closed the connection without replying";
    return false;
}

bool
linesToResult(const std::string &campaign, std::uint64_t maxInsts,
              const std::string &sample,
              const std::vector<std::string> &lines,
              runner::CampaignResult *out, std::string *error)
{
    checkpoint::SampleSpec s;
    std::string serror;
    if (!sample.empty() &&
        !checkpoint::parseSampleSpec(sample, &s, &serror)) {
        if (error)
            *error = "sample: " + serror;
        return false;
    }
    runner::CampaignSpec spec;
    if (runner::deriveCampaign(campaign, maxInsts, s, &spec, error) !=
        runner::CampaignLookup::Found)
        return false;

    std::unordered_map<std::string, runner::CellResult> byKey;
    for (const std::string &line : lines) {
        runner::CellResult r;
        std::string key;
        if (runner::parseJournalLine(line, spec.name, &r, &key))
            byKey[key] = std::move(r);
    }

    out->campaign = spec.name;
    out->cells.assign(spec.cells.size(), runner::CellResult());
    for (std::size_t i = 0; i < spec.cells.size(); i++) {
        auto it = byKey.find(runner::journalKey(spec.cells[i]));
        if (it == byKey.end()) {
            if (error)
                *error = "stream has no result for cell '" +
                         spec.cells[i].workload + "' on '" +
                         spec.cells[i].machine + "'";
            return false;
        }
        runner::CellResult r = it->second;
        r.cell = spec.cells[i];
        out->cells[i] = std::move(r);
    }
    return true;
}

namespace {

/** Shared tail of the sync ops: read until the daemon's `synced`
 *  control line, handing every non-control line to @p onDump. */
bool
readUntilSynced(int fd, Clock::time_point deadline, bool hasDeadline,
                const std::function<void(const std::string &)> &onDump,
                std::uint64_t *reported, std::string *error)
{
    std::string carry, line;
    for (;;) {
        int rc = readLine(fd, &carry, &line, deadline, hasDeadline,
                          error, kMaxSyncLineBytes);
        if (rc == 0) {
            if (error)
                *error = "connection closed before the synced line";
            return false;
        }
        if (rc < 0)
            return false;
        if (!isServeLine(line)) {
            if (onDump)
                onDump(line);
            continue;
        }
        std::map<std::string, std::string> strings;
        std::map<std::string, std::uint64_t> numbers;
        if (!parseServeLine(line, &strings, &numbers)) {
            if (error)
                *error = "unparseable control line from the daemon";
            return false;
        }
        const std::string &event = strings["event"];
        if (event == "synced") {
            if (reported)
                *reported = numbers["entries"];
            return true;
        }
        if (event == "error") {
            if (error)
                *error = strings["message"];
            return false;
        }
        // Other control events are ignorable (forward compat).
    }
}

} // namespace

bool
syncPull(const ClientOptions &options, store::ResultStore *into,
         std::uint64_t newerThanSeconds, std::uint64_t *pulled,
         std::string *error)
{
    if (!into || !into->isOpen()) {
        if (error)
            *error = "sync pull needs an open local store";
        return false;
    }
    const bool hasDeadline = options.timeoutSeconds > 0.0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(
                           long(options.timeoutSeconds * 1e6));
    int fd = connectTo(options.connect, deadline, hasDeadline,
                       options.connectTimeoutSeconds, error);
    if (fd < 0)
        return false;
    Request req;
    req.op = "sync";
    req.mode = "pull";
    req.newerThan = newerThanSeconds;
    if (!sendAll(fd, requestLine(req) + "\n", error)) {
        ::close(fd);
        return false;
    }
    std::uint64_t published = 0;
    bool ok = readUntilSynced(
        fd, deadline, hasDeadline,
        [&](const std::string &dump) {
            std::string key, payload;
            if (store::ResultStore::parseExportLine(dump, &key,
                                                    &payload) &&
                into->publish(key, payload, nullptr))
                published++;
        },
        nullptr, error);
    ::close(fd);
    if (ok && pulled)
        *pulled = published;
    return ok;
}

bool
syncPush(const ClientOptions &options, const store::ResultStore &from,
         const store::ExportFilter &filter, std::uint64_t *pushed,
         std::string *error)
{
    // The push request announces the entry count up front, so the
    // walk collects first (a racing publisher changing the store
    // between a counting pass and a sending pass would desync the
    // framing otherwise).
    std::vector<std::string> dumps;
    if (!from.exportLines(
            filter,
            [&](const std::string &line) {
                dumps.push_back(line);
                return true;
            },
            nullptr, error))
        return false;

    const bool hasDeadline = options.timeoutSeconds > 0.0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(
                           long(options.timeoutSeconds * 1e6));
    int fd = connectTo(options.connect, deadline, hasDeadline,
                       options.connectTimeoutSeconds, error);
    if (fd < 0)
        return false;
    Request req;
    req.op = "sync";
    req.mode = "push";
    req.entries = dumps.size();
    std::string payload = requestLine(req) + "\n";
    for (const std::string &dump : dumps) {
        payload += dump;
        payload += '\n';
    }
    bool ok = sendAll(fd, payload, error) &&
              readUntilSynced(fd, deadline, hasDeadline, nullptr,
                              pushed, error);
    ::close(fd);
    return ok;
}

} // namespace serve
} // namespace simalpha
