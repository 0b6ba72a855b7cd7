/**
 * @file
 * The wire protocol of the campaign service: newline-delimited JSON
 * over a byte stream (Unix-domain socket by default, TCP optionally).
 *
 * Requests are single flat JSON objects, one per line:
 *
 *   {"op":"hello","client":"bench-rig"}
 *   {"op":"submit","campaign":"table3","max_insts":100000}
 *   {"op":"submit","campaign":"table3","sample":"windows=5,len=1000"}
 *   {"op":"results","campaign":"table3","max_insts":100000}
 *   {"op":"status","campaign":"table3","max_insts":100000}
 *   {"op":"cancel","campaign":"table3","max_insts":100000}
 *   {"op":"health"}
 *   {"op":"capabilities"}
 *   {"op":"sync","mode":"pull","newer_than":3600}
 *   {"op":"sync","mode":"push","entries":12}
 *   {"op":"shutdown"}
 *
 * Responses are lines of two kinds, distinguished by prefix:
 *
 *   - control lines start with {"serve":1, — hello/accepted/status/
 *     health/done/error events produced by the service itself, and
 *   - result lines start with {"campaign": — the *verbatim bytes* of
 *     campaign-journal lines (runner/journal.hh), streamed as cells
 *     settle. The service never re-encodes a result, so a client
 *     collecting the stream holds exactly the journal an uninterrupted
 *     local run would have written.
 *
 * The `sync` op (protocol 2, the fleet tier's store transport) adds a
 * third line kind: store dump lines {"key":"...","payload":"..."} in
 * the store's exportTo() JSONL format. A pull streams the daemon's
 * store (optionally only entries published in the last `newer_than`
 * seconds) as dump lines followed by a `synced` control line; a push
 * announces `entries` and then sends exactly that many dump lines,
 * which the daemon imports last-writer-wins before replying `synced`.
 * Dump lines may carry checkpoint blobs, so sync mode raises the line
 * cap to kMaxSyncLineBytes.
 *
 * Requests and control lines are read through the shared strict codec
 * (common/json.hh) and must be flat objects of string and unsigned-
 * integer fields, bounded by the server's line cap; a known field of
 * the wrong type fails the parse. Anything else returns false (never
 * throwing, never reading out of bounds): fuzzable garbage costs one
 * "error" reply line.
 */

#ifndef SIMALPHA_SERVE_PROTO_HH
#define SIMALPHA_SERVE_PROTO_HH

#include <cstdint>
#include <map>
#include <string>

namespace simalpha {
namespace serve {

/** Protocol version spoken by this build (in hello and capabilities
 *  lines). Version 2 added the `sync` and `capabilities` ops and the
 *  enriched health line; a version-2 peer still understands every
 *  version-1 exchange. */
constexpr int kProtoVersion = 2;

/** Longest request or control line either side will accept. Result
 *  lines are journal lines and stay far below this. */
constexpr std::size_t kMaxLineBytes = 64 * 1024;

/** Line cap while a connection is in sync mode: store dump lines
 *  carry whole payloads (checkpoint blobs included), which dwarf any
 *  control line. */
constexpr std::size_t kMaxSyncLineBytes = 8 * 1024 * 1024;

/** A parsed client request. Unknown ops parse fine (op carries the
 *  text) and are rejected by the server with an "error" reply. */
struct Request
{
    std::string op;        ///< "hello", "submit", "status", ...
    std::string campaign;  ///< named campaign ("table3", "smoke", ...)
    std::uint64_t maxInsts = 0;
    std::string sample;    ///< formatted SampleSpec, empty = unsampled
    std::string client;    ///< optional self-identification (hello)
    std::string mode;      ///< sync direction: "pull" or "push"
    std::uint64_t entries = 0;   ///< sync push: dump lines to follow
    std::uint64_t newerThan = 0; ///< sync pull: mtime filter, seconds
                                 ///< (0 = whole store)
};

/**
 * Parse a "tcp:PORT" or "tcp:HOST:PORT" address (HOST an IPv4
 * dotted quad; omitted = 127.0.0.1). Shared by the server's bind and
 * the client's connect so both sides accept the same spellings.
 * Returns false with *error filled on anything else.
 */
bool parseTcpAddress(const std::string &address, std::string *host,
                     std::uint16_t *port, std::string *error);

/** Parse one request line. Returns false with *error filled (naming
 *  the field, for an ill-typed one) for anything that is not a flat
 *  JSON object with the expected field types; never throws. */
bool parseRequest(const std::string &line, Request *out,
                  std::string *error);

/** Serialize a request (no trailing newline): "op" first, then every
 *  non-empty string and non-zero integer field in Request order. */
std::string requestLine(const Request &request);

/** True iff @p line is a service control line (vs a verbatim result
 *  line or garbage). */
bool isServeLine(const std::string &line);

/**
 * Parse a control line into its string and integer fields ("serve"
 * itself included, as an integer). Returns false for anything that is
 * not a flat object. Used by the client and the tests; the server
 * only ever writes these.
 */
bool parseServeLine(const std::string &line,
                    std::map<std::string, std::string> *strings,
                    std::map<std::string, std::uint64_t> *numbers);

// ---------------------------------------------------------------
// Control-line builders (no trailing newline; the transport adds it).
// ---------------------------------------------------------------

std::string helloLine(const std::string &storePath,
                      std::size_t maxPending, std::size_t maxClients);

/** code: bad_request, busy, budget, unknown_campaign, draining,
 *  not_found, job_failed, internal (a request handler threw). `busy`
 *  and connect failures are the retryable ones. */
std::string errorLine(const std::string &code,
                      const std::string &message);

std::string acceptedLine(const std::string &campaign,
                         const std::string &jobId, std::size_t cells,
                         std::size_t pendingAhead);

/** outcome: "complete", "cancelled", "failed". */
std::string doneLine(const std::string &campaign,
                     const std::string &jobId, std::size_t cells,
                     std::size_t okCells, std::size_t failedCells,
                     const std::string &outcome);

/** state: "pending", "running", "done", "cancelled", "failed",
 *  "journal" (settled lines on disk, no live job), "absent". */
std::string statusLine(const std::string &campaign,
                       const std::string &jobId,
                       const std::string &state, std::size_t settled,
                       std::size_t cells);

struct HealthSnapshot
{
    bool draining = false;
    bool storeDegraded = false;
    std::size_t clients = 0;
    std::size_t jobsPending = 0;
    bool jobRunning = false;
    std::uint64_t jobsDone = 0;
    std::uint64_t cellsComputed = 0;
    std::uint64_t cellsServed = 0;  ///< journal/cache/store, not computed
    std::uint64_t busyRejections = 0;
    std::uint64_t pid = 0;          ///< daemon process id
    std::uint64_t uptimeSeconds = 0;
    std::string storePath;          ///< store root the daemon serves
};

std::string healthLine(const HealthSnapshot &snapshot);

/** What this daemon can do: protocol version, op list, line caps,
 *  queue/budget limits — the probe a fleet dispatcher uses to admit a
 *  worker. */
struct Capabilities
{
    std::string storePath;
    std::string isolate;            ///< "thread" or "process"
    std::size_t maxPending = 0;
    std::size_t maxClients = 0;
    std::uint64_t maxCellsPerCampaign = 0;  ///< 0 = unlimited
    std::uint64_t maxClientCells = 0;       ///< 0 = unlimited
};

std::string capabilitiesLine(const Capabilities &caps);

/** End-of-sync marker: direction "pull" or "push", entry count. */
std::string syncedLine(const std::string &direction,
                       std::uint64_t entries);

std::string drainingLine();

std::string cancellingLine(const std::string &campaign,
                           const std::string &jobId);

} // namespace serve
} // namespace simalpha

#endif // SIMALPHA_SERVE_PROTO_HH
