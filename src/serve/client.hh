/**
 * @file
 * `simalpha submit` — the service client: connect, submit, collect
 * the result-line stream, and retry transient failures (connection
 * refused, `busy` rejections, a daemon that died mid-stream) with
 * bounded exponential backoff and deterministic jitter.
 *
 * Retry safety rests on the server's idempotence: a resubmission of
 * the same (campaign, cap, sampling) identity attaches to the
 * in-flight job or replays its journal, so retrying after a torn
 * stream re-collects the complete byte-identical line set rather
 * than recomputing or duplicating anything. Each attempt therefore
 * discards partial lines and starts clean.
 *
 * Terminal rejections — budget exhausted, unknown campaign, malformed
 * request, draining daemon — are never retried: backing off cannot
 * make them succeed.
 */

#ifndef SIMALPHA_SERVE_CLIENT_HH
#define SIMALPHA_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "store/store.hh"

namespace simalpha {
namespace serve {

struct ClientOptions
{
    /** "tcp:PORT", "tcp:HOST:PORT", or a Unix-socket path (as the
     *  daemon's --listen / bound address). */
    std::string connect;

    /** Per-attempt wall-clock budget in seconds: connect + request +
     *  the whole stream. 0 = no timeout. */
    double timeoutSeconds = 0.0;

    /** Bound on connect(2) alone, so a black-holed host fails fast
     *  with a clear message even when timeoutSeconds is 0 (streams
     *  may legitimately run for hours; connects may not). 0 = bounded
     *  only by timeoutSeconds. */
    double connectTimeoutSeconds = 10.0;

    /** Extra attempts after the first (connect failures, `busy`
     *  replies, and torn streams retry; terminal errors do not). */
    int maxRetries = 3;

    /** First retry delay; doubles per attempt, scaled by a
     *  deterministic jitter factor in [0.75, 1.25) from (seed,
     *  attempt) — see retryBackoffSeconds(). */
    double backoffSeconds = 0.2;
    std::uint64_t seed = 0;
};

/** What one submit (or results) call produced. */
struct SubmitOutcome
{
    bool ok = false;          ///< a done line arrived
    int attempts = 0;         ///< connections made
    std::string error;        ///< terminal failure description
    std::string errorCode;    ///< protocol error code, if any

    /** Verbatim result-line bytes, in arrival order. */
    std::vector<std::string> lines;
    /** Fields of the final done control line. */
    std::map<std::string, std::string> doneStrings;
    std::map<std::string, std::uint64_t> doneNumbers;
};

/** The deterministic retry delay: backoff * 2^attempt scaled by a
 *  jitter factor in [0.75, 1.25) derived from (seed, attempt) — the
 *  shard supervisor's runner::respawnBackoffSeconds with the seed as
 *  shard id, so two clients with different seeds never retry in
 *  lockstep and a given client's schedule is reproducible. */
double retryBackoffSeconds(double baseSeconds, int attempt,
                           std::uint64_t seed);

/**
 * Submit @p campaign (op "submit", or "results" when @p resultsOnly)
 * and collect its stream. @p onLine, when set, sees every verbatim
 * result line as it arrives (before the outcome returns).
 */
SubmitOutcome submitCampaign(
    const ClientOptions &options, const std::string &campaign,
    std::uint64_t maxInsts = 0, const std::string &sample = {},
    bool resultsOnly = false,
    const std::function<void(const std::string &)> &onLine = nullptr);

/**
 * One-shot request (hello/status/cancel/health/shutdown): connect,
 * send @p requestLine, read exactly one reply line. No retries.
 * Returns false with *error filled on connect/timeout/protocol
 * failure.
 */
bool requestOnce(const ClientOptions &options,
                 const std::string &requestLine, std::string *reply,
                 std::string *error);

/**
 * Reassemble a streamed line set into a spec-ordered CampaignResult,
 * exactly as a local `--campaign` run would have produced it — the
 * bridge from a byte stream to artifacts (writeArtifact and friends).
 * Returns false with *error filled if the campaign name is unknown
 * or a cell has no matching line.
 */
bool linesToResult(const std::string &campaign, std::uint64_t maxInsts,
                   const std::string &sample,
                   const std::vector<std::string> &lines,
                   runner::CampaignResult *out, std::string *error);

/**
 * Pull the daemon's store into @p into (op "sync" mode "pull"):
 * every entry — or only ones published in the last
 * @p newerThanSeconds seconds when nonzero — is streamed down as
 * store dump lines and published locally, last-writer-wins. *pulled
 * (may be null) receives the locally-published count. No retries.
 */
bool syncPull(const ClientOptions &options, store::ResultStore *into,
              std::uint64_t newerThanSeconds, std::uint64_t *pulled,
              std::string *error);

/**
 * Push @p from's entries passing @p filter into the daemon's store
 * (op "sync" mode "push") — the pre-seed a fleet dispatcher gives a
 * cold worker. *pushed (may be null) receives the count the daemon
 * reports imported. No retries.
 */
bool syncPush(const ClientOptions &options,
              const store::ResultStore &from,
              const store::ExportFilter &filter, std::uint64_t *pushed,
              std::string *error);

} // namespace serve
} // namespace simalpha

#endif // SIMALPHA_SERVE_CLIENT_HH
