#include "store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/json.hh"

namespace simalpha {
namespace store {

namespace fs = std::filesystem;

namespace {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; i--, h >>= 4)
        out[std::size_t(i)] = digits[h & 0xF];
    return out;
}

std::string
headerLine(const std::string &key, const std::string &payload)
{
    return "{\"simalpha_store\":1,\"key\":\"" + json::escape(key) +
           "\",\"check\":\"" + hex16(fnv1a64(payload)) + "\"}";
}

/** Parse a header line into the recorded key and integrity hash. */
bool
parseHeader(const std::string &line, std::string *key,
            std::string *check)
{
    json::Value v;
    std::uint64_t version = 0;
    return json::parse(line, &v, nullptr) &&
           json::field(v, "simalpha_store", &version, nullptr, true) &&
           version == 1 && json::field(v, "key", key, nullptr, true) &&
           json::field(v, "check", check, nullptr, true);
}

/** Atomic write: temp file in the target's directory, then rename. */
bool
writeAtomic(const std::string &path, const std::string &content,
            std::uint64_t seq, std::string *error)
{
    std::string tmp = path + ".tmp." + std::to_string(long(::getpid())) +
                      "." + std::to_string(seq);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot open '" + tmp + "' for writing";
        return false;
    }
    out << content;
    out.close();
    if (!out) {
        std::remove(tmp.c_str());
        if (error)
            *error = "write to '" + tmp + "' failed";
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        return false;
    }
    return true;
}

/** Slurp a whole file; false (not an error) when it does not exist. */
bool
slurp(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    return !in.bad();
}

/** An flock(2)-scoped advisory lock; no-throw, best effort on systems
 *  or filesystems without flock support. */
class ScopedFlock
{
  public:
    explicit ScopedFlock(const std::string &path)
    {
        _fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (_fd >= 0)
            ::flock(_fd, LOCK_EX);
    }

    ~ScopedFlock()
    {
        if (_fd >= 0) {
            ::flock(_fd, LOCK_UN);
            ::close(_fd);
        }
    }

    ScopedFlock(const ScopedFlock &) = delete;
    ScopedFlock &operator=(const ScopedFlock &) = delete;

  private:
    int _fd = -1;
};

bool
isEntryName(const std::string &name)
{
    return name.size() == 14 + 5 &&
           name.compare(name.size() - 5, 5, ".json") == 0 &&
           name.find_first_not_of("0123456789abcdef") == 14;
}

/** Every *.json entry path under @p root (unsorted). */
std::vector<std::string>
listEntries(const std::string &root, std::uint64_t *corrupt_files)
{
    std::vector<std::string> entries;
    std::error_code ec;
    for (const fs::directory_entry &shard :
         fs::directory_iterator(root, ec)) {
        if (!shard.is_directory(ec))
            continue;
        std::string shard_name = shard.path().filename().string();
        if (shard_name.size() != 2 ||
            shard_name.find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            continue;
        for (const fs::directory_entry &file :
             fs::directory_iterator(shard.path(), ec)) {
            std::string name = file.path().filename().string();
            if (isEntryName(name))
                entries.push_back(file.path().string());
            else if (corrupt_files && name.size() > 8 &&
                     name.compare(name.size() - 8, 8, ".corrupt") == 0)
                (*corrupt_files)++;
        }
    }
    std::sort(entries.begin(), entries.end());
    return entries;
}

} // namespace

ResultStore::~ResultStore() = default;

std::string
ResultStore::keyHash(const std::string &key)
{
    return hex16(fnv1a64(key));
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    std::string hash = keyHash(key);
    return _root + "/" + hash.substr(0, 2) + "/" + hash.substr(2) +
           ".json";
}

bool
ResultStore::open(const std::string &root, std::string *error)
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec || !fs::is_directory(root)) {
        if (error)
            *error = "cannot create result store at '" + root + "'";
        return false;
    }
    _root = root;
    return true;
}

void
ResultStore::quarantine(const std::string &path)
{
    if (std::rename(path.c_str(), (path + ".corrupt").c_str()) != 0)
        std::remove(path.c_str());
    _quarantined.fetch_add(1);
}

void
ResultStore::touchSidecar(const std::string &entry_path)
{
    // Only the sidecar's mtime matters to gc; the decimal timestamp in
    // the content is for humans. A concurrent toucher can tear the
    // content, never the mtime.
    auto now = std::chrono::system_clock::now().time_since_epoch();
    std::ofstream out(entry_path + ".atime",
                      std::ios::binary | std::ios::trunc);
    out << std::chrono::duration_cast<std::chrono::seconds>(now).count()
        << "\n";
}

bool
ResultStore::readEntryCounted(const std::string &path, std::string *key,
                              std::string *payload, bool *corrupt) const
{
    _entryParses.fetch_add(1);
    *corrupt = false;
    std::string content;
    if (!slurp(path, &content))
        return false;

    std::size_t nl = content.find('\n');
    if (nl == std::string::npos) {
        *corrupt = true;
        return false;
    }
    std::string header = content.substr(0, nl);
    std::string body = content.substr(nl + 1);
    if (!body.empty() && body.back() == '\n')
        body.pop_back();
    else {
        *corrupt = true;    // torn write can't survive rename; corrupt
        return false;
    }

    std::string check;
    if (!parseHeader(header, key, &check) ||
        check != hex16(fnv1a64(body))) {
        *corrupt = true;
        return false;
    }
    *payload = std::move(body);
    return true;
}

bool
ResultStore::lookup(const std::string &key, std::string *payload)
{
    if (!isOpen())
        return false;
    std::string path = entryPath(key);

    std::string stored_key, body;
    bool corrupt = false;
    if (!readEntryCounted(path, &stored_key, &body, &corrupt)) {
        if (corrupt)
            quarantine(path);
        _misses.fetch_add(1);
        return false;
    }
    if (stored_key != key) {
        // A 64-bit hash collision: not our entry, not corruption.
        _misses.fetch_add(1);
        return false;
    }
    _hits.fetch_add(1);
    _bytesRead.fetch_add(body.size());
    touchSidecar(path);
    *payload = std::move(body);
    return true;
}

bool
ResultStore::touch(const std::string &key)
{
    if (!isOpen())
        return false;
    std::string path = entryPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec)
        return false;
    touchSidecar(path);
    return true;
}

bool
ResultStore::publish(const std::string &key, const std::string &payload,
                     std::string *error)
{
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return false;
    }
    if (payload.find('\n') != std::string::npos) {
        if (error)
            *error = "store payloads are single lines (embedded "
                     "newline rejected)";
        return false;
    }
    std::string path = entryPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
        if (error)
            *error = "cannot create store shard directory for '" +
                     path + "'";
        return false;
    }

    std::string content = headerLine(key, payload);
    content += '\n';
    content += payload;
    content += '\n';

    // The advisory lock serializes writers of this entry; readers never
    // take it (rename is atomic), so a reader can't block a writer.
    ScopedFlock lock(path + ".lock");
    if (!writeAtomic(path, content, _tmpSeq.fetch_add(1), error))
        return false;
    touchSidecar(path);
    _publishes.fetch_add(1);
    _bytesWritten.fetch_add(content.size());
    return true;
}

StoreCounters
ResultStore::counters() const
{
    StoreCounters c;
    c.hits = _hits.load();
    c.misses = _misses.load();
    c.publishes = _publishes.load();
    c.bytesRead = _bytesRead.load();
    c.bytesWritten = _bytesWritten.load();
    c.quarantined = _quarantined.load();
    c.entryParses = _entryParses.load();
    return c;
}

StoreUsage
ResultStore::usage(std::string *error) const
{
    StoreUsage u;
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return u;
    }
    std::error_code ec;
    for (const std::string &path : listEntries(_root, &u.corrupt)) {
        u.entries++;
        u.bytes += fs::file_size(path, ec);
    }
    return u;
}

StoreUsage
ResultStore::verifyAll(std::vector<std::string> *corruptPaths,
                       std::string *error)
{
    StoreUsage u;
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return u;
    }
    std::error_code ec;
    for (const std::string &path : listEntries(_root, &u.corrupt)) {
        std::string key, payload;
        bool corrupt = false;
        bool ok = readEntryCounted(path, &key, &payload, &corrupt);
        // A well-formed entry filed under the wrong path is as
        // unservable as a bad hash: lookups address by key hash.
        if (ok && entryPath(key) != path)
            ok = false;
        if (!ok) {
            quarantine(path);
            u.corrupt++;
            if (corruptPaths)
                corruptPaths->push_back(path);
            continue;
        }
        u.entries++;
        u.bytes += fs::file_size(path, ec);
    }
    return u;
}

GcOutcome
ResultStore::gc(const GcOptions &options, std::string *error)
{
    GcOutcome out;
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return out;
    }

    // One collector at a time; readers and writers are unaffected
    // (they never take this lock).
    ScopedFlock lock(_root + "/.gc.lock");

    struct Entry
    {
        std::string path;
        std::uint64_t size;
        fs::file_time_type lastUse;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const std::string &path : listEntries(_root, nullptr)) {
        Entry e;
        e.path = path;
        e.size = fs::file_size(path, ec);
        e.lastUse = fs::last_write_time(path + ".atime", ec);
        if (ec)
            e.lastUse = fs::last_write_time(path, ec);
        entries.push_back(std::move(e));
    }
    out.scanned = entries.size();

    // Oldest first; ties broken by path so gc is deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.lastUse != b.lastUse)
                      return a.lastUse < b.lastUse;
                  return a.path < b.path;
              });

    std::uint64_t total = 0;
    for (const Entry &e : entries)
        total += e.size;

    auto now = fs::file_time_type::clock::now();
    auto removeEntry = [&](const Entry &e) {
        fs::remove(e.path, ec);
        fs::remove(e.path + ".atime", ec);
        fs::remove(e.path + ".lock", ec);
        out.removed++;
        out.bytesRemoved += e.size;
        total -= e.size;
    };

    std::size_t i = 0;
    if (options.maxAgeSeconds > 0) {
        auto cutoff = now - std::chrono::duration_cast<
                                fs::file_time_type::duration>(
                                std::chrono::duration<double>(
                                    options.maxAgeSeconds));
        for (; i < entries.size() && entries[i].lastUse < cutoff; i++)
            removeEntry(entries[i]);
    }
    if (options.maxBytes > 0)
        for (; i < entries.size() && total > options.maxBytes; i++)
            removeEntry(entries[i]);

    for (; i < entries.size(); i++) {
        out.entriesKept++;
        out.bytesKept += entries[i].size;
    }

    // Sweep sidecars and locks whose entry is gone (earlier gc kills,
    // quarantines, or crashed writers).
    for (const fs::directory_entry &shard :
         fs::directory_iterator(_root, ec)) {
        if (!shard.is_directory(ec))
            continue;
        for (const fs::directory_entry &file :
             fs::directory_iterator(shard.path(), ec)) {
            std::string name = file.path().filename().string();
            for (const char *suffix : {".json.atime", ".json.lock"}) {
                std::size_t n = std::strlen(suffix);
                if (name.size() > n &&
                    name.compare(name.size() - n, n, suffix) == 0) {
                    std::string entry = file.path().string();
                    entry.resize(entry.size() + 5 - n);  // keep ".json"
                    if (!fs::exists(entry, ec))
                        fs::remove(file.path(), ec);
                }
            }
        }
    }
    return out;
}

bool
ResultStore::exportTo(const std::string &path, std::uint64_t *exported,
                      std::string *error) const
{
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return false;
    }
    std::ostringstream os;
    if (!exportLines(
            ExportFilter{},
            [&](const std::string &line) {
                os << line << "\n";
                return true;
            },
            exported, error))
        return false;
    return writeAtomic(path, os.str(), 0, error);
}

bool
ResultStore::exportLines(
    const ExportFilter &filter,
    const std::function<bool(const std::string &line)> &emit,
    std::uint64_t *exported, std::string *error) const
{
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return false;
    }
    std::error_code ec;
    bool filtered = filter.newerThanSeconds > 0;
    fs::file_time_type cutoff{};
    if (filtered)
        cutoff = fs::file_time_type::clock::now() -
                 std::chrono::duration_cast<
                     fs::file_time_type::duration>(
                     std::chrono::duration<double>(
                         filter.newerThanSeconds));
    std::uint64_t count = 0;
    for (const std::string &entry : listEntries(_root, nullptr)) {
        if (filtered) {
            auto mtime = fs::last_write_time(entry, ec);
            if (ec || mtime < cutoff)
                continue;
        }
        std::string key, payload;
        bool corrupt = false;
        if (!readEntryCounted(entry, &key, &payload, &corrupt))
            continue;   // unreadable or corrupt: not exportable
        if (!emit(formatExportLine(key, payload))) {
            if (error)
                *error = "export aborted by consumer";
            return false;
        }
        count++;
    }
    if (exported)
        *exported = count;
    return true;
}

std::string
ResultStore::formatExportLine(const std::string &key,
                              const std::string &payload)
{
    return "{\"key\":\"" + json::escape(key) + "\",\"payload\":\"" +
           json::escape(payload) + "\"}";
}

bool
ResultStore::parseExportLine(const std::string &line, std::string *key,
                             std::string *payload)
{
    json::Value v;
    return json::parse(line, &v, nullptr) &&
           json::field(v, "key", key, nullptr, true) &&
           json::field(v, "payload", payload, nullptr, true);
}

bool
ResultStore::importFrom(const std::string &path,
                        std::uint64_t *imported, std::string *error)
{
    if (!isOpen()) {
        if (error)
            *error = "result store is not open";
        return false;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "' for import";
        return false;
    }
    std::uint64_t count = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key, payload;
        if (!parseExportLine(line, &key, &payload))
            continue;
        if (publish(key, payload, nullptr))
            count++;
    }
    if (in.bad()) {
        if (error)
            *error = "error reading '" + path + "'";
        return false;
    }
    if (imported)
        *imported = count;
    return true;
}

} // namespace store
} // namespace simalpha
