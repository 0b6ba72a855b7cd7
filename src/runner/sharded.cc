#include "runner/sharded.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"
#include "runner/shard.hh"

namespace simalpha {
namespace runner {

std::string
unusedJournalPath(const std::string &stem)
{
    for (int k = 1;; k++) {
        std::string path = stem + std::to_string(k) + ".jsonl";
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            return path;
    }
}

namespace {

/** The executor's files in scratch directory @p dir, sorted by name;
 *  only the journals with @p journalsOnly. */
std::vector<std::string>
scratchFiles(const std::string &dir, bool journalsOnly)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if ((name.rfind("shard-", 0) == 0 ||
             name.rfind("declared-", 0) == 0 ||
             name.rfind("arrival-", 0) == 0) &&
            (!journalsOnly || entry.path().extension() == ".jsonl"))
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

ShardedRun::ShardedRun(const CampaignSpec &spec, ShardedOptions options)
    : _spec(spec), _opts(std::move(options)),
      _hashes(manifestHashes(spec)), _lines(spec.cells.size()),
      _replayed(spec.cells.size()), _append(spec.cells.size())
{
    for (std::size_t i = 0; i < spec.cells.size(); i++)
        _cellsByKey[journalKey(spec.cells[i])].push_back(i);

    // A resume replays every line a killed run settled or declared
    // but spec order held back from the master; any other run starts
    // without them.
    const std::string &scratch = _opts.scratchDir;
    std::string error;
    std::vector<std::string> replay;
    if (!scratch.empty()) {
        std::error_code ec;
        if (!std::filesystem::create_directory(scratch, ec) && ec)
            throw ConfigError("cannot create scratch directory '" +
                              scratch + "': " + ec.message());
        for (const std::string &path : scratchFiles(scratch, true)) {
            if (_opts.resume)
                replay.push_back(path);
            else
                std::remove(path.c_str());
        }
    }

    // Retained journals, then the master, whose line wins for a cell
    // it holds. Without resume nothing merges: every cell starts
    // missing.
    CampaignResult kept;
    std::vector<std::string> retained, master;
    if (!replay.empty())
        mergeShardJournals(spec, replay, &kept, nullptr, &retained,
                           &_hashes);
    mergeShardJournals(spec,
                       _opts.resume && !_opts.journalPath.empty()
                           ? std::vector<std::string>{_opts.journalPath}
                           : std::vector<std::string>{},
                       &_out.result, nullptr, &master, &_hashes);

    if (!_opts.journalPath.empty() &&
        !_journal.open(_opts.journalPath, &error, _opts.journalSync))
        warn("%s (campaign will not be resumable)", error.c_str());

    std::lock_guard<std::mutex> lock(_mu);
    for (std::size_t i = 0; i < master.size(); i++) {
        if (!master[i].empty())
            settleLocked(i, master[i], _out.result.cells[i], true, false);
        else if (!retained.empty() && !retained[i].empty())
            settleLocked(i, retained[i], kept.cells[i], true, true);
        else
            continue;
        _out.replayed++;
    }
}

bool
ShardedRun::settled(std::size_t cell) const
{
    std::lock_guard<std::mutex> lock(_mu);
    return settledLocked(cell);
}

void
ShardedRun::settleLocked(std::size_t cell, const std::string &line,
                         CellResult result, bool replayed, bool append)
{
    _lines[cell] = line;
    _replayed[cell] = replayed;
    _append[cell] = append;
    result.cell = _spec.cells[cell];    // identity of *this* cell
    _out.result.cells[cell] = std::move(result);

    // Release every line the spec-order prefix now holds, then free
    // it: a cell before the cursor is settled by its place.
    for (; _cursor < _lines.size() && !_lines[_cursor].empty(); _cursor++) {
        if (_append[_cursor])
            _journal.appendRaw(_lines[_cursor]);
        if (_opts.sink)
            _opts.sink(_lines[_cursor], _out.result.cells[_cursor].ok,
                       _replayed[_cursor]);
        std::string().swap(_lines[_cursor]);
    }
}

bool
ShardedRun::deliver(const std::string &line)
{
    CellResult r;
    std::string key;
    if (!parseJournalLine(line, _spec.name, &r, &key))
        return false;
    auto it = _cellsByKey.find(key);
    if (it == _cellsByKey.end())
        return false;
    std::lock_guard<std::mutex> lock(_mu);
    bool accepted = false;
    for (std::size_t cell : it->second)
        if (!settledLocked(cell) && r.manifestHash == _hashes[cell]) {
            settleLocked(cell, line, r, false, true);
            accepted = true;
        }
    return accepted;
}

bool
ShardedRun::deliver(std::size_t cell, CellResult result)
{
    // Durable now, however long its release is held back.
    if (!_opts.scratchDir.empty()) {
        std::call_once(_arrivalOpened, [this] {
            std::string error;
            if (!_arrival.open(
                    unusedJournalPath(_opts.scratchDir + "/arrival-"),
                    &error, _opts.journalSync))
                warn("%s (held-back cells are not durable)",
                     error.c_str());
        });
        _arrival.append(_spec.name, result);
    }
    const std::string line = journalLine(_spec.name, result);
    std::lock_guard<std::mutex> lock(_mu);
    if (settledLocked(cell))
        return false;
    settleLocked(cell, line, std::move(result), false, true);
    return true;
}

bool
ShardedRun::declare(std::size_t cell, const std::string &errorClass,
                    const std::string &message)
{
    CellResult r;
    r.cell = _spec.cells[cell];
    r.seed = cellSeed(r.cell);
    r.manifestHash = _hashes[cell];
    r.ok = false;
    r.errorClass = errorClass;
    r.error = message;
    const std::string line = journalLine(_spec.name, r);

    std::lock_guard<std::mutex> lock(_mu);
    if (settledLocked(cell))
        return false;
    // Durable now, however long its release is held back.
    std::string error;
    const std::string &scratch = _opts.scratchDir;
    if (!scratch.empty() && !_declared.isOpen() &&
        !_declared.open(unusedJournalPath(scratch + "/declared-"), &error,
                        _opts.journalSync))
        warn("%s (declared failures wait for spec order)", error.c_str());
    _declared.appendRaw(line);
    settleLocked(cell, line, std::move(r), false, true);
    return true;
}

bool
ShardedRun::sleepFor(double seconds)
{
    std::unique_lock<std::mutex> lock(_mu);
    return !_cv.wait_for(lock, std::chrono::duration<double>(seconds),
                         [this] { return _stop.load(); });
}

void
ShardedRun::stopLocked()
{
    _stop = true;
    _cv.notify_all();
}

ShardedOutcome
ShardedRun::run(std::size_t slices, const Transport &transport)
{
    // Only this thread reads the cancel flag; slice threads see
    // stopping().
    std::unique_lock<std::mutex> lock(_mu);
    auto observeCancel = [&] {
        if (_out.cancelled || !(_opts.cancel && _opts.cancel->load()))
            return;
        _out.cancelled = true;
        stopLocked();
        if (_opts.onCancel) {
            lock.unlock();
            _opts.onCancel();
            lock.lock();
        }
    };
    observeCancel();

    std::vector<std::size_t> pool;      // the cells to partition
    for (std::size_t i = 0; i < _lines.size(); i++)
        if (!_opts.spreadUnsettled || !settledLocked(i))
            pool.push_back(i);
    std::vector<Slice> work;
    for (std::size_t i = 0; i < slices; i++) {
        Slice slice{i, slices, {}};
        for (std::size_t j : shardSlice(pool.size(), i, slices))
            if (!settledLocked(pool[j]))
                slice.cells.push_back(pool[j]);
        if (!slice.cells.empty())
            work.push_back(std::move(slice));
    }
    _running = work.size();
    lock.unlock();

    std::vector<std::thread> threads;
    for (const Slice &slice : work)
        threads.emplace_back([this, &slice, &transport] {
            // An escaping exception would end the whole process (a
            // daemon with it); it fails the run instead.
            std::string error;
            bool ok = false;
            try {
                ok = stopping() || transport(slice, *this, &error);
            } catch (const std::exception &e) {
                error = e.what();
            }
            std::lock_guard<std::mutex> guard(_mu);
            if (!ok && _out.failure.empty())
                _out.failure = error.empty() ? "a transport gave up" : error;
            if (!ok)
                stopLocked();
            _running--;
            _cv.notify_all();
        });

    lock.lock();
    while (_running > 0) {
        _cv.wait_for(lock, std::chrono::milliseconds(10));
        observeCancel();
    }
    lock.unlock();
    for (std::thread &t : threads)
        t.join();
    return finish();
}

ShardedOutcome
ShardedRun::finish()
{
    std::lock_guard<std::mutex> lock(_mu);
    _out.missing.clear();
    for (std::size_t i = 0; i < _lines.size(); i++)
        if (!settledLocked(i))
            _out.missing.push_back(i);

    // A healthy run has every line in the master journal by now;
    // anything else (a declared failure too) keeps its scratch files
    // for post-mortem and resume.
    const std::string &scratch = _opts.scratchDir;
    if (!scratch.empty()) {
        if (!_out.cancelled && _out.failure.empty() &&
            _out.missing.empty() && !_declared.isOpen())
            for (const std::string &path : scratchFiles(scratch, false))
                std::remove(path.c_str());
        std::error_code ec;
        if (!std::filesystem::remove(scratch, ec) && ec)   // not empty
            _out.scratchRetained = scratch;
    }
    return std::move(_out);     // run() or finish() is called once
}

} // namespace runner
} // namespace simalpha
