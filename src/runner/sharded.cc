#include "runner/sharded.hh"

#include <chrono>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "runner/shard.hh"

namespace simalpha {
namespace runner {

ShardedRun::ShardedRun(const CampaignSpec &spec, ShardedOptions options)
    : _spec(spec), _opts(std::move(options)),
      _hashes(manifestHashes(spec)), _lines(spec.cells.size()),
      _replayed(spec.cells.size()), _append(spec.cells.size())
{
    for (std::size_t i = 0; i < spec.cells.size(); i++)
        _cellsByKey[journalKey(spec.cells[i])].push_back(i);

    // Retained journals, then the master, whose line wins for a cell
    // it holds. Without resume nothing merges: every cell starts
    // missing.
    CampaignResult kept;
    std::vector<std::string> retained, master;
    if (_opts.resume && !_opts.replayPaths.empty())
        mergeShardJournals(spec, _opts.replayPaths, &kept, nullptr,
                           &retained, &_hashes);
    mergeShardJournals(spec,
                       _opts.resume && !_opts.journalPath.empty()
                           ? std::vector<std::string>{_opts.journalPath}
                           : std::vector<std::string>{},
                       &_out.result, nullptr, &master, &_hashes);

    std::string error;
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
    return !_lines[cell].empty();
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

    // Release every line the spec-order prefix now holds.
    for (; _cursor < _lines.size() && !_lines[_cursor].empty(); _cursor++) {
        if (_append[_cursor])
            _journal.appendRaw(_lines[_cursor]);
        if (_opts.sink)
            _opts.sink(_lines[_cursor], _out.result.cells[_cursor].ok,
                       _replayed[_cursor]);
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
        if (_lines[cell].empty() && r.manifestHash == _hashes[cell]) {
            settleLocked(cell, line, r, false, true);
            accepted = true;
        }
    return accepted;
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
    if (!_lines[cell].empty())
        return false;
    // Durable now, however long its release is held back.
    std::string error;
    if (!_opts.declaredPath.empty() && !_declared.isOpen() &&
        !_declared.open(_opts.declaredPath, &error, _opts.journalSync))
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
    // Only this thread reads the cancel flags (one may be a signal
    // handler's sig_atomic_t); slice threads see stopping().
    std::unique_lock<std::mutex> lock(_mu);
    auto observeCancel = [&] {
        if (_out.cancelled ||
            !((_opts.interrupted && *_opts.interrupted) ||
              (_opts.cancel && _opts.cancel->load())))
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
        if (!_opts.spreadUnsettled || _lines[i].empty())
            pool.push_back(i);
    std::vector<Slice> work;
    for (std::size_t i = 0; i < slices; i++) {
        Slice slice{i, slices, {}};
        for (std::size_t j : shardSlice(pool.size(), i, slices))
            if (_lines[pool[j]].empty())
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

    lock.lock();
    _out.missing.clear();
    for (std::size_t i = 0; i < _lines.size(); i++)
        if (_lines[i].empty())
            _out.missing.push_back(i);
    return std::move(_out);     // run() is called once
}

} // namespace runner
} // namespace simalpha
