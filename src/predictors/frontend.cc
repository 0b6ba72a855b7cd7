#include "frontend.hh"

#include "common/logging.hh"

namespace simalpha {

LinePredictor::LinePredictor(int entries, int init_hysteresis)
    : _entries(std::size_t(entries)), _initHysteresis(init_hysteresis)
{
    if (entries <= 0 || (entries & (entries - 1)) != 0)
        fatal("line predictor size must be a power of two");
    if (init_hysteresis < 0 || init_hysteresis > 3)
        fatal("line predictor hysteresis init must be 0..3");
    for (auto &e : _entries)
        e.hysteresis = std::uint8_t(init_hysteresis);
}

std::size_t
LinePredictor::indexFor(Addr pc) const
{
    // Index by octaword: each entry covers one 16-byte fetch packet.
    return std::size_t((pc >> 4) & Addr(_entries.size() - 1));
}

Addr
LinePredictor::predict(Addr pc)
{
    const Entry &e = _entries[indexFor(pc)];
    if (e.next == kNoAddr)
        return (pc & ~Addr(15)) + 16;   // untrained: sequential fetch
    return e.next;
}

bool
LinePredictor::train(Addr pc, Addr actual_next)
{
    Entry &e = _entries[indexFor(pc)];
    Addr predicted =
        e.next == kNoAddr ? (pc & ~Addr(15)) + 16 : e.next;
    if (predicted == actual_next) {
        if (e.hysteresis < 3)
            e.hysteresis++;
        return false;
    }
    _mispredicts++;
    // Hysteresis: strong entries weaken first, weak entries retrain.
    if (e.hysteresis > 1) {
        e.hysteresis--;
        return false;
    }
    e.next = actual_next;
    e.hysteresis = std::uint8_t(_initHysteresis);
    return true;
}

WayPredictor::WayPredictor(int entries)
    : _ways(std::size_t(entries), 0)
{
    if (entries <= 0 || (entries & (entries - 1)) != 0)
        fatal("way predictor size must be a power of two");
}

std::size_t
WayPredictor::indexFor(Addr line_addr) const
{
    return std::size_t((line_addr >> 6) & Addr(_ways.size() - 1));
}

int
WayPredictor::predict(Addr line_addr) const
{
    return _ways[indexFor(line_addr)];
}

void
WayPredictor::update(Addr line_addr, int actual_way)
{
    _ways[indexFor(line_addr)] = std::uint8_t(actual_way);
}

StoreWaitPredictor::StoreWaitPredictor(int entries, Cycle clear_interval)
    : _bits(std::size_t(entries), false), _clearInterval(clear_interval)
{
    if (entries <= 0 || (entries & (entries - 1)) != 0)
        fatal("store-wait table size must be a power of two");
}

void
StoreWaitPredictor::maybeClear(Cycle now)
{
    if (_clearInterval != 0 && now - _lastClear >= _clearInterval) {
        std::fill(_bits.begin(), _bits.end(), false);
        _lastClear = now;
    }
}

bool
StoreWaitPredictor::shouldWait(Addr load_pc, Cycle now)
{
    maybeClear(now);
    return _bits[std::size_t((load_pc >> 2) & Addr(_bits.size() - 1))];
}

bool
StoreWaitPredictor::wouldWait(Addr load_pc, Cycle now) const
{
    if (_clearInterval != 0 && now - _lastClear >= _clearInterval)
        return false;
    return _bits[std::size_t((load_pc >> 2) & Addr(_bits.size() - 1))];
}

void
StoreWaitPredictor::markConflict(Addr load_pc)
{
    _bits[std::size_t((load_pc >> 2) & Addr(_bits.size() - 1))] = true;
}

} // namespace simalpha
