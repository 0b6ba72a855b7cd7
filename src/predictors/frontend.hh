/**
 * @file
 * Front-end fetch predictors of the 21264: the line predictor (next-fetch
 * prediction trained by a small hysteresis state machine) and the I-cache
 * way predictor.
 */

#ifndef SIMALPHA_PREDICTORS_FRONTEND_HH
#define SIMALPHA_PREDICTORS_FRONTEND_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace simalpha {

/**
 * The line predictor holds, for each fetched octaword, a pointer to the
 * next octaword to fetch. We model it as a direct-mapped table indexed by
 * the current fetch PC, storing the predicted next fetch PC and a
 * hysteresis bit.
 *
 * The 21264's training state machine has two bits per entry; the paper
 * found that initializing them to `01` minimized error, so the initial
 * hysteresis value is configurable.
 */
class LinePredictor
{
  public:
    /**
     * @param entries table size (power of two)
     * @param init_hysteresis initial 2-bit state machine value; the paper
     *        chose binary 01 (retrain on first mispredict)
     */
    explicit LinePredictor(int entries = 1024, int init_hysteresis = 1);

    /** Predicted next octaword fetch PC after fetching at `pc`. */
    Addr predict(Addr pc);

    /**
     * Train toward the actual next fetch PC.
     * @return true if the entry actually switched its prediction
     */
    bool train(Addr pc, Addr actual_next);

    /** Speculative train (line predictor trains during fetch). */
    void speculativeTrain(Addr pc, Addr next) { train(pc, next); }

    std::uint64_t mispredicts() const { return _mispredicts; }

    /** Restore freshly-constructed state (campaign core reuse). */
    void
    reset()
    {
        for (auto &e : _entries)
            e = Entry{kNoAddr, std::uint8_t(_initHysteresis)};
        _mispredicts = 0;
    }

  private:
    struct Entry
    {
        Addr next = kNoAddr;
        std::uint8_t hysteresis;
    };

    std::size_t indexFor(Addr pc) const;

    std::vector<Entry> _entries;
    int _initHysteresis;
    std::uint64_t _mispredicts = 0;
};

/**
 * The I-cache way predictor: one predicted way per I-cache line index.
 * A way misprediction costs a two-cycle fetch bubble.
 */
class WayPredictor
{
  public:
    explicit WayPredictor(int entries = 1024);

    int predict(Addr line_addr) const;
    void update(Addr line_addr, int actual_way);

    /** Restore freshly-constructed state (campaign core reuse). */
    void
    reset()
    {
        _ways.assign(_ways.size(), 0);
    }

  private:
    std::size_t indexFor(Addr line_addr) const;

    std::vector<std::uint8_t> _ways;
};

/**
 * The load-use (hit/miss) predictor: a single 4-bit saturating counter.
 * Predicts "hit" when the counter's high bit is set; increments by one on
 * a hit, decrements by two on a miss (Kessler's description).
 */
class LoadUsePredictor
{
  public:
    bool predictHit() const { return _counter >= 8; }

    void
    update(bool hit)
    {
        if (hit) {
            if (_counter < 15)
                _counter++;
        } else {
            _counter = _counter >= 2 ? std::uint8_t(_counter - 2) : 0;
        }
    }

    int counter() const { return _counter; }

    /** Restore freshly-constructed state (campaign core reuse). */
    void reset() { _counter = 15; }

  private:
    std::uint8_t _counter = 15;     // cold caches still mostly hit
};

/**
 * The store-wait predictor: a 1024x1-bit table indexed by load PC. A set
 * bit forces the load to wait for all earlier unresolved stores. The
 * table is periodically cleared so stale conflicts do not throttle loads
 * forever.
 */
class StoreWaitPredictor
{
  public:
    explicit StoreWaitPredictor(int entries = 1024,
                                Cycle clear_interval = 32768);

    /** Should this load wait for earlier stores? The first consult
     *  of each clear interval clears the table. */
    bool shouldWait(Addr load_pc, Cycle now);

    /** What shouldWait would answer now, without clearing anything. */
    bool wouldWait(Addr load_pc, Cycle now) const;

    /** Mark a load that caused a store replay trap. */
    void markConflict(Addr load_pc);

    /** Restore freshly-constructed state (campaign core reuse). */
    void
    reset()
    {
        _bits.assign(_bits.size(), false);
        _lastClear = 0;
    }

  private:
    void maybeClear(Cycle now);

    std::vector<bool> _bits;
    Cycle _clearInterval;
    Cycle _lastClear = 0;
};

} // namespace simalpha

#endif // SIMALPHA_PREDICTORS_FRONTEND_HH
