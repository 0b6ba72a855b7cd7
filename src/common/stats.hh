/**
 * @file
 * A small statistics package in the spirit of the gem5/SimpleScalar stats
 * facilities: named counters, derived formulas, and bucketed distributions,
 * grouped so a machine model can dump everything it measured.
 */

#ifndef SIMALPHA_COMMON_STATS_HH
#define SIMALPHA_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "types.hh"

namespace simalpha {
namespace stats {

/** A monotonically increasing (or explicitly set) event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }
    void set(std::uint64_t v) { _value = v; }
    void reset() { _value = 0; }

    std::uint64_t value() const { return _value; }
    operator std::uint64_t() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** A histogram over fixed-width buckets with under/overflow tracking. */
class Distribution
{
  public:
    /**
     * @param min lowest sampled value placed in bucket 0
     * @param max values above max land in the overflow bucket
     * @param bucket_size width of each bucket
     */
    Distribution(std::uint64_t min, std::uint64_t max,
                 std::uint64_t bucket_size);
    Distribution() : Distribution(0, 63, 1) {}

    void sample(std::uint64_t value, std::uint64_t count = 1);
    void reset();

    std::uint64_t samples() const { return _samples; }
    std::uint64_t total() const { return _total; }
    double mean() const;
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t bucketCount(std::size_t i) const { return _buckets.at(i); }

  private:
    std::uint64_t _min;
    std::uint64_t _max;
    std::uint64_t _bucketSize;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    std::uint64_t _samples = 0;
    std::uint64_t _total = 0;
};

/**
 * A named collection of counters, lazily created on first reference.
 * Machine models own one group and bump counters by name; formulas are
 * registered as closures evaluated at dump time.
 */
class Group
{
  public:
    explicit Group(std::string name) : _name(std::move(name)) {}

    /** Fetch-or-create a counter. */
    Counter &counter(const std::string &name);

    /** Fetch-or-create a distribution with default geometry. */
    Distribution &distribution(const std::string &name);

    /** Register a derived value computed at dump time. */
    void formula(const std::string &name, std::function<double()> fn);

    /** Read a counter value; 0 if never touched. */
    std::uint64_t get(const std::string &name) const;

    /** True if the counter was ever created. */
    bool has(const std::string &name) const;

    /** Zero all counters and distributions. */
    void reset();

    /** Render "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return _name; }

    /** All counter names, sorted (for iteration in tests/benches). */
    std::vector<std::string> counterNames() const;

    /**
     * Copy every counter into a plain sorted name->value map: the
     * thread-independent event snapshot a campaign cell carries after
     * its machine is destroyed.
     */
    std::map<std::string, std::uint64_t> snapshot() const;

  private:
    std::string _name;
    std::map<std::string, Counter> _counters;
    std::map<std::string, Distribution> _distributions;
    std::map<std::string, std::function<double()>> _formulas;
};

} // namespace stats

/** Arithmetic mean of a vector (0 for empty input). */
double arithmeticMean(const std::vector<double> &xs);

/** Harmonic mean of a vector (0 for empty input); all xs must be > 0. */
double harmonicMean(const std::vector<double> &xs);

/** Population standard deviation (0 for fewer than 2 samples). */
double stdDeviation(const std::vector<double> &xs);

} // namespace simalpha

#endif // SIMALPHA_COMMON_STATS_HH
