/**
 * @file
 * A small statistics package modelled on gem5's: named scalar counters,
 * averages and distributions owned by a per-component StatGroup, plus a
 * registry that can dump everything in a stable text format.
 */

#ifndef LWSP_COMMON_STATS_HH
#define LWSP_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "logging.hh"

namespace lwsp {
namespace stats {

/** A named, monotonically adjustable scalar counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    double value_ = 0;
};

/** Running mean/min/max over sampled values. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = min_ = max_ = 0;
        count_ = 0;
    }

  private:
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets. */
class Distribution
{
  public:
    Distribution() : Distribution(0, 1, 1) {}

    Distribution(double lo, double hi, unsigned buckets)
        : lo_(lo), hi_(hi), counts_(buckets, 0)
    {
        LWSP_ASSERT(hi > lo && buckets > 0, "bad Distribution bounds");
    }

    void
    sample(double v)
    {
        avg_.sample(v);
        if (v < lo_) {
            ++underflow_;
        } else if (v >= hi_) {
            ++overflow_;
        } else {
            auto idx = static_cast<std::size_t>(
                (v - lo_) / (hi_ - lo_) * counts_.size());
            if (idx >= counts_.size())
                idx = counts_.size() - 1;
            ++counts_[idx];
        }
    }

    const Average &summary() const { return avg_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    void
    reset()
    {
        avg_.reset();
        underflow_ = overflow_ = 0;
        for (auto &c : counts_)
            c = 0;
    }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Average avg_;
};

/**
 * Exact percentile accumulator: stores every sample and sorts lazily at
 * query time. Intended for request-latency style populations (thousands
 * to low millions of samples) where tail quantiles must be exact, not
 * sketch approximations — p999 over a 10k-request tape is 10 samples,
 * well inside sketch error bars.
 */
class Percentiles
{
  public:
    void
    sample(double v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    /**
     * Exact quantile by the nearest-rank method: the smallest sample
     * such that at least ceil(q * count) samples are <= it. q in [0,1];
     * returns 0 for an empty population.
     */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p90() const { return percentile(0.90); }
    double p99() const { return percentile(0.99); }
    double p999() const { return percentile(0.999); }
    double max() const;
    double mean() const;
    std::uint64_t count() const { return samples_.size(); }

    void
    reset()
    {
        samples_.clear();
        sorted_ = false;
    }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Owner of a component's named statistics. Components hold their stats as
 * plain members and register them here for dumping.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void
    addScalar(const std::string &stat_name, const Scalar *s,
              const std::string &desc = "")
    {
        scalars_.emplace(stat_name, Entry<Scalar>{s, desc});
    }

    void
    addAverage(const std::string &stat_name, const Average *a,
               const std::string &desc = "")
    {
        averages_.emplace(stat_name, Entry<Average>{a, desc});
    }

    void
    addDistribution(const std::string &stat_name, const Distribution *d,
                    const std::string &desc = "")
    {
        dists_.emplace(stat_name, Entry<Distribution>{d, desc});
    }

    void
    addPercentiles(const std::string &stat_name, const Percentiles *p,
                   const std::string &desc = "")
    {
        percs_.emplace(stat_name, Entry<Percentiles>{p, desc});
    }

    /**
     * Register a callback-backed stat: the value is computed at dump
     * time. This is how components with plain integer counters (the hot
     * paths) join the registry without changing their counting code.
     */
    void
    addFunc(const std::string &stat_name, std::function<double()> fn,
            const std::string &desc = "")
    {
        funcs_.emplace(stat_name, FuncEntry{std::move(fn), desc});
    }

    /** Dump every registered stat in "group.stat value # desc" format. */
    void dump(std::ostream &os) const;

    /** Dump as one JSON object: {"stat": value, "dist": {...}, ...}. */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** Look up a registered scalar's value (for tests); panics if missing. */
    double scalarValue(const std::string &stat_name) const;

    /** Evaluate a registered func stat (for tests); panics if missing. */
    double funcValue(const std::string &stat_name) const;

  private:
    template <typename T>
    struct Entry
    {
        const T *stat;
        std::string desc;
    };

    struct FuncEntry
    {
        std::function<double()> fn;
        std::string desc;
    };

    std::string name_;
    std::map<std::string, Entry<Scalar>> scalars_;
    std::map<std::string, Entry<Average>> averages_;
    std::map<std::string, Entry<Distribution>> dists_;
    std::map<std::string, Entry<Percentiles>> percs_;
    std::map<std::string, FuncEntry> funcs_;
};

/**
 * Ordered collection of StatGroups — one per component of a system.
 * Groups are created on demand and dumped in creation order, in the
 * established text format or as a single JSON object keyed by group.
 */
class Registry
{
  public:
    /** Get or create the group named @p name (stable reference). */
    StatGroup &group(const std::string &name);

    /** "group.stat value" lines for every group, creation order. */
    void dump(std::ostream &os) const;

    /** {"group": {...}, ...} — the JSON run-report stats section. */
    void dumpJson(std::ostream &os) const;

    std::size_t numGroups() const { return groups_.size(); }

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
    std::map<std::string, std::size_t> index_;
};

/** Geometric mean of positive values; panics on empty input. */
double geomean(const std::vector<double> &values);

} // namespace stats
} // namespace lwsp

#endif // LWSP_COMMON_STATS_HH
