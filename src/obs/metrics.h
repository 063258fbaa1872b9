/**
 * @file
 * Metrics registry — counters, gauges and fixed-bucket histograms with
 * Prometheus-style text exposition and a flat snapshot the bench JSON
 * reporter consumes.
 *
 * Dependency-free (std only) so every layer of the stack can publish
 * into a registry without inverting the module order: obs sits below
 * hw/compiler/service.
 *
 * Naming follows the Prometheus exposition format: a metric id is
 * `family{label="value",...}` or a bare family name. renderText()
 * groups ids by family and emits one `# TYPE` line per family, so
 * per-tenant series (`heat_service_arrivals_total{tenant="alice"}`)
 * render as one family.
 *
 * Thread safety: metric handles returned by the registry are stable
 * for its lifetime and individually thread-safe (relaxed atomics — a
 * metric is a statistic, not a synchronization point). Registration
 * and snapshotting take the registry mutex.
 */

#ifndef HEAT_OBS_METRICS_H
#define HEAT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace heat::obs {

/** Monotonically increasing counter. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram: cumulative-style bucket counts over a set of
 * upper bounds fixed at construction (plus an implicit +inf bucket),
 * with sum/count/max for mean and tail reporting. quantile() estimates
 * percentiles by linear interpolation inside the selected bucket — the
 * sliding p50/p99 the serving layer reports without retaining (and
 * sorting) every latency sample.
 */
class Histogram
{
  public:
    /** @param bounds strictly increasing bucket upper bounds. */
    explicit Histogram(std::vector<double> bounds);

    /** Exponential bucket bounds: start, start*factor, ... (count). */
    static std::vector<double> exponentialBounds(double start,
                                                 double factor,
                                                 size_t count);

    /** Record one observation. */
    void observe(double v);

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Largest value observed (0 when empty). */
    double
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    double
    mean() const
    {
        const uint64_t n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    /**
     * Estimate the @p q quantile (0 < q <= 1) from the bucket counts:
     * find the bucket holding the ceil(q*count)-th observation and
     * interpolate linearly inside it. Observations past the last bound
     * report the observed max (the honest answer for an open bucket).
     */
    double quantile(double q) const;

    /** @return the configured bucket upper bounds. */
    const std::vector<double> &
    bounds() const
    {
        return bounds_;
    }

    /** @return count of observations <= bounds()[i] (non-cumulative
     *  per-bucket count; index bounds().size() is the overflow
     *  bucket). */
    uint64_t
    bucketCount(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

  private:
    std::vector<double> bounds_;
    /** bounds_.size() + 1 buckets; last = overflow. */
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> max_{0.0};
};

/** The label block `{key="value"}` of a metric id, @p value escaped as
 *  the Prometheus text format requires (backslash, double quote and
 *  newline), so no value can close the block or start a new line. */
std::string labelBlock(const std::string &key, const std::string &value);

/** One flattened registry sample (see Registry::samples()). */
struct MetricSample
{
    std::string name; ///< metric id, histogram ids suffixed _count etc.
    std::string kind; ///< "counter", "gauge", "histogram"
    double value = 0.0;
};

/** Named-metric registry. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find-or-create; the returned reference is stable for the
     *  registry's lifetime. @p help is kept from the first call. */
    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");

    /** Find-or-create a histogram; @p bounds is only used on
     *  creation (looking up an existing histogram with different
     *  bounds returns the existing one). */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds,
                         const std::string &help = "");

    /**
     * Prometheus text exposition: `# HELP`/`# TYPE` per family, one
     * sample line per metric id, histograms as the conventional
     * cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
     */
    std::string renderText() const;

    /** Flat snapshot: one sample per counter/gauge; histograms expand
     *  to _count/_sum/_mean/_p50/_p99/_max. Registration order. */
    std::vector<MetricSample> samples() const;

  private:
    struct Entry
    {
        std::string name;
        std::string help;
        enum class Kind : uint8_t
        {
            kCounter,
            kGauge,
            kHistogram
        } kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry *find(const std::string &name, Entry::Kind kind);

    mutable std::mutex mu_;
    /** Registration order preserved for stable rendering. */
    std::vector<std::unique_ptr<Entry>> entries_;
};

} // namespace heat::obs

#endif // HEAT_OBS_METRICS_H
