/**
 * @file
 * Shared helpers for the reproduction benchmarks: paper-vs-measured
 * table printing, the `--json <path>` structured reporter, and the
 * Fig. 11 system run on the service's modeled clock.
 */

#ifndef HEAT_BENCH_BENCH_UTIL_H
#define HEAT_BENCH_BENCH_UTIL_H

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "fv/params.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace heat::bench {

/** Print a table header. */
inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-42s %14s %14s %9s\n", "metric", "paper", "this repo",
                "ratio");
    std::printf("%.*s\n", 82,
                "-----------------------------------------------------------"
                "-----------------------");
}

/** Print one paper-vs-measured row. */
inline void
printRow(const std::string &metric, double paper, double ours,
         const char *unit)
{
    std::printf("%-42s %11.3f %s %11.3f %s %8.2fx\n", metric.c_str(), paper,
                unit, ours, unit, ours / paper);
}

/** Print a row without a paper reference. */
inline void
printInfo(const std::string &metric, double value, const char *unit)
{
    std::printf("%-42s %14s %11.3f %s\n", metric.c_str(), "-", value, unit);
}

/**
 * The Fig. 11 system on the modeled clock: @p mults FV.Mults of @p x
 * and @p y queued on a start_paused service with @p coprocessors
 * workers, then released. The service's engine arbitrates the one DMA
 * engine among the workers. @return the service's statistics.
 */
inline service::ServiceStats
runMults(const std::shared_ptr<const fv::FvParams> &params,
         const fv::RelinKeys &rlk, const fv::Ciphertext &x,
         const fv::Ciphertext &y, size_t coprocessors, size_t mults,
         size_t max_batch = 8)
{
    service::ServiceConfig cfg;
    cfg.workers = coprocessors;
    cfg.max_batch = max_batch;
    cfg.start_paused = true;
    service::ExecutionService svc(params, rlk, cfg);
    std::vector<std::future<fv::Ciphertext>> futures;
    for (size_t i = 0; i < mults; ++i)
        futures.push_back(svc.submit(service::Op::kMult, x, y));
    svc.start();
    for (auto &f : futures)
        f.get();
    svc.drain();
    return svc.stats();
}

/** One structured measurement for the JSON-lines trajectory. */
struct JsonRecord
{
    std::string kernel; ///< measurement name
    double value = 0.0; ///< measured value in @ref unit
    std::string unit = "ns";
    size_t n = 0;      ///< polynomial degree (0 when not applicable)
    size_t moduli = 0; ///< RNS moduli count (0 when not applicable)
};

/**
 * Appends one JSON object per record to the file named by the
 * `--json <path>` command-line option (JSON-lines format). Without the
 * option every record() is a no-op, so benchmarks stay pure console
 * tools by default. The thread count is sampled at record() time via
 * heat::threadCount() so multi-threaded measurements tag themselves.
 * One reporter per bench process: its destructor appends the process's
 * peak resident set (`peak_rss_mb`, getrusage) as the last record.
 */
class JsonReporter
{
  public:
    JsonReporter(std::string suite, int argc, char **argv)
        : suite_(std::move(suite))
    {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view(argv[i]) != "--json")
                continue;
            // A following flag is not a path; don't swallow it.
            if (i + 1 < argc &&
                !std::string_view(argv[i + 1]).starts_with("--")) {
                path_ = argv[i + 1];
            } else {
                std::fprintf(stderr, "bench: --json needs a path; no "
                                     "records will be written\n");
            }
        }
    }

    JsonReporter(const JsonReporter &) = delete;
    JsonReporter &operator=(const JsonReporter &) = delete;

    ~JsonReporter()
    {
        struct rusage usage {};
        if (getrusage(RUSAGE_SELF, &usage) == 0)
            record("peak_rss_mb",
                   static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    }

    /** @return true iff `--json <path>` was passed. */
    bool enabled() const { return !path_.empty(); }

    /** Append one record; no-op when not enabled(). */
    void
    record(const JsonRecord &r) const
    {
        if (!enabled())
            return;
        // Duplicate guard: two records with the same (kernel, unit, n,
        // moduli) key silently shadow each other in the trajectory
        // consumers (last-write-wins joins). Warn loudly but still
        // write — the duplicate is a bench bug to fix, not data to
        // drop.
        const std::string key = r.kernel + "|" + r.unit + "|" +
                                std::to_string(r.n) + "|" +
                                std::to_string(r.moduli);
        if (!seen_.insert(key).second)
            std::fprintf(stderr,
                         "bench: warning: duplicate record key "
                         "kernel=%s unit=%s n=%zu moduli=%zu\n",
                         r.kernel.c_str(), r.unit.c_str(), r.n,
                         r.moduli);
        std::FILE *f = std::fopen(path_.c_str(), "a");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot open %s for append\n",
                         path_.c_str());
            return;
        }
        // %.9g would print non-finite doubles as bare `inf`/`nan`
        // tokens, which are not JSON — emit null so the JSON-lines
        // consumers keep parsing (and gates on the record fail loudly
        // on the null instead of crashing on a syntax error).
        char value[40];
        if (std::isfinite(r.value))
            std::snprintf(value, sizeof value, "%.9g", r.value);
        else
            std::snprintf(value, sizeof value, "null");
        std::fprintf(f,
                     "{\"suite\":\"%s\",\"kernel\":\"%s\",\"value\":%s,"
                     "\"unit\":\"%s\",\"n\":%zu,\"moduli\":%zu,"
                     "\"threads\":%u}\n",
                     escape(suite_).c_str(), escape(r.kernel).c_str(),
                     value, escape(r.unit).c_str(), r.n, r.moduli,
                     threadCount());
        std::fclose(f);
    }

    /** Convenience overload mirroring printRow-style call sites. */
    void
    record(const std::string &kernel, double value, const char *unit,
           size_t n = 0, size_t moduli = 0) const
    {
        record(JsonRecord{kernel, value, unit, n, moduli});
    }

    /**
     * Append every sample of @p registry as one record: kernel is the
     * metric id (histograms expand to _count/_sum/_mean/_p50/_p99/_max
     * per obs::Registry::samples()), unit is the metric kind. Lets a
     * bench dump a service's whole metrics registry into the same
     * JSON-lines trajectory its latency numbers go to.
     */
    void
    recordMetrics(const obs::Registry &registry, size_t n = 0,
                  size_t moduli = 0) const
    {
        if (!enabled())
            return;
        for (const obs::MetricSample &s : registry.samples())
            record(JsonRecord{s.name, s.value, s.kind, n, moduli});
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string suite_;
    std::string path_;
    /** Duplicate-record keys seen so far (record() is const on the
     *  reporting path; the guard is bookkeeping, not state). */
    mutable std::set<std::string> seen_;
};

} // namespace heat::bench

#endif // HEAT_BENCH_BENCH_UTIL_H
