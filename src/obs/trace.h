/**
 * @file
 * Structured tracing — nested spans exportable as Chrome `trace_event`
 * JSON (chrome://tracing, Perfetto).
 *
 * Two time domains coexist in one trace, as separate "processes":
 *
 *  - pid 1, **modeled time**: spans on the serving layer's modeled
 *    clock, one track per worker. The service's discrete-event engine
 *    is their only source: it places every request, transfer, program
 *    and instruction span and every DMA wait from the job's static
 *    price (see service/service.h). They are deterministic — a
 *    function of the submissions, whatever the host thread count — and
 *    are the trace the paper-style per-unit breakdowns hang off.
 *  - pid 2, **host wall time**: cheap RAII spans from the `OBS_SPAN`
 *    macro around software kernels (NTT, RNS conversions, evaluator
 *    ops). Useful for profiling the simulator itself.
 *
 * The tracer is off by default. `OBS_SPAN`'s disabled cost is one
 *  relaxed atomic load and a predictable branch (CI gates it at < 2%
 * on the forward-NTT hot loop). Set `HEAT_TRACE=<file>` to install a
 * process-global tracer flushed at exit, or install one explicitly
 * with `setActiveTracer()`.
 */

#ifndef HEAT_OBS_TRACE_H
#define HEAT_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace heat::obs {

/** Trace "process" ids (Chrome trace groups tracks by pid). */
inline constexpr uint32_t kModeledPid = 1;
inline constexpr uint32_t kWallPid = 2;

/** One completed span. Chrome `B`/`E` events are generated at export
 *  time from (start_us, dur_us); storing completed spans keeps
 *  recording a single append. */
struct SpanRecord
{
    std::string name;
    std::string category;
    /** kModeledPid or kWallPid. */
    uint32_t pid = kWallPid;
    /** Track within the process: worker index for modeled spans,
     *  hashed thread id for wall spans. */
    uint32_t track = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
    /** Optional key/value annotations, exported under "args". Values
     *  are emitted verbatim when numeric-looking, quoted otherwise. */
    std::vector<std::pair<std::string, std::string>> args;
    /** Exported as a Chrome async `b`/`e` pair with an id of its own
     *  instead of a B/E pair on the track's stack: for spans that may
     *  overlap the track's others, such as a job's queue wait. */
    bool async = false;
};

/**
 * Span sink. Recording appends under a mutex; spans are capped (the
 * full test suite under HEAT_TRACE would otherwise record millions of
 * NTT spans) with a dropped-span counter so truncation is visible.
 */
class Tracer
{
  public:
    explicit Tracer(size_t max_spans = kDefaultMaxSpans);

    void addSpan(SpanRecord span);

    /** Copy out all recorded spans (for tests). */
    std::vector<SpanRecord> spans() const;

    uint64_t
    droppedSpans() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /**
     * Chrome trace_event "JSON Object Format": `traceEvents` with
     * balanced B/E duration events per (pid, track), one async b/e
     * pair per async span (ids 1, 2, ... in export order), `M` metadata
     * events naming processes/threads, and an `otherData` object
     * carrying @p other_data entries (the CLI stores per-unit cycle
     * attribution there for the CI checker).
     */
    void writeChromeTrace(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &other_data =
            {}) const;

    static constexpr size_t kDefaultMaxSpans = 1u << 18;

  private:
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    size_t max_spans_;
    std::atomic<uint64_t> dropped_{0};
};

/** @return the process-global tracer, or nullptr when tracing is off.
 *  One relaxed load — this is the disabled-instrumentation hot path. */
Tracer *activeTracer();

/** Install (or clear, with nullptr) the process-global tracer. Not
 *  synchronized with in-flight span recording; install before
 *  spawning workers. @return the previous tracer. */
Tracer *setActiveTracer(Tracer *tracer);

/** Monotonic host wall clock in µs (for wall spans). */
inline double
wallNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** RAII wall-time span used by OBS_SPAN. The name must outlive the
 *  span (string literals only). */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *category)
        : tracer_(activeTracer()), name_(name), category_(category),
          start_us_(tracer_ != nullptr ? wallNowUs() : 0.0)
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (tracer_ == nullptr) {
            return;
        }
        finish();
    }

  private:
    void finish();

    Tracer *tracer_;
    const char *name_;
    const char *category_;
    double start_us_;
};

} // namespace heat::obs

/**
 * Wall-time instrumentation point. Disabled (no tracer installed) cost
 * is one relaxed atomic load + branch; pass string literals only.
 */
#define HEAT_OBS_CONCAT_IMPL(a, b) a##b
#define HEAT_OBS_CONCAT(a, b) HEAT_OBS_CONCAT_IMPL(a, b)
#define OBS_SPAN(name, category)                                            \
    ::heat::obs::ScopedSpan HEAT_OBS_CONCAT(obs_span_, __LINE__)((name),    \
                                                                 (category))

#endif // HEAT_OBS_TRACE_H
