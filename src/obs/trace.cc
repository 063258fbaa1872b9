#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

namespace heat::obs {
namespace {

std::atomic<Tracer *> g_tracer{nullptr};

/** Small stable per-thread track id for wall spans. */
uint32_t
wallTrack()
{
    thread_local const uint32_t track = [] {
        static std::atomic<uint32_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
    }();
    return track;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
looksNumeric(const std::string &s)
{
    if (s.empty()) {
        return false;
    }
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

void
writeArgs(std::ostream &os,
          const std::vector<std::pair<std::string, std::string>> &args)
{
    os << '{';
    for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) {
            os << ',';
        }
        os << '"' << jsonEscape(args[i].first) << "\":";
        if (looksNumeric(args[i].second)) {
            os << args[i].second;
        } else {
            os << '"' << jsonEscape(args[i].second) << '"';
        }
    }
    os << '}';
}

/** One trace event; @p id names the pair of an async ('b'/'e') one. */
void
writeEvent(std::ostream &os, char phase, const SpanRecord &s, double ts_us,
           bool &first, uint64_t id = 0)
{
    if (!first) {
        os << ",\n";
    }
    first = false;
    std::ostringstream ts;
    ts.precision(17);
    ts << ts_us;
    os << R"(  {"name":")" << jsonEscape(s.name) << R"(","cat":")"
       << jsonEscape(s.category.empty() ? std::string("heat") : s.category)
       << R"(","ph":")" << phase << R"(","pid":)" << s.pid << R"(,"tid":)"
       << s.track << R"(,"ts":)" << ts.str();
    if (id != 0) {
        os << R"(,"id":)" << id;
    }
    if ((phase == 'B' || phase == 'b') && !s.args.empty()) {
        os << R"(,"args":)";
        writeArgs(os, s.args);
    }
    os << '}';
}

void
writeMetadata(std::ostream &os, uint32_t pid, uint32_t tid,
              const std::string &kind, const std::string &label, bool &first)
{
    if (!first) {
        os << ",\n";
    }
    first = false;
    os << R"(  {"name":")" << kind << R"(","ph":"M","pid":)" << pid
       << R"(,"tid":)" << tid << R"(,"args":{"name":")" << jsonEscape(label)
       << R"("}})";
}

/** Installs a tracer from HEAT_TRACE at static-init time and flushes
 *  it to the named file at process exit. */
struct EnvTracer
{
    EnvTracer()
    {
        const char *path = std::getenv("HEAT_TRACE");
        if (path == nullptr || *path == '\0') {
            return;
        }
        file = path;
        tracer = std::make_unique<Tracer>();
        setActiveTracer(tracer.get());
    }

    ~EnvTracer()
    {
        if (tracer == nullptr) {
            return;
        }
        setActiveTracer(nullptr);
        std::ofstream os(file);
        if (os) {
            tracer->writeChromeTrace(os);
        }
    }

    std::string file;
    std::unique_ptr<Tracer> tracer;
};

EnvTracer g_env_tracer;

} // namespace

Tracer::Tracer(size_t max_spans) : max_spans_(max_spans)
{
}

void
Tracer::addSpan(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= max_spans_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeChromeTrace(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &other_data) const
{
    std::vector<SpanRecord> spans = this->spans();

    // Group spans by (pid, track); within a track, sorting by start
    // ascending then duration descending yields parents before their
    // children, so a simple stack emits balanced B/E pairs.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         if (a.pid != b.pid) {
                             return a.pid < b.pid;
                         }
                         if (a.track != b.track) {
                             return a.track < b.track;
                         }
                         if (a.start_us != b.start_us) {
                             return a.start_us < b.start_us;
                         }
                         return a.dur_us > b.dur_us;
                     });

    os << "{\n\"traceEvents\": [\n";
    bool first = true;

    bool saw_modeled = false;
    bool saw_wall = false;
    std::vector<std::pair<uint32_t, uint32_t>> tracks;
    for (const SpanRecord &s : spans) {
        saw_modeled = saw_modeled || s.pid == kModeledPid;
        saw_wall = saw_wall || s.pid == kWallPid;
        const auto key = std::make_pair(s.pid, s.track);
        if (std::find(tracks.begin(), tracks.end(), key) == tracks.end()) {
            tracks.push_back(key);
        }
    }
    if (saw_modeled) {
        writeMetadata(os, kModeledPid, 0, "process_name",
                      "heat modeled time", first);
    }
    if (saw_wall) {
        writeMetadata(os, kWallPid, 0, "process_name", "heat host wall time",
                      first);
    }
    for (const auto &[pid, track] : tracks) {
        std::ostringstream label;
        label << (pid == kModeledPid ? "worker " : "thread ") << track;
        writeMetadata(os, pid, track, "thread_name", label.str(), first);
    }

    // Emit per track with an explicit open-span stack: close every
    // span that ends at or before the next span's start, then open the
    // next. Sibling spans sharing an endpoint close in LIFO order.
    struct Open
    {
        const SpanRecord *span;
        double end_us;
    };
    std::vector<Open> stack;
    auto flushUntil = [&](double ts) {
        while (!stack.empty() && stack.back().end_us <= ts) {
            writeEvent(os, 'E', *stack.back().span, stack.back().end_us,
                       first);
            stack.pop_back();
        }
    };

    const SpanRecord *prev = nullptr;
    uint64_t async_ids = 0;
    for (const SpanRecord &s : spans) {
        if (s.async) {
            ++async_ids;
            writeEvent(os, 'b', s, s.start_us, first, async_ids);
            writeEvent(os, 'e', s, s.start_us + s.dur_us, first, async_ids);
            continue;
        }
        if (prev != nullptr &&
            (prev->pid != s.pid || prev->track != s.track)) {
            // Track switch: close everything still open.
            while (!stack.empty()) {
                writeEvent(os, 'E', *stack.back().span, stack.back().end_us,
                           first);
                stack.pop_back();
            }
        }
        flushUntil(s.start_us);
        writeEvent(os, 'B', s, s.start_us, first);
        stack.push_back({&s, s.start_us + s.dur_us});
        prev = &s;
    }
    while (!stack.empty()) {
        writeEvent(os, 'E', *stack.back().span, stack.back().end_us, first);
        stack.pop_back();
    }

    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
    std::vector<std::pair<std::string, std::string>> extra = other_data;
    extra.emplace_back("dropped_spans", std::to_string(droppedSpans()));
    writeArgs(os, extra);
    os << "\n}\n";
}

Tracer *
activeTracer()
{
    return g_tracer.load(std::memory_order_relaxed);
}

Tracer *
setActiveTracer(Tracer *tracer)
{
    return g_tracer.exchange(tracer, std::memory_order_acq_rel);
}

void
ScopedSpan::finish()
{
    SpanRecord span;
    span.name = name_;
    span.category = category_;
    span.pid = kWallPid;
    span.track = wallTrack();
    span.start_us = start_us_;
    span.dur_us = wallNowUs() - start_us_;
    tracer_->addSpan(std::move(span));
}

} // namespace heat::obs
