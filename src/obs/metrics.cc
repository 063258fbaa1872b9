#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

namespace heat::obs {
namespace {

/** Render a double the way Prometheus expects: integral values without
 *  a trailing ".000000", everything else in shortest round-trip form. */
std::string
renderValue(double v)
{
    if (std::isnan(v)) {
        return "NaN";
    }
    if (std::isinf(v)) {
        return v > 0 ? "+Inf" : "-Inf";
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::ostringstream os;
        os << static_cast<long long>(v);
        return os.str();
    }
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** Family name = metric id up to the first '{' (label block). */
std::string
familyOf(const std::string &name)
{
    const size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
}

/** Splice an extra label (`le="..."`) into a metric id that may or may
 *  not already carry a label block, and append a @p suffix to the
 *  family name: `f{a="b"}` + "_bucket" -> `f_bucket{a="b",le="..."}`. */
std::string
spliceHistogramSeries(const std::string &name, const std::string &suffix,
                      const std::string &le)
{
    const size_t brace = name.find('{');
    std::string out;
    if (brace == std::string::npos) {
        out = name + suffix;
        if (!le.empty()) {
            out += "{le=\"" + le + "\"}";
        }
        return out;
    }
    out = name.substr(0, brace) + suffix;
    if (le.empty()) {
        out += name.substr(brace);
        return out;
    }
    // Drop the closing '}' and append the le label.
    out += name.substr(brace, name.size() - brace - 1);
    out += ",le=\"" + le + "\"}";
    return out;
}

/** Append @p suffix to the family portion of a metric id, preserving
 *  any label block: `f{a="b"}` + "_count" -> `f_count{a="b"}`. */
std::string
withSuffix(const std::string &name, const std::string &suffix)
{
    return spliceHistogramSeries(name, suffix, "");
}

void
atomicMaxDouble(std::atomic<double> &slot, double v)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicAddDouble(std::atomic<double> &slot, double v)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

std::string
labelBlock(const std::string &key, const std::string &value)
{
    std::string out = "{" + key + "=\"";
    for (const char c : value) {
        if (c == '\\' || c == '"' || c == '\n')
            out += '\\';
        out += c == '\n' ? 'n' : c;
    }
    return out + "\"}";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1])
{
    for (size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

std::vector<double>
Histogram::exponentialBounds(double start, double factor, size_t count)
{
    std::vector<double> bounds;
    bounds.reserve(count);
    double b = start;
    for (size_t i = 0; i < count; ++i) {
        bounds.push_back(b);
        b *= factor;
    }
    return bounds;
}

void
Histogram::observe(double v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const size_t idx = static_cast<size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sum_, v);
    atomicMaxDouble(max_, v);
}

double
Histogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0) {
        return 0.0;
    }
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
    uint64_t seen = 0;
    for (size_t i = 0; i <= bounds_.size(); ++i) {
        const uint64_t in_bucket = bucketCount(i);
        if (seen + in_bucket < rank) {
            seen += in_bucket;
            continue;
        }
        if (i == bounds_.size()) {
            // Open overflow bucket: the observed max is the only honest
            // upper estimate we have.
            return max();
        }
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        const double hi = bounds_[i];
        const double frac = in_bucket == 0
                                ? 1.0
                                : static_cast<double>(rank - seen) /
                                      static_cast<double>(in_bucket);
        // Never report past the largest observation: a sparsely filled
        // bucket would otherwise inflate the tail estimate.
        return std::min(lo + frac * (hi - lo), max());
    }
    return max();
}

Registry::Entry *
Registry::find(const std::string &name, Entry::Kind kind)
{
    for (auto &e : entries_) {
        if (e->name == name && e->kind == kind) {
            return e.get();
        }
    }
    return nullptr;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry *e = find(name, Entry::Kind::kCounter)) {
        return *e->counter;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = Entry::Kind::kCounter;
    entry->counter = std::make_unique<Counter>();
    Counter &out = *entry->counter;
    entries_.push_back(std::move(entry));
    return out;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry *e = find(name, Entry::Kind::kGauge)) {
        return *e->gauge;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = Entry::Kind::kGauge;
    entry->gauge = std::make_unique<Gauge>();
    Gauge &out = *entry->gauge;
    entries_.push_back(std::move(entry));
    return out;
}

Histogram &
Registry::histogram(const std::string &name, std::vector<double> bounds,
                    const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry *e = find(name, Entry::Kind::kHistogram)) {
        return *e->histogram;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = Entry::Kind::kHistogram;
    entry->histogram = std::make_unique<Histogram>(std::move(bounds));
    Histogram &out = *entry->histogram;
    entries_.push_back(std::move(entry));
    return out;
}

std::string
Registry::renderText() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Families in first-registration order, each family's ids in
    // registration order: one HELP/TYPE header per family even when
    // its series were registered between other families' (per-tenant
    // counters of successive tenants).
    std::map<std::string, size_t> rank;
    std::vector<std::pair<size_t, const Entry *>> order;
    order.reserve(entries_.size());
    for (const auto &e : entries_) {
        const size_t r =
            rank.try_emplace(familyOf(e->name), rank.size()).first->second;
        order.emplace_back(r, e.get());
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    std::ostringstream os;
    std::string last_family;
    for (const auto &[r, e] : order) {
        const std::string family = familyOf(e->name);
        if (family != last_family) {
            if (!e->help.empty()) {
                os << "# HELP " << family << ' ' << e->help << '\n';
            }
            const char *type = e->kind == Entry::Kind::kCounter ? "counter"
                               : e->kind == Entry::Kind::kGauge
                                   ? "gauge"
                                   : "histogram";
            os << "# TYPE " << family << ' ' << type << '\n';
            last_family = family;
        }
        switch (e->kind) {
        case Entry::Kind::kCounter:
            os << e->name << ' ' << e->counter->value() << '\n';
            break;
        case Entry::Kind::kGauge:
            os << e->name << ' ' << renderValue(e->gauge->value()) << '\n';
            break;
        case Entry::Kind::kHistogram: {
            const Histogram &h = *e->histogram;
            uint64_t cumulative = 0;
            for (size_t i = 0; i < h.bounds().size(); ++i) {
                cumulative += h.bucketCount(i);
                os << spliceHistogramSeries(e->name, "_bucket",
                                            renderValue(h.bounds()[i]))
                   << ' ' << cumulative << '\n';
            }
            cumulative += h.bucketCount(h.bounds().size());
            os << spliceHistogramSeries(e->name, "_bucket", "+Inf") << ' '
               << cumulative << '\n';
            os << withSuffix(e->name, "_sum") << ' ' << renderValue(h.sum())
               << '\n';
            os << withSuffix(e->name, "_count") << ' ' << h.count() << '\n';
            break;
        }
        }
    }
    return os.str();
}

std::vector<MetricSample>
Registry::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MetricSample> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        switch (e->kind) {
        case Entry::Kind::kCounter:
            out.push_back({e->name, "counter",
                           static_cast<double>(e->counter->value())});
            break;
        case Entry::Kind::kGauge:
            out.push_back({e->name, "gauge", e->gauge->value()});
            break;
        case Entry::Kind::kHistogram: {
            const Histogram &h = *e->histogram;
            out.push_back({withSuffix(e->name, "_count"), "histogram",
                           static_cast<double>(h.count())});
            out.push_back({withSuffix(e->name, "_sum"), "histogram",
                           h.sum()});
            out.push_back(
                {withSuffix(e->name, "_mean"), "histogram", h.mean()});
            out.push_back({withSuffix(e->name, "_p50"), "histogram",
                           h.quantile(0.50)});
            out.push_back({withSuffix(e->name, "_p99"), "histogram",
                           h.quantile(0.99)});
            out.push_back(
                {withSuffix(e->name, "_max"), "histogram", h.max()});
            break;
        }
        }
    }
    return out;
}

} // namespace heat::obs
