#include "sim/metrics.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"

namespace bssd::sim
{

double
MetricValue::mean() const
{
    return count == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t
MetricValue::percentile(double p) const
{
    return kind == Kind::hist
        ? Histogram::percentileOf(buckets, count, min, max, p)
        : 0;
}

const MetricValue *
MetricsSnapshot::find(const std::string &path) const
{
    auto it = rows.find(path);
    return it == rows.end() ? nullptr : &it->second;
}

namespace
{

void
mergeValue(MetricValue &into, const MetricValue &from)
{
    if (into.kind != from.kind)
        panic("metric snapshot merge: kind mismatch");
    switch (into.kind) {
      case MetricValue::Kind::counter:
      case MetricValue::Kind::gauge:
        into.value += from.value;
        return;
      case MetricValue::Kind::hist: {
        const bool was_empty = into.count == 0;
        into.count += from.count;
        into.sum += from.sum;
        if (from.count > 0) {
            into.min = was_empty ? from.min
                                 : std::min(into.min, from.min);
            into.max = std::max(into.max, from.max);
        }
        if (into.buckets.size() < from.buckets.size())
            into.buckets.resize(from.buckets.size());
        for (std::size_t i = 0; i < from.buckets.size(); ++i)
            into.buckets[i] += from.buckets[i];
        return;
      }
    }
}

} // namespace

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << c;
        }
    }
    os << '"';
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[path, value] : other.rows) {
        auto it = rows.find(path);
        if (it == rows.end())
            rows.emplace(path, value);
        else
            mergeValue(it->second, value);
    }
}

void
MetricsSnapshot::writeJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{\n";
    std::size_t i = 0;
    for (const auto &[path, v] : rows) {
        os << pad << "  ";
        jsonEscape(os, path);
        os << ": ";
        switch (v.kind) {
          case MetricValue::Kind::counter:
            os << "{\"type\": \"counter\", \"value\": "
               << static_cast<std::uint64_t>(v.value) << "}";
            break;
          case MetricValue::Kind::gauge:
            os << "{\"type\": \"gauge\", \"value\": " << v.value << "}";
            break;
          case MetricValue::Kind::hist:
            os << "{\"type\": \"hist\", \"count\": " << v.count
               << ", \"sum\": " << v.sum << ", \"min\": " << v.min
               << ", \"max\": " << v.max
               << ", \"mean\": " << v.mean()
               << ", \"p50\": " << v.percentile(50)
               << ", \"p99\": " << v.percentile(99)
               << ", \"p999\": " << v.percentile(99.9) << "}";
            break;
        }
        os << (++i < rows.size() ? ",\n" : "\n");
    }
    os << pad << "}";
}

void
MetricRegistry::insert(const std::string &path, Entry e)
{
    if (path.empty())
        panic("metric registration with an empty path");
    auto [it, inserted] = entries_.emplace(path, std::move(e));
    if (!inserted)
        panic("duplicate metric registration: ", path);
}

void
MetricRegistry::addCounter(const std::string &path, const Counter &c)
{
    Entry e;
    e.kind = MetricValue::Kind::counter;
    e.counter = &c;
    insert(path, std::move(e));
}

void
MetricRegistry::addHistogram(const std::string &path, const Histogram &h)
{
    Entry e;
    e.kind = MetricValue::Kind::hist;
    e.hist = &h;
    insert(path, std::move(e));
}

void
MetricRegistry::addGauge(const std::string &path, Gauge::Fn fn)
{
    Entry e;
    e.kind = MetricValue::Kind::gauge;
    e.gauge = std::move(fn);
    insert(path, std::move(e));
}

bool
MetricRegistry::contains(const std::string &path) const
{
    return entries_.find(path) != entries_.end();
}

std::vector<std::string>
MetricRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, e] : entries_)
        out.push_back(path);
    return out;
}

std::vector<std::string>
MetricRegistry::gaugePaths() const
{
    std::vector<std::string> out;
    for (const auto &[path, e] : entries_)
        if (e.kind == MetricValue::Kind::gauge)
            out.push_back(path);
    return out;
}

double
MetricRegistry::gaugeValue(const std::string &path) const
{
    auto it = entries_.find(path);
    if (it == entries_.end() ||
        it->second.kind != MetricValue::Kind::gauge) {
        panic("gaugeValue on unknown or non-gauge path: ", path);
    }
    return it->second.gauge ? it->second.gauge() : 0.0;
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &[path, e] : entries_) {
        MetricValue v;
        v.kind = e.kind;
        switch (e.kind) {
          case MetricValue::Kind::counter:
            v.value = static_cast<double>(e.counter->value());
            break;
          case MetricValue::Kind::gauge:
            v.value = e.gauge ? e.gauge() : 0.0;
            break;
          case MetricValue::Kind::hist: {
            v.count = e.hist->count();
            v.sum = e.hist->sum();
            v.min = e.hist->min();
            v.max = e.hist->max();
            // Empty buckets past the largest sample carry nothing.
            auto b = e.hist->buckets();
            while (!b.empty() && b.back() == 0)
                b = b.first(b.size() - 1);
            v.buckets.assign(b.begin(), b.end());
            break;
          }
        }
        snap.rows.emplace(path, std::move(v));
    }
    return snap;
}

void
MetricRegistry::writeJson(std::ostream &os, int indent) const
{
    snapshot().writeJson(os, indent);
}

} // namespace bssd::sim
