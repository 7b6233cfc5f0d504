#include "sim/report.hh"

#include <cstddef>
#include <ostream>

#include "sim/logging.hh"

namespace bssd::sim
{

GaugeSampler::GaugeSampler(const MetricRegistry &registry, Tick period)
    : registry_(registry)
{
    if (period == 0)
        fatal("GaugeSampler period must be non-zero");
    table_.period = period;
    table_.columns = registry.gaugePaths();
}

void
GaugeSampler::sample(Tick now)
{
    if (now < nextDue_)
        return;
    SeriesTable::Row row;
    row.at = now;
    row.values.reserve(table_.columns.size());
    for (const auto &path : table_.columns)
        row.values.push_back(registry_.gaugeValue(path));
    table_.rows.push_back(std::move(row));
    // Next due point is period-aligned relative to this sample, so a
    // bursty pump cannot compress the series.
    nextDue_ = now + table_.period;
}

void
SeriesTable::writeJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{\n" << pad << "  \"period_ticks\": " << period << ",\n"
       << pad << "  \"columns\": [";
    for (std::size_t i = 0; i < columns.size(); ++i)
        os << (i ? ", " : "") << '"' << columns[i] << '"';
    os << "],\n" << pad << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << (i ? ",\n" : "\n") << pad << "    [" << rows[i].at;
        for (double v : rows[i].values)
            os << ", " << v;
        os << "]";
    }
    if (rows.empty())
        os << "]";
    else
        os << "\n" << pad << "  ]";
    os << "\n" << pad << "}";
}

void
RunReport::writeJson(std::ostream &os) const
{
    os << "{\n  \"bench\": \"" << bench << "\",\n  \"config\": \""
       << config << "\",\n  \"seed\": " << seed << ",\n"
       << "  \"metrics\": ";
    metrics.writeJson(os, 2);
    os << ",\n  \"phases\": [";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto &p = phases[i];
        os << (i ? ",\n" : "\n") << "    {\"cat\": \"" << p.cat
           << "\", \"name\": \"" << p.name
           << "\", \"count\": " << p.count
           << ", \"total_ticks\": " << p.totalTicks
           << ", \"mean_ticks\": "
           << (p.count
                   ? static_cast<double>(p.totalTicks) /
                         static_cast<double>(p.count)
                   : 0.0)
           << ", \"min_ticks\": " << p.minTicks
           << ", \"max_ticks\": " << p.maxTicks
           << ", \"p50_ticks\": " << p.p50
           << ", \"p99_ticks\": " << p.p99 << "}";
    }
    os << (phases.empty() ? "]" : "\n  ]");
    if (series) {
        os << ",\n  \"series\": ";
        series->writeJson(os, 2);
    }
    os << "\n}\n";
}

} // namespace bssd::sim
