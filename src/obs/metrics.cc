#include "obs/metrics.h"

#include <algorithm>
#include <fstream>

#include "common/string_util.h"

namespace crowdsky::obs {
namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; we map everything else
/// (the dots of our internal names, mostly) to '_'.
std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out = "_" + out;
  return out;
}

std::string FormatDouble(double v) {
  // Range first: casting NaN or a huge value to an integer is undefined.
  if (v > -1e15 && v < 1e15) {
    const auto as_int = static_cast<long long>(v);
    if (static_cast<double>(as_int) == v) return std::to_string(as_int);
  }
  std::string out;
  AppendDouble(&out, v);
  return out;
}

}  // namespace

void MetricRegistry::SetCounter(std::string_view name, int64_t value) {
  CROWDSKY_CHECK_MSG(!gauges_.contains(name) && !histograms_.contains(name),
                     "metric name already registered with another kind");
  counters_.insert_or_assign(std::string(name), value);
}

void MetricRegistry::SetGauge(std::string_view name, double value) {
  CROWDSKY_CHECK_MSG(!counters_.contains(name) && !histograms_.contains(name),
                     "metric name already registered with another kind");
  gauges_.insert_or_assign(std::string(name), value);
}

void MetricRegistry::SetHistogram(std::string_view name,
                                  const std::vector<int64_t>& observations) {
  CROWDSKY_CHECK_MSG(!counters_.contains(name) && !gauges_.contains(name),
                     "metric name already registered with another kind");
  Histogram histogram;
  for (const int64_t value : observations) histogram.Observe(value);
  histograms_.insert_or_assign(std::string(name), histogram);
}

std::vector<std::pair<std::string, int64_t>> MetricRegistry::CounterSamples()
    const {
  std::vector<std::pair<std::string, int64_t>> out(counters_.begin(),
                                                    counters_.end());
  out.reserve(out.size() + 2 * histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name + "_count", histogram.count());
    out.emplace_back(name + "_sum", histogram.sum());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeSamples()
    const {
  // Map iteration is already name-sorted.
  return {gauges_.begin(), gauges_.end()};
}

std::string MetricRegistry::PrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " histogram\n";
    int64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += histogram.bucket(i);
      const std::string le =
          i == Histogram::kBuckets - 1
              ? "+Inf"
              : std::to_string(Histogram::BucketBound(i));
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + std::to_string(histogram.sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram.count()) + "\n";
  }
  return out;
}

Status WritePrometheusText(const std::string& path,
                           const MetricRegistry& registry) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open metrics file '" + path +
                           "' for writing");
  }
  out << registry.PrometheusText();
  out.flush();
  if (!out) {
    return Status::IOError("failed writing metrics file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace crowdsky::obs
