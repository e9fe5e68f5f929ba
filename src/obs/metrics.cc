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

Counter* MetricRegistry::FindOrCreateCounter(std::string_view name) {
  MutexLock lock(mutex_);
  CROWDSKY_CHECK_MSG(!gauges_.contains(name) && !histograms_.contains(name),
                     "metric name already registered with another kind");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::FindOrCreateGauge(std::string_view name) {
  MutexLock lock(mutex_);
  CROWDSKY_CHECK_MSG(!counters_.contains(name) && !histograms_.contains(name),
                     "metric name already registered with another kind");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricRegistry::FindOrCreateHistogram(std::string_view name) {
  MutexLock lock(mutex_);
  CROWDSKY_CHECK_MSG(!counters_.contains(name) && !gauges_.contains(name),
                     "metric name already registered with another kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

int64_t MetricRegistry::CounterValue(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

bool MetricRegistry::HasCounter(std::string_view name) const {
  MutexLock lock(mutex_);
  return counters_.contains(name);
}

std::vector<std::pair<std::string, int64_t>> MetricRegistry::CounterSamples()
    const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size() + 2 * histograms_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name + "_count", histogram->count());
    out.emplace_back(name + "_sum", histogram->sum());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeSamples()
    const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;  // map iteration is already name-sorted
}

std::string MetricRegistry::PrometheusText() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = Sanitize(name);
    out += "# TYPE " + prom + " histogram\n";
    int64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += histogram->bucket(i);
      const std::string le =
          i == Histogram::kBuckets - 1
              ? "+Inf"
              : std::to_string(Histogram::BucketBound(i));
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + std::to_string(histogram->sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram->count()) + "\n";
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
