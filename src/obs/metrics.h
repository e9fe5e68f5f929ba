// Metric primitives of the observability layer (src/obs): a registry of
// named counters, gauges and histograms.
//
// Design constraints (see DESIGN.md "Observability"):
//  * every metric is a view of a ledger the run keeps anyway (the
//    session's stats and per-round history, the journal writer, the
//    governor, the service packer). Nothing is counted live: the thread
//    that owns the run publishes each value once, at scrape time, so a
//    registry has one writer and needs no synchronization,
//  * deterministic quantities only: the published ledgers (questions,
//    rounds, retries, ...) are bit-identical across runs of the same
//    configuration; wall-clock timing lives in the trace collector
//    (obs/trace.h), never in a counter,
//  * exports are stable: samples are emitted sorted by name, so two runs
//    of the same configuration produce byte-identical counter dumps.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace crowdsky::obs {

/// Power-of-two bucketed histogram of non-negative integers (round
/// sizes). Bucket i counts observations with
/// value <= BucketBound(i); the last bucket is unbounded (+Inf).
class Histogram {
 public:
  /// le bounds 1, 2, 4, ..., 2^19, +Inf.
  static constexpr int kBuckets = 21;

  void Observe(int64_t value) {
    if (value < 0) value = 0;
    ++buckets_[static_cast<size_t>(BucketIndex(value))];
    ++count_;
    sum_ += value;
  }
  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  /// Observations landing in bucket `i` (not cumulative).
  int64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }
  /// Inclusive upper bound of bucket `i`; the last bucket has no bound.
  static int64_t BucketBound(int i) { return int64_t{1} << i; }
  static int BucketIndex(int64_t value) {
    for (int i = 0; i < kBuckets - 1; ++i) {
      if (value <= BucketBound(i)) return i;
    }
    return kBuckets - 1;
  }

 private:
  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
};

/// \brief Registry of named metrics, written by setters at scrape time.
///
/// Metric names are dotted lowercase ("crowdsky.rounds", "pool.steals").
/// A name may carry exactly one metric kind — registering it as a
/// different kind is a programming error. Not thread-safe: one thread
/// publishes a run's ledgers into its registry, then reads the samples.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  CROWDSKY_DISALLOW_COPY(MetricRegistry);

  /// Creates or overwrites the counter `name`.
  void SetCounter(std::string_view name, int64_t value);
  /// Creates or overwrites the gauge `name`.
  void SetGauge(std::string_view name, double value);
  /// Creates or overwrites the histogram `name` with one observation per
  /// element of `observations`.
  void SetHistogram(std::string_view name,
                    const std::vector<int64_t>& observations);

  /// All counters as (name, value), sorted by name. Histograms are
  /// flattened into "<name>_count" / "<name>_sum" entries so callers see
  /// one uniform deterministic integer surface.
  std::vector<std::pair<std::string, int64_t>> CounterSamples() const;
  /// All gauges as (name, value), sorted by name.
  std::vector<std::pair<std::string, double>> GaugeSamples() const;

  /// Prometheus text exposition (one "# TYPE" line per metric, names
  /// sanitized to [a-zA-Z0-9_], histograms with cumulative le buckets).
  std::string PrometheusText() const;

 private:
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Writes PrometheusText() to `path` (atomic enough for scrape files:
/// plain truncate + write).
Status WritePrometheusText(const std::string& path,
                           const MetricRegistry& registry);

}  // namespace crowdsky::obs
