// RunObserver: the per-run handle the engine threads through the session
// and the drivers. It bundles the deterministic metric registry with the
// (non-deterministic) trace collector under one observability level:
//
//   kDisabled  the engine and the service create no observer, so
//              instrumented code holds a null RunObserver* and gets
//              default (no-op) TraceSpans,
//   kCounters  the run's ledgers are published into the registry at
//              scrape time, tracing off,
//   kFull      counters plus TraceSpans (Chrome-trace exportable).
//
// Only spans are recorded while the run is in flight; the registry is
// written once, by the thread that owns the run, when it scrapes.
#pragma once

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace crowdsky::obs {

/// How much the observability layer records.
enum class ObsLevel {
  kDisabled = 0,
  kCounters = 1,
  kFull = 2,
};

/// Stable display name ("disabled", "counters", "full").
const char* ObsLevelName(ObsLevel level);

/// \brief One run's observability state: level + metrics + trace.
class RunObserver {
 public:
  explicit RunObserver(ObsLevel level) : level_(level) {}
  CROWDSKY_DISALLOW_COPY(RunObserver);

  ObsLevel level() const { return level_; }
  bool counters_enabled() const { return level_ != ObsLevel::kDisabled; }
  bool tracing_enabled() const { return level_ == ObsLevel::kFull; }

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceCollector& trace() { return trace_; }
  const TraceCollector& trace() const { return trace_; }

  /// A live span when tracing is on, a no-op span otherwise.
  TraceSpan Span(const char* name) {
    return tracing_enabled() ? TraceSpan(&trace_, name) : TraceSpan();
  }

 private:
  ObsLevel level_;
  MetricRegistry metrics_;
  TraceCollector trace_;
};

/// Span helper for call sites holding a possibly-null observer.
inline TraceSpan SpanIf(RunObserver* observer, const char* name) {
  return observer != nullptr ? observer->Span(name) : TraceSpan();
}

}  // namespace crowdsky::obs
