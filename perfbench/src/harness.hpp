#pragma once

// Measurement harness of the repository benchmark: clock, order statistics,
// the in-memory span recorder, the machine-ceiling probes, and the report
// that prints every metric by name and unit and ends with the one-line JSON
// result.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

// ---- clock -----------------------------------------------------------------

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}
/// Sleep until `deadline_ns`, spinning for the last few tens of microseconds
/// so open-loop send times are honoured closely.
void sleep_until_ns(std::int64_t deadline_ns);

// ---- statistics --------------------------------------------------------------

/// Quantile q in [0, 1] with linear interpolation between closest ranks.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// A percentile together with what backs it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< samples per window (smallest window)
  std::size_t beyond = 0;   ///< samples beyond the percentile (smallest window)
  std::size_t windows = 1;  ///< windows the median was taken over
  bool valid = false;       ///< at least 10 samples beyond it in every window
};

/// Percentile q of `samples`; valid only with >= 10 samples beyond it.
[[nodiscard]] Percentile percentile(const std::vector<double>& samples,
                                    double q);

/// Median over windows of per-window percentiles. Invalid windows (fewer
/// than 10 samples beyond the percentile) are dropped, and the result is
/// invalid if none remain.
[[nodiscard]] Percentile median_of_windows(
    const std::vector<Percentile>& windows);

/// median_of_windows of percentile q of each sample vector in `groups`.
[[nodiscard]] Percentile windowed_percentile(
    const std::vector<std::vector<double>>& groups, double q);

// ---- spans -------------------------------------------------------------------

/// One recorded span. Names are string literals from the benchmark's files.
struct Span {
  const char* name = "";
  std::int64_t t0 = 0, t1 = 0;  ///< now_ns() at entry / exit
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t event = 0;   ///< event id (0 = none)
  std::int64_t tick = -1;    ///< tick index (-1 = none)
  std::uint32_t thread = 0;
};

/// Span recording is off unless enabled; a disabled ScopedSpan is one branch.
void trace_enable(bool on);
[[nodiscard]] bool trace_enabled();

/// Records a span around its scope when tracing is enabled. Spans nest per
/// thread: the innermost open span of the thread is the parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t event = 0,
                      std::int64_t tick = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Every span recorded so far, from every thread (call while quiescent).
[[nodiscard]] std::vector<Span> trace_spans();
/// Durations in microseconds of every span named `name`.
[[nodiscard]] std::vector<double> span_durations_us(const char* name);
/// Write all spans as Chrome trace-event JSON.
void trace_write(const std::string& path);

// ---- machine ceilings -----------------------------------------------------------

struct Ceilings {
  double triad_gbps = 0.0;     ///< STREAM triad, every pool participant
  double triad_gbps_1t = 0.0;  ///< STREAM triad, one thread
  double fma_gflops = 0.0;     ///< FMA loop, every pool participant
  double fma_gflops_1t = 0.0;  ///< FMA loop, one thread
  std::size_t llc_bytes = 0;   ///< last-level cache reported by the CPU
  std::size_t array_bytes = 0; ///< bytes of each triad array
  std::size_t threads = 0;     ///< participants of the pool-wide probes
};

/// STREAM triad a = b + s c over three arrays each at least 4x the
/// last-level cache, and an FMA loop over independent accumulators. Runs on
/// the global ThreadPool (its workers plus the calling thread).
[[nodiscard]] Ceilings measure_ceilings();

// ---- report --------------------------------------------------------------------

/// Collects metrics and check outcomes; prints human-readable lines as it
/// goes and the final one-line JSON result.
class Report {
 public:
  /// Record a metric; `note` states its base, sample count or source.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Record a percentile metric if valid (>= 10 samples beyond it), with
  /// its sample count in the note; otherwise report it as not measured.
  void percentile(const std::string& name, const Percentile& p, double scale,
                  const std::string& unit, const std::string& note = "");

  /// Count `n` attempted operations or checks.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Count one failed check or failed operation, with a reason.
  void fail(const std::string& what);

  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).value;
  }

  /// Print the final JSON line with exactly the metrics in `keys` (all of
  /// which must have been recorded) and return the process exit code. A
  /// missing metric is an error: nothing is printed and 2 is returned.
  [[nodiscard]] int emit(const std::vector<std::string>& keys) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

}  // namespace pb
