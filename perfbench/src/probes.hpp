#pragma once

// Layer probes shared by the workloads: each times the benchmark's own calls
// into one layer on the workload's own network, inside spans, and reports
// the per-layer metrics; plus the batch-inference phase and the pool and
// service helpers the end-to-end and traced measurements use.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/digital_twin.hpp"
#include "harness.hpp"
#include "network.hpp"
#include "service/warning_service.hpp"

namespace pb {

/// Everything the layer probes run against.
struct ProbeContext {
  const tsunami::DigitalTwin& cold;        ///< cold-built twin (K retained)
  const tsunami::StreamingEngine& engine;  ///< engine the workload streams on
  const std::vector<Input>& inputs;        ///< the workload's inputs
  const BuildTimes& build;                 ///< the workload's cold build
  const std::string& bundle_path;
  const Ceilings& ceilings;
  std::size_t workers = 1;  ///< pool workers of the workload
};

/// Kernel, solve, build, bundle and machine metrics (trace mode).
void run_layer_probes(const ProbeContext& ctx, Report& report);

/// Timed DigitalTwin::infer calls on the inputs in turn. Calls may be
/// spread over a run (one between waves, a batch per round); forecasts of
/// the first pass over the inputs are kept for the checks and qoi_rel_err.
/// Percentiles are medians over windows of 256 consecutive calls, so a burst
/// of interference from outside the process moves one window, not the
/// result.
class InferLoop {
 public:
  InferLoop(const tsunami::DigitalTwin& twin, const std::vector<Input>& inputs)
      : twin_(twin), inputs_(inputs), forecasts_(inputs.size()) {}

  /// One timed call on the next input.
  void call();
  /// Timed calls until `seconds` passed and at least `min_calls` were made.
  void run_for(double seconds, std::size_t min_calls = 0);
  /// Untimed calls for the inputs the timed calls have not reached yet.
  void finish_pass();

  [[nodiscard]] const std::vector<tsunami::Forecast>& forecasts() const {
    return forecasts_;
  }
  [[nodiscard]] const std::vector<double>& ms() const { return ms_; }
  [[nodiscard]] std::size_t calls() const { return ms_.size(); }

 private:
  const tsunami::DigitalTwin& twin_;
  const std::vector<Input>& inputs_;
  std::vector<tsunami::Forecast> forecasts_;
  std::vector<double> ms_;
  std::size_t next_ = 0;
};

/// Record infer_p50_ms / infer_p95_ms from a run.
void report_infer(const InferLoop& loop, Report& report,
                  const std::string& note);

/// Mean relative L2 error of forecasts against the truths of their inputs.
[[nodiscard]] double mean_qoi_error(
    const std::vector<tsunami::Forecast>& forecasts,
    const std::vector<Input>& inputs, const std::vector<Truth>& truths);

/// Final forecast of a serial StreamingAssimilator replay of `d`.
[[nodiscard]] tsunami::Forecast replay(const tsunami::StreamingEngine& engine,
                                       const std::vector<double>& d);

/// ThreadPool::worker_stats summed over workers, with a timestamp.
struct PoolCounters {
  std::uint64_t jobs = 0, steals = 0;
  double busy_seconds = 0.0;
  std::size_t workers = 0;
  std::int64_t t_ns = 0;
};
[[nodiscard]] PoolCounters pool_counters();
/// pool.jobs_per_tick, pool.busy_frac and pool.steals from two snapshots.
void report_pool(const PoolCounters& before, const PoolCounters& after,
                 std::size_t ticks, Report& report, const std::string& note);

/// Open one event, feed and drain it, then time back-to-back
/// latest_forecast calls for `seconds`: service.read_us and
/// service.reads_per_s of an uncontended dashboard.
void read_probe(tsunami::WarningService& service,
                const std::shared_ptr<const tsunami::CachedEngine>& engine,
                const Input& input, double seconds, Report& report);

/// service.submit_p50_us / _p99_us and service.open_close_us from the spans
/// of the traced pass.
void report_service_spans(Report& report, const std::string& note);

/// service.overhead_us and service.vs_serial from the untraced end-to-end
/// figures and the probe figures.
void report_service_ratios(Report& report, double tick_latency_p50_us,
                           const std::string& latency_base,
                           double ticks_per_s, const std::string& rate_base);

/// The number of pool workers a workload runs with.
void set_workers(std::size_t workers);

}  // namespace pb
