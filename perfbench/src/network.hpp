#pragma once

// What every workload shares: its sensor network, the synthetic inputs made
// from the seed with a separate generator twin, the cold build of the
// bundle it boots from, and the output comparisons its checks use.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/digital_twin.hpp"
#include "harness.hpp"

namespace pb {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;  ///< self-test: corrupt one output before its check
  std::string work_dir;  ///< scratch directory inside the checkout
  bool build_only = false;  ///< child mode: build the workload's bundle, exit
  std::string self;         ///< path of this program (argv[0])
};

/// One network: TwinConfig::tiny() with this many sensors and ticks at a
/// 2 s observation interval; Phase 1 runs its adjoint solves in parallel.
[[nodiscard]] tsunami::TwinConfig network_config(std::size_t sensors,
                                                 std::size_t ticks);

/// Noiseless data and true QoI of one rupture.
struct Truth {
  std::vector<double> d_true;
  std::vector<double> q_true;
};

/// A fixed handful of compact ruptures, forward-modelled on a generator
/// twin that is separate from the twin the workload builds and serves. The
/// ruptures do not depend on the seed; the noise drawn on top of them does.
[[nodiscard]] std::vector<Truth> synthesize_truths(
    const tsunami::TwinConfig& config, std::size_t count);

/// Observation noise of the network: 1% of the peak of the first truth.
[[nodiscard]] tsunami::NoiseModel network_noise(
    const tsunami::TwinConfig& config, const std::vector<Truth>& truths);

/// One noisy full-window observation vector and the truth it came from.
struct Input {
  std::size_t truth = 0;
  std::vector<double> d_obs;
};

/// `count` vectors re-noised from the truths in turn, seeded by `rng`.
[[nodiscard]] std::vector<Input> renoise(const std::vector<Truth>& truths,
                                         std::size_t count, double sigma,
                                         tsunami::Rng& rng);

/// Times of one cold build (seconds) and the bundle it wrote.
struct BuildTimes {
  double phase1 = 0, phase2 = 0, phase3 = 0;
  double save = 0;
  double bundle_mb = 0;
};

/// Phases 1-3 on a fresh twin, then save_offline to `bundle_path`. Spans
/// wrap each phase.
[[nodiscard]] std::shared_ptr<tsunami::DigitalTwin> cold_build(
    const tsunami::TwinConfig& config, const tsunami::NoiseModel& noise,
    const std::string& bundle_path, BuildTimes& times);

/// Build the workload's bundle in a child process — this program run with
/// --build-bundle 1, the HPC side of the deployment split — and wait for it.
/// The serving process then never holds the build's transient memory, so
/// its peak RSS is the warning center's alone. Throws if the child fails.
void build_in_child(const Args& args);

/// Bitwise equality of two forecasts' mean and stddev.
[[nodiscard]] bool bitwise_equal(const tsunami::Forecast& a,
                                 const tsunami::Forecast& b);
/// Relative L2 distance of means and of stddevs, the larger of the two.
[[nodiscard]] double forecast_distance(const tsunami::Forecast& a,
                                       const tsunami::Forecast& b);

/// Flip the lowest mantissa bit of the first forecast mean entry.
void perturb_forecast(tsunami::Forecast& f);

/// Print the stage being entered, with the seconds since start.
void stage(const char* what);

}  // namespace pb
