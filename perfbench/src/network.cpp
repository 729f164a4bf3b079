#include "network.hpp"

#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

extern char** environ;

namespace pb {

using namespace tsunami;

TwinConfig network_config(std::size_t sensors, std::size_t ticks) {
  TwinConfig c = TwinConfig::tiny();
  c.num_sensors = sensors;
  c.num_intervals = ticks;
  c.observation_dt = 2.0;
  c.phase1_parallel = true;
  return c;
}

namespace {

/// Compact rupture k of the fixed handful: one elliptical asperity in the
/// seaward half of the footprint, nucleating at its centre.
RuptureScenario rupture(const DigitalTwin& twin, std::size_t k) {
  static constexpr double kX[] = {0.30, 0.24, 0.36, 0.28, 0.33, 0.22};
  static constexpr double kY[] = {0.50, 0.35, 0.62, 0.70, 0.42, 0.55};
  static constexpr double kPeak[] = {2.2, 1.6, 2.6, 1.9, 2.4, 1.8};
  const std::size_t i = k % 6;
  Asperity a;
  a.x0 = kX[i] * twin.mesh().length_x();
  a.y0 = kY[i] * twin.mesh().length_y();
  a.rx = 16e3;
  a.ry = 24e3;
  a.peak_uplift = kPeak[i];
  RuptureConfig rc;
  rc.asperities.push_back(a);
  rc.hypocenter_x = a.x0;
  rc.hypocenter_y = a.y0;
  return RuptureScenario(rc);
}

}  // namespace

std::vector<Truth> synthesize_truths(const TwinConfig& config,
                                     std::size_t count) {
  ScopedSpan span("input.synthesize");
  const DigitalTwin generator(config);
  // One rupture at a time: concurrent forward solves would make the run's
  // peak RSS depend on how they happened to overlap.
  std::vector<Truth> truths(count);
  for (std::size_t k = 0; k < count; ++k) {
    Rng unused(k);  // synthesize() also draws noise; only d_true is kept
    SyntheticEvent ev = generator.synthesize(rupture(generator, k), unused);
    truths[k].d_true = std::move(ev.d_true);
    truths[k].q_true = std::move(ev.q_true);
  }
  return truths;
}

NoiseModel network_noise(const TwinConfig& config,
                         const std::vector<Truth>& truths) {
  return relative_noise(truths.front().d_true, config.noise_level);
}

std::vector<Input> renoise(const std::vector<Truth>& truths, std::size_t count,
                           double sigma, Rng& rng) {
  std::vector<Input> inputs(count);
  for (std::size_t i = 0; i < count; ++i) {
    inputs[i].truth = i % truths.size();
    inputs[i].d_obs = truths[inputs[i].truth].d_true;
    for (double& v : inputs[i].d_obs) v += sigma * rng.normal();
  }
  return inputs;
}

std::shared_ptr<DigitalTwin> cold_build(const TwinConfig& config,
                                        const NoiseModel& noise,
                                        const std::string& bundle_path,
                                        BuildTimes& times) {
  auto twin = std::make_shared<DigitalTwin>(config);
  std::int64_t t0 = now_ns();
  {
    ScopedSpan span("wave.phase1");
    twin->run_phase1();
  }
  times.phase1 = ns_to_s(now_ns() - t0);
  t0 = now_ns();
  {
    ScopedSpan span("core.phase2");
    twin->run_phase2(noise);
  }
  times.phase2 = ns_to_s(now_ns() - t0);
  t0 = now_ns();
  {
    ScopedSpan span("core.phase3");
    twin->run_phase3();
  }
  times.phase3 = ns_to_s(now_ns() - t0);
  t0 = now_ns();
  {
    ScopedSpan span("bundle.save");
    twin->save_offline(bundle_path);
  }
  times.save = ns_to_s(now_ns() - t0);
  times.bundle_mb =
      static_cast<double>(std::filesystem::file_size(bundle_path)) /
      (1024.0 * 1024.0);
  return twin;
}

void build_in_child(const Args& args) {
  std::vector<std::string> words = {
      args.self,    "--workload", args.workload, "--seed",
      std::to_string(args.seed), "--seconds", "1", "--trace", "0",
      "--work-dir", args.work_dir, "--build-bundle", "1"};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = 0;
  if (posix_spawn(&pid, args.self.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0)
    throw std::runtime_error("could not start the bundle build");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("the bundle build failed");
}

bool bitwise_equal(const Forecast& a, const Forecast& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return same(a.mean, b.mean) && same(a.stddev, b.stddev);
}

double forecast_distance(const Forecast& a, const Forecast& b) {
  if (a.mean.size() != b.mean.size() || a.stddev.size() != b.stddev.size())
    return 1.0;
  return std::max(DigitalTwin::relative_error(a.mean, b.mean),
                  DigitalTwin::relative_error(a.stddev, b.stddev));
}

void perturb_forecast(Forecast& f) {
  if (f.mean.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &f.mean[0], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&f.mean[0], &bits, sizeof(bits));
}

void stage(const char* what) {
  static const std::int64_t start = now_ns();
  std::printf("[%7.2fs, peak RSS %6.1f MiB] %s\n", ns_to_s(now_ns() - start),
              peak_rss_mb(), what);
  std::fflush(stdout);
}

}  // namespace pb
