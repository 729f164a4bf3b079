// The repository benchmark. One run of one workload:
//
//   perfbench --workload <live_paced|event_storm|cold_start_batch>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans around
// the benchmark's calls into each layer and reports the per-layer metrics.
// Every run checks the program's outputs. The last line of standard output
// is the JSON result. perfbench/run.py builds this program and runs it.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace pb {

const std::vector<std::string>& end_to_end_metrics() {
  // tick_latency_p99_us and infer_p95_ms are measured and printed on every
  // run but are not part of the result: on a shared 4-core VM both came out
  // bimodal between runs (one mode about twice the other), wider than any
  // bound the result allows.
  static const std::vector<std::string> names = {
      "setup_s",      "tick_latency_p50_us", "ticks_per_s",
      "infer_p50_ms", "qoi_rel_err",         "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> names = {
      "core.push_us",
      "core.push_gbps",
      "core.push_frac_bw",
      "core.push_degraded_us",
      "core.drop_sensor_us",
      "core.drop_sensor_late_us",
      "core.forecast_into_us",
      "core.push_many_us_per_event",
      "core.serial_ticks_per_s",
      "core.engine_precompute_s",
      "core.phase2_s",
      "core.phase3_s",
      "linalg.rank_update_us",
      "linalg.forward_solve_us",
      "linalg.factor_s",
      "linalg.factor_gflops",
      "toeplitz.apply_us",
      "toeplitz.apply_transpose_us",
      "toeplitz.apply_frac_peak",
      "prior.apply_us",
      "wave.phase1_s",
      "wave.adjoint_solve_s",
      "wave.generator_apply_us",
      "service.submit_p50_us",
      "service.submit_p99_us",
      "service.open_close_us",
      "service.read_us",
      "service.reads_per_s",
      "service.overhead_us",
      "service.vs_serial",
      "service.ticks_blocked",
      "pool.jobs_per_tick",
      "pool.busy_frac",
      "pool.steals",
      "pool.infer_speedup",
      "bundle.save_s",
      "bundle.load_s",
      "bundle.mb",
      "machine.triad_gbps",
      "machine.triad_gbps_1t",
      "machine.fma_gflops",
      "machine.fma_gflops_1t",
      "trace.overhead_frac"};
  return names;
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <live_paced|event_storm|"
               "cold_start_batch> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--perturb 1]\n");
  return 64;
}

}  // namespace

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(val.c_str());
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--perturb") args.perturb = val == "1";
    else if (key == "--work-dir") args.work_dir = val;
    else if (key == "--build-bundle") args.build_only = val == "1";
    else return usage();
  }
  if (args.work_dir.empty() || !(args.seconds > 0.0)) return usage();
  args.self = argv[0];
  // A fixed mmap threshold: blocks of 256 KiB and more are mapped and
  // returned on free, so peak_rss_mb follows live memory rather than
  // glibc's run-dependent dynamic threshold and heap fragmentation.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::filesystem::create_directories(args.work_dir);

  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  trace_enable(args.trace);
  try {
    if (args.workload == "live_paced") run_live_paced(args, report);
    else if (args.workload == "event_storm") run_event_storm(args, report);
    else if (args.workload == "cold_start_batch") run_cold_start_batch(args, report);
    else return usage();
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  if (args.build_only) return 0;
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB", "getrusage maximum RSS");
  if (args.trace) {
    trace_enable(false);
    trace_write(args.work_dir + "/trace_" + args.workload + "_" +
                std::to_string(args.seed) + ".json");
  }
  for (const auto& entry : std::filesystem::directory_iterator(args.work_dir))
    if (entry.path().extension() == ".bundle")
      std::filesystem::remove(entry.path());
  return report.emit(args.trace ? per_layer_metrics() : end_to_end_metrics());
}
