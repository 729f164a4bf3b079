// cold_start_batch: a 24-sensor x 48-tick network built from scratch —
// Phases 1-3 with the Phase 1 adjoint solves in parallel, the streaming
// engine precompute, and a save_offline / load_offline round trip — then the
// paper's batch online phase: DigitalTwin::infer on a few hundred noisy
// full-window vectors, one at a time. Threads: this one and three pool
// workers.

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "probes.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace tsunami;

namespace {

constexpr std::size_t kSensors = 24;
constexpr std::size_t kTicks = 48;
constexpr std::size_t kInputs = 512;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kRounds = 10;
constexpr std::size_t kStreamedPerRound = 6;  ///< streaming replays per round
constexpr std::size_t kWarmChecked = 8;
constexpr std::size_t kProbeEvents = 32;  ///< 1536 submits: a p99 with 15 beyond

/// One complete cold start: everything between an empty process and a
/// warm-booted twin ready to infer.
struct ColdStart {
  std::shared_ptr<DigitalTwin> cold;
  std::unique_ptr<StreamingEngine> engine;  ///< over *cold
  std::shared_ptr<DigitalTwin> warm;
  BuildTimes build;
  double seconds = 0.0;
};

ColdStart cold_start(const TwinConfig& cfg, const NoiseModel& noise,
                     const std::string& path) {
  ColdStart cs;
  const std::int64_t t0 = now_ns();
  cs.cold = cold_build(cfg, noise, path, cs.build);
  {
    ScopedSpan span("core.engine_precompute");
    cs.engine = std::make_unique<StreamingEngine>(cs.cold->make_streaming());
  }
  {
    ScopedSpan span("bundle.load");
    cs.warm = std::make_shared<DigitalTwin>(DigitalTwin::load_offline(path));
  }
  cs.seconds = ns_to_s(now_ns() - t0);
  return cs;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One closed-loop wave of events through a WarningService over the twin,
/// for the service and pool layer metrics of this workload. Returns the
/// wave's ticks per second.
double service_probe(const std::shared_ptr<DigitalTwin>& twin,
                   const std::vector<Input>& inputs, Report& report) {
  EngineCache cache;
  const auto engine = cache.adopt(twin);
  WarningService service({.num_workers = kWorkers,
                          .max_pending_per_event = 8,
                          .backpressure = BackpressurePolicy::kBlock});
  std::vector<EventId> ids;
  for (std::size_t e = 0; e < kProbeEvents; ++e) {
    ScopedSpan span("service.open_event");
    ids.push_back(service.open_event(engine));
  }
  const PoolCounters before = pool_counters();
  const std::int64_t t0 = now_ns();
  for (std::size_t t = 0; t < kTicks; ++t)
    for (std::size_t e = 0; e < kProbeEvents; ++e) {
      ScopedSpan span("service.submit", ids[e], static_cast<std::int64_t>(t));
      service.submit(ids[e], t,
                     std::span<const double>(inputs[e].d_obs)
                         .subspan(t * kSensors, kSensors));
    }
  service.drain();
  const double rate =
      static_cast<double>(kProbeEvents * kTicks) / ns_to_s(now_ns() - t0);
  const PoolCounters after = pool_counters();
  for (const EventId id : ids) {
    ScopedSpan span("service.close_event", id);
    (void)service.close_event(id);
  }
  report_service_spans(report, "service probe: one wave of 32 events");
  report.metric("service.ticks_blocked",
                static_cast<double>(service.telemetry().ticks_blocked),
                "count", "telemetry delta over the service probe");
  report_pool(before, after, kProbeEvents * kTicks, report,
              "service probe: one wave of 32 events");
  read_probe(service, engine, inputs.front(), 0.2, report);
  return rate;
}

}  // namespace

void run_cold_start_batch(const Args& args, Report& report) {
  const TwinConfig cfg = network_config(kSensors, kTicks);
  set_workers(kWorkers);
  stage("cold_start_batch: inputs (generator twin)");
  const std::vector<Truth> truths = synthesize_truths(cfg, 4);
  const NoiseModel noise = network_noise(cfg, truths);
  Rng rng(args.seed);
  const std::vector<Input> inputs = renoise(truths, kInputs, noise.sigma, rng);

  const std::string path = args.work_dir + "/cold_start_batch.bundle";
  std::vector<double> setups;
  ColdStart cs;
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) {
    stage("cold_start_batch: setup (cold build, precompute, bundle round trip)");
    cs.engine.reset();  // release the previous build first, engine before twin
    cs.cold.reset();
    cs.warm.reset();
    // Hand freed heap pages back, so each cold start begins from the same
    // footprint and peak_rss_mb does not stack allocator leftovers.
    malloc_trim(0);
    cs = cold_start(cfg, noise, path);
    setups.push_back(cs.seconds);
  }
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) +
                    " complete cold starts");

  // The run alternates rounds of timed infer calls with streaming replays,
  // so both are sampled across the whole run.
  InferLoop infer(*cs.warm, inputs);
  std::vector<double> latency_us;
  std::vector<double> round_rate;  ///< streamed ticks per second, per round
  const auto measure = [&](double seconds) {
    Forecast fc;
    for (std::size_t round = 0; round < kRounds; ++round) {
      infer.run_for(seconds / kRounds);
      double stream_s = 0.0;
      for (std::size_t k = 0; k < kStreamedPerRound; ++k) {
        const Input& in = inputs[(round * kStreamedPerRound + k) % kInputs];
        StreamingAssimilator a = cs.engine->start();
        for (std::size_t t = 0; t < kTicks; ++t) {
          const std::int64_t t0 = now_ns();
          a.push(t, std::span<const double>(in.d_obs)
                        .subspan(t * kSensors, kSensors));
          a.forecast_into(fc);
          const std::int64_t dt = now_ns() - t0;
          stream_s += ns_to_s(dt);
          latency_us.push_back(static_cast<double>(dt) * 1e-3);
        }
        report.attempt();
        const double dist =
            forecast_distance(cs.warm->infer(in.d_obs).forecast, fc);
        if (!(dist <= 1e-10))
          report.fail("cold_start_batch: infer is " + std::to_string(dist) +
                      " from the streamed forecast");
      }
      round_rate.push_back(static_cast<double>(kStreamedPerRound * kTicks) /
                           stream_s);
    }
    if (infer.calls() < 256) infer.run_for(0.0, 256 - infer.calls());
  };
  stage(args.trace ? "cold_start_batch: batch infer and streaming, untraced half"
                   : "cold_start_batch: batch infer and streaming replays");
  trace_enable(false);
  measure(args.trace ? args.seconds / 2 : args.seconds);
  trace_enable(args.trace);
  report_infer(infer, report,
               "warm-booted twin, " + std::to_string(infer.calls()) +
                   " calls in 10 rounds over the run");
  report.percentile("tick_latency_p50_us", percentile(latency_us, 0.50), 1.0,
                    "us", "push + forecast_into, no service");
  report.percentile("tick_latency_p99_us", percentile(latency_us, 0.99), 1.0,
                    "us", "push + forecast_into, no service");
  report.metric("ticks_per_s", median(round_rate), "1/s",
                "streaming replays, one thread; median over the 10 rounds of "
                "6 replays each");
  infer.finish_pass();
  report.metric("qoi_rel_err",
                mean_qoi_error(infer.forecasts(), inputs, truths), "1",
                "mean over the 512 inputs");
  if (args.trace) {
    stage("cold_start_batch: batch infer, traced half");
    InferLoop traced(*cs.warm, inputs);
    traced.run_for(args.seconds / 2, 256);
    report.metric("trace.overhead_frac",
                  median(traced.ms()) / report.value("infer_p50_ms") - 1.0,
                  "1", "traced infer_p50_ms over untraced, minus 1");
  }

  stage("cold_start_batch: warm twin against cold twin");
  for (std::size_t i = 0; i < kWarmChecked; ++i) {
    report.attempt();
    const InversionResult a = cs.cold->infer(inputs[i].d_obs);
    InversionResult b = cs.warm->infer(inputs[i].d_obs);
    if (args.perturb && i == 0) perturb_forecast(b.forecast);
    if (!same_bits(a.m_map, b.m_map) || !bitwise_equal(a.forecast, b.forecast))
      report.fail("cold_start_batch: warm twin differs from cold twin on "
                  "input " + std::to_string(i));
  }

  if (args.trace) {
    stage("cold_start_batch: service probe");
    const double rate = service_probe(cs.warm, inputs, report);
    const Ceilings ceilings = measure_ceilings();
    const ProbeContext ctx{*cs.cold, *cs.engine, inputs, cs.build,
                           path, ceilings, kWorkers};
    run_layer_probes(ctx, report);
    report_service_ratios(report, report.value("tick_latency_p50_us"),
                          "(tick_latency_p50_us, streaming replays without "
                          "the service)",
                          rate, "(service probe wave)");
  }
}

}  // namespace pb
