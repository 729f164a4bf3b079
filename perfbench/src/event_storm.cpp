// event_storm: waves of 64 concurrent events on one 8-sensor x 32-tick
// forecast-only network. Each wave opens its events, feeds them tick-major
// round-robin from one producer as fast as kBlock backpressure allows
// (closed loop), drains, and closes them. Threads: this producer and three
// pool workers.

#include <cstdio>
#include <memory>

#include "probes.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace tsunami;

namespace {

constexpr std::size_t kSensors = 8;
constexpr std::size_t kTicks = 32;
constexpr std::size_t kWave = 64;
constexpr std::size_t kBank = 512;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kMaxPending = 8;

struct StormResult {
  std::vector<Percentile> p50, p99;  ///< tick latency, one window per wave
  std::vector<double> wave_rate;     ///< ticks/s per wave
  std::size_t ticks = 0;
};

/// Waves until `seconds` have passed (at least three). A tick's latency
/// runs from its submit call to the wave's drain() returning: the first
/// moment this closed-loop producer knows it is assimilated.
StormResult storm(WarningService& service,
                  const std::shared_ptr<const CachedEngine>& engine,
                  const std::vector<Input>& bank,
                  const std::vector<Forecast>& expected, double seconds,
                  bool perturb, Report& report) {
  StormResult res;
  std::vector<EventId> ids(kWave);
  std::vector<std::int64_t> sent(kWave * kTicks);
  std::vector<double> lat(kWave * kTicks);
  const std::int64_t start = now_ns();
  std::size_t wave = 0;
  while (wave < 3 || ns_to_s(now_ns() - start) < seconds) {
    const std::size_t first = wave * kWave;
    try {
      for (std::size_t e = 0; e < kWave; ++e) {
        ScopedSpan span("service.open_event");
        ids[e] = service.open_event(engine);
      }
      const std::int64_t t_first = now_ns();
      for (std::size_t t = 0; t < kTicks; ++t)
        for (std::size_t e = 0; e < kWave; ++e) {
          const Input& in = bank[(first + e) % kBank];
          report.attempt();
          sent[e * kTicks + t] = now_ns();
          ScopedSpan span("service.submit", ids[e],
                          static_cast<std::int64_t>(t));
          service.submit(ids[e], t,
                         std::span<const double>(in.d_obs).subspan(
                             t * kSensors, kSensors));
        }
      service.drain();
      const std::int64_t drained = now_ns();
      res.wave_rate.push_back(static_cast<double>(kWave * kTicks) /
                              ns_to_s(drained - t_first));
      for (std::size_t k = 0; k < sent.size(); ++k)
        lat[k] = static_cast<double>(drained - sent[k]) * 1e-3;
      res.p50.push_back(percentile(lat, 0.50));
      res.p99.push_back(percentile(lat, 0.99));
      res.ticks += kWave * kTicks;
      for (std::size_t e = 0; e < kWave; ++e) {
        report.attempt();
        EventSnapshot snap;
        {
          ScopedSpan span("service.close_event", ids[e]);
          snap = service.close_event(ids[e]);
        }
        if (perturb && wave == 0 && e == 0) perturb_forecast(snap.forecast);
        if (snap.ticks_assimilated != kTicks ||
            !bitwise_equal(snap.forecast, expected[(first + e) % kBank]))
          report.fail("event_storm: event " + std::to_string(first + e) +
                      " differs from its serial replay");
      }
    } catch (const std::exception& e) {
      report.fail(std::string("event_storm: operation threw: ") + e.what());
      return res;
    }
    ++wave;
  }
  return res;
}

void report_storm(const StormResult& res, Report& report) {
  report.percentile("tick_latency_p50_us", median_of_windows(res.p50), 1.0,
                    "us", "submit to the wave's drain() returning");
  report.percentile("tick_latency_p99_us", median_of_windows(res.p99), 1.0,
                    "us",
                    "submit to the wave's drain() returning");
  report.metric("ticks_per_s", median(res.wave_rate), "1/s",
                "median over " + std::to_string(res.wave_rate.size()) +
                    " waves of 2048 ticks / (first submit to drain)");
}

}  // namespace

void run_event_storm(const Args& args, Report& report) {
  const TwinConfig cfg = network_config(kSensors, kTicks);
  set_workers(kWorkers);
  stage("event_storm: inputs (generator twin)");
  const std::vector<Truth> truths = synthesize_truths(cfg, 4);
  const NoiseModel noise = network_noise(cfg, truths);
  Rng rng(args.seed);
  const std::vector<Input> bank = renoise(truths, kBank, noise.sigma, rng);

  stage("event_storm: cold build of the bundle");
  BuildTimes build;
  const std::string path = args.work_dir + "/event_storm.bundle";
  // Untraced, a child process builds the bundle, so peak_rss_mb is the
  // serving process's own; traced, the layer probes need the cold twin here.
  std::shared_ptr<DigitalTwin> cold;
  if (args.trace || args.build_only)
    cold = cold_build(cfg, noise, path, build);
  else
    build_in_child(args);
  if (args.build_only) return;

  stage("event_storm: setup (warm boot to first open_event)");
  const ServiceOptions opts{.num_workers = kWorkers,
                            .max_pending_per_event = kMaxPending,
                            .backpressure = BackpressurePolicy::kBlock};
  std::vector<double> setups;
  std::shared_ptr<const CachedEngine> engine;
  for (int rep = 0; rep < (args.trace ? 1 : 21); ++rep) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    EngineCache cache({.track_map = false});  // forecast-only serving
    engine = cache.load(path);
    WarningService service(opts);
    const EventId id = service.open_event(engine);
    setups.push_back(ns_to_s(now_ns() - t0));
    (void)service.close_event(id);
  }
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) +
                    " EngineCache::load + first open_event");

  stage("event_storm: serial replays for the output checks");
  std::vector<Forecast> expected;
  for (const Input& in : bank) expected.push_back(replay(engine->engine(), in.d_obs));
  double qoi_err = 0.0;
  for (std::size_t e = 0; e < kBank; ++e)
    qoi_err += DigitalTwin::relative_error(expected[e].mean,
                                           truths[bank[e].truth].q_true);
  report.metric("qoi_rel_err", qoi_err / kBank, "1",
                "mean over the 512 inputs of the served forecast");

  if (!args.trace) {
    stage("event_storm: waves");
    WarningService service(opts);
    report_storm(storm(service, engine, bank, expected, args.seconds,
                       args.perturb, report),
                 report);
  } else {
    stage("event_storm: waves, untraced half");
    {
      WarningService service(opts);
      trace_enable(false);
      report_storm(storm(service, engine, bank, expected, args.seconds / 2,
                         args.perturb, report),
                   report);
    }
    stage("event_storm: waves, traced half");
    WarningService service(opts);
    const PoolCounters before = pool_counters();
    trace_enable(true);
    const StormResult traced =
        storm(service, engine, bank, expected, args.seconds / 2, args.perturb,
              report);
    const PoolCounters after = pool_counters();
    report.metric("trace.overhead_frac",
                  report.value("ticks_per_s") / median(traced.wave_rate) - 1.0,
                  "1", "untraced ticks_per_s over traced, minus 1");
    report_service_spans(report, "traced waves");
    report.metric("service.ticks_blocked",
                  static_cast<double>(service.telemetry().ticks_blocked),
                  "count", "telemetry delta over the traced waves");
    report_pool(before, after, traced.ticks, report, "traced waves");
    read_probe(service, engine, bank.front(), 0.2, report);
  }

  stage("event_storm: batch infer on the served twin");
  InferLoop infer(engine->twin(), bank);
  infer.run_for(0.0, 5 * 256);  // five windows of 256 calls
  report_infer(infer, report,
               "DigitalTwin::infer on the served twin, 1280 calls");
  for (std::size_t e = 0; e < kBank; ++e) {
    report.attempt();
    const double dist = forecast_distance(infer.forecasts()[e], expected[e]);
    if (!(dist <= 1e-10))
      report.fail("event_storm: infer is " + std::to_string(dist) +
                  " from the streamed forecast of input " + std::to_string(e));
  }

  if (args.trace) {
    const Ceilings ceilings = measure_ceilings();
    const ProbeContext ctx{*cold, engine->engine(), bank, build,
                           path, ceilings, kWorkers};
    run_layer_probes(ctx, report);
    report_service_ratios(report, report.value("tick_latency_p50_us"),
                          "(tick_latency_p50_us, untraced half)",
                          report.value("ticks_per_s"),
                          "(ticks_per_s, untraced half)");
  }
}

}  // namespace pb
