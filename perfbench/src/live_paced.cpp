// live_paced: four concurrent events on one 16-sensor x 48-tick network,
// fed open loop at one tick per event every 8 ms (500 ticks/s in total),
// with starts staggered a quarter window apart so ticks never align, a
// dashboard thread polling latest_forecast back-to-back, and every other
// event losing one seeded channel mid-stream. Threads: this producer, the
// reader, and two pool workers.
//
// Why 8 ms and not 2 ms: after a drop, every later push of that event costs
// about 25 us per tick index (1.2 ms at the last tick) and a drop itself up
// to 6 ms late in the window, longer than a 2 or 4 ms tick period. At those
// rates the two workers ran near saturation whenever other tenants slowed
// memory, and one seed gave a tick-latency median from 0.3 to 1.8 ms and a
// p99 from 2 to 16 ms between runs.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "probes.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace tsunami;

namespace {

constexpr std::size_t kSensors = 16;
constexpr std::size_t kTicks = 48;
constexpr std::size_t kSlots = 4;
constexpr std::size_t kBank = 512;
constexpr std::size_t kInferChecked = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::int64_t kPeriodNs = 8'000'000;  ///< per event: one tick / 8 ms
constexpr std::int64_t kWindowNs = kPeriodNs * static_cast<std::int64_t>(kTicks);
/// Slot k starts k quarter windows plus k quarter periods late, so the four
/// slots' sends interleave evenly and their tick indices differ.
constexpr std::int64_t kSlotOffsetNs = kWindowNs / 4 + kPeriodNs / 4;
constexpr std::int64_t kLatencyWindowNs = 2'400'000'000;

struct Plan {
  std::size_t entry = 0;   ///< bank input the event replays
  bool drop = false;       ///< loses `channel` right after `drop_tick`
  std::size_t channel = 0;
  std::size_t drop_tick = 0;
  std::int64_t start = 0;  ///< offset of tick 0 from the pass start
};

struct Send {
  std::int64_t due;  ///< offset from the pass start
  std::size_t event;
  std::size_t tick;
};

/// Per-event state shared by the producer and the reader.
struct LiveEvent {
  std::atomic<EventId> id{0};
  std::atomic<bool> complete{false};  ///< reader saw every tick published
  std::size_t seen = 0;               ///< reader-only
  std::int64_t start_ns = 0;          ///< absolute due time of tick 0
  Forecast final;                     ///< from close_event
  std::size_t final_ticks = 0;
  bool closed = false;
};

struct PassResult {
  std::vector<std::vector<double>> latency_us;  ///< per window of due time
  std::vector<double> lateness_us;              ///< generator lateness
  double ticks_per_s = 0.0;
  std::size_t ticks = 0;
  std::size_t reads = 0;
  double wall_s = 0.0;
};

std::vector<Plan> make_plans(double seconds, Rng& rng) {
  // Whole multiples of 20 events per slot: 40 dropout events, one full deck
  // of drop ticks (below), so every run drops at the same set of ticks.
  const double windows = seconds * 1e9 / static_cast<double>(kWindowNs);
  const std::size_t per_slot =
      20 * std::max<std::size_t>(1, static_cast<std::size_t>(
                                        std::lround(windows / 20.0)));
  std::vector<Plan> plans;
  // Drop ticks are dealt from seeded shuffles of every tick in [4, 44), so
  // each run covers the same spread of drop costs (about 1.5 ms at tick 24,
  // 6 ms at tick 40) in a seeded order.
  std::vector<std::size_t> deck;
  for (std::size_t j = 0; j < per_slot; ++j)
    for (std::size_t k = 0; k < kSlots; ++k) {
      Plan p;
      p.entry = rng.index(kBank);
      p.drop = plans.size() % 2 == 1;
      p.channel = rng.index(kSensors);
      if (p.drop) {
        if (deck.empty()) {
          for (std::size_t t = 4; t + 4 < kTicks; ++t) deck.push_back(t);
          std::shuffle(deck.begin(), deck.end(), rng.engine());
        }
        p.drop_tick = deck.back();
        deck.pop_back();
      }
      p.start = static_cast<std::int64_t>(k) * kSlotOffsetNs +
                static_cast<std::int64_t>(j) * kWindowNs;
      plans.push_back(p);
    }
  return plans;  // ascending start: slot offsets are below one window
}

class LivePass {
 public:
  LivePass(std::shared_ptr<const CachedEngine> engine,
           const std::vector<Input>& bank, std::vector<Plan> plans,
           Report& report)
      : engine_(std::move(engine)),
        bank_(bank),
        plans_(std::move(plans)),
        events_(std::make_unique<LiveEvent[]>(plans_.size())),
        report_(report) {}

  PassResult run(WarningService& service) {
    std::vector<Send> sends;
    for (std::size_t i = 0; i < plans_.size(); ++i)
      for (std::size_t t = 0; t < kTicks; ++t)
        sends.push_back({plans_[i].start + static_cast<std::int64_t>(t) *
                                               kPeriodNs,
                         i, t});
    std::sort(sends.begin(), sends.end(), [](const Send& a, const Send& b) {
      return a.due < b.due;
    });
    PassResult res;
    res.lateness_us.reserve(sends.size());
    const std::int64_t t0 = now_ns() + 5'000'000;
    t0_ = t0;
    for (std::size_t i = 0; i < plans_.size(); ++i)
      events_[i].start_ns = t0 + plans_[i].start;
    // Whole windows only: the ramp-down after the last window is dropped.
    res.latency_us.resize(std::max<std::int64_t>(
        1, sends.back().due / kLatencyWindowNs));

    std::thread reader([&] { read_loop(service, res); });
    std::vector<std::size_t> fed;  // fully submitted, not yet closed
    std::size_t next_close = 0;
    std::int64_t first_submit = 0;
    for (const Send& s : sends) {
      const std::int64_t due = t0 + s.due;
      sleep_until_ns(due);
      const std::int64_t start = now_ns();
      if (first_submit == 0) first_submit = start;
      res.lateness_us.push_back(static_cast<double>(start - due) * 1e-3);
      LiveEvent& ev = events_[s.event];
      const Plan& plan = plans_[s.event];
      try {
        if (s.tick == 0) {
          EventId id;
          {
            ScopedSpan span("service.open_event");
            id = service.open_event(engine_);
          }
          ev.id.store(id, std::memory_order_relaxed);
          opened_.store(s.event + 1, std::memory_order_release);
        }
        const EventId id = ev.id.load(std::memory_order_relaxed);
        report_.attempt();
        {
          ScopedSpan span("service.submit", id,
                          static_cast<std::int64_t>(s.tick));
          service.submit(id, s.tick,
                         std::span<const double>(bank_[plan.entry].d_obs)
                             .subspan(s.tick * kSensors, kSensors));
        }
        // Right after the submit, a worker owns the session, so the drop is
        // queued and applied by that worker between pushes, beside the data
        // path, rather than stalling this producer.
        if (plan.drop && s.tick == plan.drop_tick) {
          report_.attempt();
          ScopedSpan span("service.drop_sensor", id,
                          static_cast<std::int64_t>(s.tick));
          service.drop_sensor(id, plan.channel);
        }
      } catch (const std::exception& e) {
        report_.fail(std::string("live_paced: operation threw: ") + e.what());
      }
      if (s.tick + 1 == kTicks) fed.push_back(s.event);
      // Close, in order, the fed events the dashboard saw complete.
      while (next_close < fed.size() &&
             events_[fed[next_close]].complete.load(std::memory_order_acquire))
        close(service, fed[next_close++]);
    }
    service.drain();
    const std::int64_t drained = now_ns();
    res.ticks = sends.size();
    res.ticks_per_s =
        static_cast<double>(res.ticks) / ns_to_s(drained - first_submit);
    // The dashboard must see every event complete once drained.
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    while (next_close < fed.size() && now_ns() < deadline) {
      if (events_[fed[next_close]].complete.load(std::memory_order_acquire))
        close(service, fed[next_close++]);
      else
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop_.store(true);
    reader.join();
    for (; next_close < fed.size(); ++next_close) {
      report_.fail("live_paced: dashboard never saw event complete");
      close(service, fed[next_close]);
    }
    res.wall_s = ns_to_s(now_ns() - t0);
    return res;
  }

  [[nodiscard]] const std::vector<Plan>& plans() const { return plans_; }
  [[nodiscard]] LiveEvent& event(std::size_t i) { return events_[i]; }

 private:
  void close(WarningService& service, std::size_t i) {
    LiveEvent& ev = events_[i];
    try {
      report_.attempt();
      ScopedSpan span("service.close_event", ev.id.load());
      EventSnapshot snap = service.close_event(ev.id.load());
      ev.final = std::move(snap.forecast);
      ev.final_ticks = snap.ticks_assimilated;
      ev.closed = true;
    } catch (const std::exception& e) {
      report_.fail(std::string("live_paced: close_event threw: ") + e.what());
    }
  }

  /// The dashboard: poll every open, incomplete event back-to-back; a tick
  /// is seen when a read first shows it assimilated.
  void read_loop(WarningService& service, PassResult& res) {
    std::size_t lo = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::size_t hi = opened_.load(std::memory_order_acquire);
      for (std::size_t i = lo; i < hi; ++i) {
        LiveEvent& ev = events_[i];
        if (ev.complete.load(std::memory_order_relaxed)) continue;
        const EventId id = ev.id.load(std::memory_order_relaxed);
        std::size_t n = 0;
        try {
          // One read in 32 carries a span: the dashboard reads about a
          // million times a second.
          std::optional<ScopedSpan> span;
          if (res.reads % 32 == 0) span.emplace("service.latest_forecast", id);
          n = service.latest_forecast(id).ticks_assimilated;
        } catch (const std::exception& e) {
          report_.fail(std::string("live_paced: latest_forecast threw: ") +
                       e.what());
          ev.complete.store(true, std::memory_order_release);
          continue;
        }
        ++res.reads;
        const std::int64_t seen_at = now_ns();
        for (; ev.seen < n; ++ev.seen) {
          const std::int64_t due =
              ev.start_ns + static_cast<std::int64_t>(ev.seen) * kPeriodNs;
          const auto w = static_cast<std::size_t>((due - t0_) / kLatencyWindowNs);
          if (w < res.latency_us.size())
            res.latency_us[w].push_back(static_cast<double>(seen_at - due) *
                                        1e-3);
        }
        if (n == kTicks) ev.complete.store(true, std::memory_order_release);
      }
      while (lo < hi && events_[lo].complete.load(std::memory_order_relaxed))
        ++lo;
      // Back-to-back, but a runnable producer or worker goes first.
      std::this_thread::yield();
    }
  }

  std::shared_ptr<const CachedEngine> engine_;
  const std::vector<Input>& bank_;
  std::vector<Plan> plans_;
  std::unique_ptr<LiveEvent[]> events_;
  Report& report_;
  std::atomic<std::size_t> opened_{0};
  std::atomic<bool> stop_{false};
  std::int64_t t0_ = 0;
};

/// Check every event of a pass: healthy events bitwise against a serial
/// replay, dropout events against a replay on the reduced engine.
class Checker {
 public:
  Checker(const DigitalTwin& twin, const StreamingEngine& engine,
          const std::vector<Input>& bank)
      : engine_(engine),
        bank_(bank),
        base_(twin.make_streaming({.track_map = false})) {}

  const Forecast& healthy(std::size_t entry) {
    auto it = healthy_.find(entry);
    if (it == healthy_.end())
      it = healthy_.emplace(entry, replay(engine_, bank_[entry].d_obs)).first;
    return it->second;
  }

  void check(LivePass& pass, bool perturb, Report& report) {
    for (std::size_t i = 0; i < pass.plans().size(); ++i) {
      const Plan& plan = pass.plans()[i];
      LiveEvent& ev = pass.event(i);
      report.attempt();
      if (!ev.closed) continue;  // already counted as failed
      if (ev.final_ticks != kTicks) {
        report.fail("live_paced: event closed with " +
                    std::to_string(ev.final_ticks) + " ticks");
        continue;
      }
      if (!plan.drop) {
        if (perturb) {
          perturb_forecast(ev.final);
          perturb = false;
        }
        if (!bitwise_equal(ev.final, healthy(plan.entry)))
          report.fail("live_paced: healthy event " + std::to_string(i) +
                      " differs from its serial replay");
        continue;
      }
      const std::string key = std::to_string(plan.entry) + "/" +
                              std::to_string(plan.channel);
      auto it = dropped_.find(key);
      if (it == dropped_.end())
        it = dropped_.emplace(key, replay(reduced(plan.channel),
                                          bank_[plan.entry].d_obs)).first;
      const double dist = forecast_distance(ev.final, it->second);
      if (!(dist <= 1e-10))
        report.fail("live_paced: dropout event " + std::to_string(i) +
                    " is " + std::to_string(dist) +
                    " from the reduced-network replay");
    }
  }

 private:
  const StreamingEngine& reduced(std::size_t channel) {
    auto it = reduced_.find(channel);
    if (it == reduced_.end()) {
      SensorMask mask(kSensors);
      mask.drop(channel);
      it = reduced_.emplace(channel, base_.reduced(mask)).first;
    }
    return it->second;
  }

  const StreamingEngine& engine_;
  const std::vector<Input>& bank_;
  StreamingEngine base_;  ///< forecast-only engine the oracles reduce
  std::map<std::size_t, Forecast> healthy_;
  std::map<std::string, Forecast> dropped_;
  std::map<std::size_t, StreamingEngine> reduced_;
};

void report_pass(const PassResult& res, Report& report) {
  report.percentile("tick_latency_p50_us",
                    windowed_percentile(res.latency_us, 0.50), 1.0, "us",
                    "scheduled send to first dashboard read showing it; "
                    "2.4 s windows");
  report.percentile("tick_latency_p99_us",
                    windowed_percentile(res.latency_us, 0.99), 1.0, "us",
                    "scheduled send to first dashboard read showing it; "
                    "2.4 s windows");
  report.metric("ticks_per_s", res.ticks_per_s, "1/s",
                std::to_string(res.ticks) +
                    " ticks, first submit to drain returning; offered " +
                    std::to_string(static_cast<std::int64_t>(kSlots) * 1'000'000'000 /
                                   kPeriodNs) + "/s");
  std::printf("  generator lateness: p50 %.1f us, p99 %.1f us over %zu sends\n",
              quantile(res.lateness_us, 0.5), quantile(res.lateness_us, 0.99),
              res.lateness_us.size());
  std::printf("  per-window tick latency p50 / p99 (us):");
  for (const auto& w : res.latency_us)
    std::printf(" %.0f/%.0f", quantile(w, 0.5), quantile(w, 0.99));
  std::printf("\n");
}

}  // namespace

void run_live_paced(const Args& args, Report& report) {
  const TwinConfig cfg = network_config(kSensors, kTicks);
  stage("live_paced: inputs (generator twin)");
  set_workers(3);  // the build has no producer or reader yet
  const std::vector<Truth> truths = synthesize_truths(cfg, 4);
  const NoiseModel noise = network_noise(cfg, truths);
  Rng rng(args.seed);
  const std::vector<Input> bank = renoise(truths, kBank, noise.sigma, rng);

  stage("live_paced: cold build of the bundle");
  BuildTimes build;
  const std::string path = args.work_dir + "/live_paced.bundle";
  // Untraced, a child process builds the bundle, so peak_rss_mb is the
  // serving process's own; traced, the layer probes need the cold twin here.
  std::shared_ptr<DigitalTwin> cold;
  if (args.trace || args.build_only)
    cold = cold_build(cfg, noise, path, build);
  else
    build_in_child(args);
  if (args.build_only) return;
  set_workers(kWorkers);

  stage("live_paced: setup (warm boot to first open_event)");
  const ServiceOptions opts{.num_workers = kWorkers};
  std::vector<double> setups;
  std::shared_ptr<const CachedEngine> engine;
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    EngineCache cache;  // tracks the MAP, as warning_center does
    engine = cache.load(path);
    WarningService service(opts);
    const EventId id = service.open_event(engine);
    setups.push_back(ns_to_s(now_ns() - t0));
    (void)service.close_event(id);
  }
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) +
                    " EngineCache::load + first open_event");

  Checker checker(engine->twin(), engine->engine(), bank);
  const auto pass = [&](double seconds, bool traced) {
    LivePass p(engine, bank, make_plans(seconds, rng), report);
    WarningService service(opts);
    const PoolCounters before = pool_counters();
    trace_enable(traced);
    const PassResult res = p.run(service);
    trace_enable(args.trace);
    const PoolCounters after = pool_counters();
    checker.check(p, args.perturb, report);
    return std::make_tuple(res, before, after,
                           service.telemetry().ticks_blocked);
  };

  PassResult main;
  if (!args.trace) {
    stage("live_paced: paced run");
    main = std::get<0>(pass(args.seconds, false));
    report_pass(main, report);
  } else {
    stage("live_paced: paced run, untraced half");
    main = std::get<0>(pass(args.seconds / 2, false));
    report_pass(main, report);
    const double base_p50 = report.value("tick_latency_p50_us");
    stage("live_paced: paced run, traced half");
    const auto [traced, before, after, blocked] = pass(args.seconds / 2, true);
    const Percentile p50 = windowed_percentile(traced.latency_us, 0.50);
    report.metric("trace.overhead_frac", p50.value / base_p50 - 1.0, "1",
                  "traced tick_latency_p50_us over untraced, minus 1");
    report_service_spans(report, "traced paced run");
    const std::vector<double> reads =
        span_durations_us("service.latest_forecast");
    report.metric("service.read_us", median(reads), "us",
                  "median of " + std::to_string(reads.size()) +
                      " dashboard latest_forecast calls during the run "
                      "(one read in 32 sampled)");
    report.metric("service.reads_per_s",
                  static_cast<double>(traced.reads) / traced.wall_s, "1/s",
                  "dashboard reads over the traced run's wall time");
    report.metric("service.ticks_blocked", static_cast<double>(blocked),
                  "count", "telemetry delta over the traced run");
    report_pool(before, after, traced.ticks, report, "traced paced run");
  }

  stage("live_paced: batch infer on the served twin");
  InferLoop infer(engine->twin(), bank);
  infer.run_for(0.0, 5 * 256);  // five windows of 256 calls
  report_infer(infer, report,
               "DigitalTwin::infer on the served twin, 1280 calls");
  for (std::size_t e = 0; e < kInferChecked; ++e) {
    report.attempt();
    const double dist =
        forecast_distance(infer.forecasts()[e], checker.healthy(e));
    if (!(dist <= 1e-10))
      report.fail("live_paced: infer is " + std::to_string(dist) +
                  " from the streamed forecast of input " + std::to_string(e));
  }
  report.metric("qoi_rel_err", mean_qoi_error(infer.forecasts(), bank, truths),
                "1",
                "mean over the 512 inputs; infer matches the served forecast "
                "to 1e-10 (checked on 64)");

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
