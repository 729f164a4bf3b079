#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "linalg/dense_cholesky.hpp"
#include "parallel/thread_pool.hpp"

namespace pb {

using namespace tsunami;

namespace {

/// Call f(i) at least `min_reps` times and until `min_s` seconds passed.
template <typename F>
std::size_t repeat_for(double min_s, std::size_t min_reps, F&& f) {
  const std::int64_t t0 = now_ns();
  std::size_t i = 0;
  while (i < min_reps || ns_to_s(now_ns() - t0) < min_s) f(i++);
  return i;
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

std::span<const double> block(const std::vector<double>& d, std::size_t t,
                              std::size_t nd) {
  return std::span<const double>(d).subspan(t * nd, nd);
}

/// Bytes one push at `tick` streams: the new rows of L up to the diagonal,
/// the tick's rows of R (and of W* when the MAP is tracked), the prefix of
/// z, and the rolling accumulators read and written.
double push_bytes(const StreamingEngine& e, std::size_t tick) {
  const double nd = static_cast<double>(e.block_size());
  const double p0 = static_cast<double>(tick) * nd;
  const double p1 = p0 + nd;
  const double l_entries = nd * (p0 + p1 + 1.0) / 2.0;
  const double nq = static_cast<double>(e.qoi_dim());
  const double np = e.tracks_map() ? static_cast<double>(e.parameter_dim()) : 0;
  return 8.0 * (l_entries + p1 + nd * (nq + np) + 2.0 * (nq + np));
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ---- core: the streaming kernels --------------------------------------------

void probe_push(const ProbeContext& ctx, Report& report) {
  const StreamingEngine& eng = ctx.engine;
  const std::size_t nt = eng.num_ticks(), nd = eng.block_size();
  Forecast fc;
  double bytes = 0.0;
  repeat_for(0.3, 2, [&](std::size_t i) {
    const Input& in = ctx.inputs[i % ctx.inputs.size()];
    StreamingAssimilator a = eng.start();
    for (std::size_t t = 0; t < nt; ++t) {
      {
        ScopedSpan span("core.push", i + 1, static_cast<std::int64_t>(t));
        a.push(t, block(in.d_obs, t, nd));
      }
      ScopedSpan span("core.forecast_into", i + 1, static_cast<std::int64_t>(t));
      a.forecast_into(fc);
    }
  });
  const std::vector<double> push_us = span_durations_us("core.push");
  const std::size_t replays = push_us.size() / nt;
  for (std::size_t t = 0; t < nt; ++t) bytes += push_bytes(eng, t);
  bytes *= static_cast<double>(replays);
  double total_s = 0.0;
  for (const double us : push_us) total_s += us * 1e-6;
  const double gbps = bytes / total_s * 1e-9;
  report.metric("core.push_us", median(push_us), "us",
                fmt("median of %.0f pushes (private replays)",
                    static_cast<double>(push_us.size())));
  report.metric("core.push_gbps", gbps, "GB/s",
                "computed slab/factor bytes over measured push time");
  report.metric("core.push_frac_bw", gbps / ctx.ceilings.triad_gbps_1t, "1",
                fmt("computed; base machine.triad_gbps_1t = %.3g GB/s",
                    ctx.ceilings.triad_gbps_1t));
  const std::vector<double> fc_us = span_durations_us("core.forecast_into");
  report.metric("core.forecast_into_us", median(fc_us), "us",
                fmt("median of %.0f calls", static_cast<double>(fc_us.size())));

  // Single-thread plain replay of the workload's events: push only.
  std::size_t ticks = 0;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("core.serial_replay");
    repeat_for(0.3, std::min<std::size_t>(ctx.inputs.size(), 64),
               [&](std::size_t i) {
                 const Input& in = ctx.inputs[i % ctx.inputs.size()];
                 StreamingAssimilator a = eng.start();
                 for (std::size_t t = 0; t < nt; ++t)
                   a.push(t, block(in.d_obs, t, nd));
                 ticks += nt;
               });
  }
  report.metric("core.serial_ticks_per_s",
                static_cast<double>(ticks) / ns_to_s(now_ns() - t0), "1/s",
                fmt("%.0f ticks, one thread", static_cast<double>(ticks)));
}

void probe_push_many(const ProbeContext& ctx, Report& report) {
  constexpr std::size_t kEvents = 16;
  const StreamingEngine& eng = ctx.engine;
  const std::size_t nt = eng.num_ticks(), nd = eng.block_size();
  repeat_for(0.3, 2, [&](std::size_t rep) {
    std::vector<StreamingAssimilator> events;
    events.reserve(kEvents);
    std::vector<StreamingAssimilator*> ptrs;
    for (std::size_t k = 0; k < kEvents; ++k) {
      events.push_back(eng.start());
      ptrs.push_back(&events.back());
    }
    std::vector<std::span<const double>> blocks(kEvents);
    for (std::size_t t = 0; t < nt; ++t) {
      for (std::size_t k = 0; k < kEvents; ++k)
        blocks[k] = block(
            ctx.inputs[(rep * kEvents + k) % ctx.inputs.size()].d_obs, t, nd);
      ScopedSpan span("core.push_many", rep + 1, static_cast<std::int64_t>(t));
      StreamingAssimilator::push_many(ptrs, t, blocks);
    }
  });
  const std::vector<double> us = span_durations_us("core.push_many");
  report.metric("core.push_many_us_per_event",
                median(us) / static_cast<double>(kEvents), "us",
                fmt("median of %.0f push_many calls at K=16, divided by 16",
                    static_cast<double>(us.size())));
}

void probe_degraded(const ProbeContext& ctx, Report& report) {
  const StreamingEngine& eng = ctx.engine;
  const std::size_t nt = eng.num_ticks(), nd = eng.block_size();
  // A drop at tick `at`, then the pushes after it.
  const auto drop_at = [&](std::size_t at, const char* drop_span) {
    repeat_for(0.3, 4, [&](std::size_t i) {
      const Input& in = ctx.inputs[i % ctx.inputs.size()];
      StreamingAssimilator a = eng.start();
      std::size_t t = 0;
      for (; t < at; ++t) a.push(t, block(in.d_obs, t, nd));
      {
        ScopedSpan span(drop_span, i + 1, static_cast<std::int64_t>(t));
        a.drop_sensor(i % nd);
      }
      for (; t < nt; ++t) {
        ScopedSpan span("core.push_degraded", i + 1,
                        static_cast<std::int64_t>(t));
        a.push(t, block(in.d_obs, t, nd));
      }
    });
  };
  drop_at(nt / 2, "core.drop_sensor");
  const std::vector<double> push = span_durations_us("core.push_degraded");
  drop_at(nt - nt / 6, "core.drop_sensor_late");
  const std::vector<double> drop = span_durations_us("core.drop_sensor");
  const std::vector<double> late = span_durations_us("core.drop_sensor_late");
  report.metric("core.drop_sensor_us", median(drop), "us",
                fmt("median of %.0f drops at tick Nt/2",
                    static_cast<double>(drop.size())));
  report.metric("core.drop_sensor_late_us", median(late), "us",
                fmt("median of %.0f drops at tick %.0f (5/6 of the window)",
                    static_cast<double>(late.size()),
                    static_cast<double>(nt - nt / 6)));
  report.metric("core.push_degraded_us", median(push), "us",
                fmt("median of %.0f pushes with one channel dropped",
                    static_cast<double>(push.size())));
}

void probe_precompute(const ProbeContext& ctx, Report& report) {
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("core.engine_precompute");
    const StreamingEngine e = ctx.cold.make_streaming(ctx.engine.options());
  }
  report.metric("core.engine_precompute_s", ns_to_s(now_ns() - t0), "s",
                ctx.engine.tracks_map() ? "one build, MAP tracked"
                                        : "one build, forecast only");
}

// ---- linalg, toeplitz, prior, wave ---------------------------------------------

void probe_linalg(const ProbeContext& ctx, Report& report) {
  Rng rng(7);
  const DenseCholesky& chol = ctx.cold.hessian().cholesky();
  const std::size_t n = chol.dim();
  {
    DenseCholesky copy = DenseCholesky::from_factor(chol.factor());
    repeat_for(0.1, 10, [&](std::size_t) {
      std::vector<double> u = random_vector(n, rng);
      for (double& x : u) x *= 1e-3;
      ScopedSpan span("linalg.rank_update");
      copy.rank_update(u);
    });
  }
  const std::vector<double> rank = span_durations_us("linalg.rank_update");
  report.metric("linalg.rank_update_us", median(rank), "us",
                fmt("median of %.0f rank-1 updates, n = %.0f",
                    static_cast<double>(rank.size()), static_cast<double>(n)));

  const std::vector<double> rhs = random_vector(n, rng);
  std::vector<double> b(n);
  repeat_for(0.1, 10, [&](std::size_t) {
    b = rhs;
    ScopedSpan span("linalg.forward_solve");
    chol.forward_solve_in_place(b);
  });
  const std::vector<double> fs = span_durations_us("linalg.forward_solve");
  report.metric("linalg.forward_solve_us", median(fs), "us",
                fmt("median of %.0f full-length solves",
                    static_cast<double>(fs.size())));

  const Matrix& k = ctx.cold.hessian().matrix();
  for (int rep = 0; rep < 3; ++rep) {
    Matrix copy = k;
    ScopedSpan span("linalg.factor");
    const DenseCholesky f(copy);
  }
  const double factor_s = median(span_durations_us("linalg.factor")) * 1e-6;
  const double nn = static_cast<double>(n);
  report.metric("linalg.factor_s", factor_s, "s",
                "median of 3 factorizations of a copy of K");
  report.metric("linalg.factor_gflops", nn * nn * nn / 3.0 / factor_s * 1e-9,
                "GFLOP/s", "computed n^3/3 flops");
}

void probe_toeplitz(const ProbeContext& ctx, Report& report) {
  Rng rng(11);
  const BlockToeplitz& f = *ctx.cold.p2o().toeplitz;
  const std::vector<double> x = random_vector(f.input_dim(), rng);
  const std::vector<double> xt = random_vector(f.output_dim(), rng);
  std::vector<double> y(f.output_dim()), yt(f.input_dim());
  ToeplitzWorkspace ws;
  f.apply(x, y, ws);  // grow the workspace before timing
  f.apply_transpose(xt, yt, ws);
  repeat_for(0.2, 10, [&](std::size_t) {
    ScopedSpan span("toeplitz.apply");
    f.apply(x, y, ws);
  });
  repeat_for(0.2, 10, [&](std::size_t) {
    ScopedSpan span("toeplitz.apply_transpose");
    f.apply_transpose(xt, yt, ws);
  });
  const double apply_us = median(span_durations_us("toeplitz.apply"));
  const double rows = static_cast<double>(f.block_rows());
  const double cols = static_cast<double>(f.block_cols());
  const double nt = static_cast<double>(f.num_blocks());
  const double len = static_cast<double>(next_pow2(2 * f.num_blocks()));
  const double nfreq = len / 2.0 + 1.0;
  const double flops =
      2.5 * len * std::log2(len) * (rows + cols) + 8.0 * nfreq * rows * cols;
  const double bytes = static_cast<double>(f.storage_bytes()) +
                       8.0 * nt * (rows + cols) + 32.0 * nfreq * (rows + cols);
  const double gflops = flops / (apply_us * 1e-6) * 1e-9;
  const double attainable =
      std::min(ctx.ceilings.fma_gflops,
               flops / bytes * ctx.ceilings.triad_gbps);
  report.metric("toeplitz.apply_us", apply_us, "us",
                fmt("median; computed %.3g flop and %.3g bytes per apply",
                    flops, bytes));
  report.metric("toeplitz.apply_transpose_us",
                median(span_durations_us("toeplitz.apply_transpose")), "us",
                "median");
  report.metric("toeplitz.apply_frac_peak", gflops / attainable, "1",
                fmt("computed %.3g GFLOP/s over roofline %.3g GFLOP/s "
                    "(pool-wide ceilings)",
                    gflops, attainable));
}

void probe_prior_wave(const ProbeContext& ctx, Report& report) {
  Rng rng(13);
  const std::size_t nt = ctx.cold.time_grid().num_intervals;
  const std::vector<double> m = random_vector(ctx.cold.parameter_dim(), rng);
  std::vector<double> out(m.size());
  ctx.cold.prior().apply_time_blocks(m, out, nt);
  repeat_for(0.2, 10, [&](std::size_t) {
    ScopedSpan span("prior.apply");
    ctx.cold.prior().apply_time_blocks(m, out, nt);
  });
  report.metric("prior.apply_us", median(span_durations_us("prior.apply")),
                "us", "median of Gamma_prior on one space-time vector");

  const AcousticGravityModel& model = ctx.cold.model();
  const std::vector<double> y = random_vector(model.state_dim(), rng);
  std::vector<double> g(y.size());
  repeat_for(0.2, 10, [&](std::size_t) {
    ScopedSpan span("wave.generator_apply");
    model.apply_generator(y, g);
  });
  report.metric("wave.generator_apply_us",
                median(span_durations_us("wave.generator_apply")), "us",
                fmt("median; state dimension %.0f",
                    static_cast<double>(model.state_dim())));
}

void report_build(const ProbeContext& ctx, Report& report) {
  const TwinConfig& c = ctx.cold.config();
  const double solves = static_cast<double>(c.num_sensors + c.num_gauges);
  report.metric("wave.phase1_s", ctx.build.phase1, "s",
                "Phase 1 of the workload's own cold build");
  report.metric("wave.adjoint_solve_s", ctx.build.phase1 / solves, "s",
                fmt("phase 1 divided by Nd+Nq = %.0f solves", solves));
  report.metric("core.phase2_s", ctx.build.phase2, "s", "form + factor K");
  report.metric("core.phase3_s", ctx.build.phase3, "s", "Gamma_post(q) + Q");
  report.metric("bundle.save_s", ctx.build.save, "s", "save_offline");
  report.metric("bundle.mb", ctx.build.bundle_mb, "MiB", "bundle file size");
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("bundle.load");
    const DigitalTwin warm = DigitalTwin::load_offline(ctx.bundle_path);
  }
  report.metric("bundle.load_s", ns_to_s(now_ns() - t0), "s", "load_offline");
}

void probe_infer_speedup(const ProbeContext& ctx, Report& report) {
  const std::size_t calls = std::min<std::size_t>(ctx.inputs.size(), 24);
  const auto time_calls = [&](const char* name) {
    for (std::size_t i = 0; i < calls; ++i) {
      ScopedSpan span(name);
      const InversionResult r = ctx.cold.infer(ctx.inputs[i].d_obs);
    }
    return median(span_durations_us(name));
  };
  set_workers(1);
  const double one = time_calls("pool.infer_1_worker");
  set_workers(ctx.workers);
  const double many = time_calls("pool.infer_n_workers");
  report.metric("pool.infer_speedup", one / many, "1",
                fmt("infer median at 1 worker (%.4g ms) over %.0f workers "
                    "(%.4g ms)",
                    one * 1e-3, static_cast<double>(ctx.workers), many * 1e-3));
}

}  // namespace

void run_layer_probes(const ProbeContext& ctx, Report& report) {
  stage("layer probes: core");
  probe_push(ctx, report);
  probe_push_many(ctx, report);
  probe_degraded(ctx, report);
  probe_precompute(ctx, report);
  stage("layer probes: linalg, toeplitz, prior, wave");
  probe_linalg(ctx, report);
  probe_toeplitz(ctx, report);
  probe_prior_wave(ctx, report);
  report_build(ctx, report);
  probe_infer_speedup(ctx, report);
  const Ceilings& c = ctx.ceilings;
  report.metric("machine.triad_gbps", c.triad_gbps, "GB/s",
                fmt("STREAM triad, %.0f threads, 3 arrays of %.0f MiB each "
                    "(last-level cache %.0f MiB)",
                    static_cast<double>(c.threads),
                    static_cast<double>(c.array_bytes >> 20),
                    static_cast<double>(c.llc_bytes >> 20)));
  report.metric("machine.triad_gbps_1t", c.triad_gbps_1t, "GB/s",
                "STREAM triad, one thread, same arrays");
  report.metric("machine.fma_gflops", c.fma_gflops, "GFLOP/s",
                fmt("FMA loop, %.0f threads", static_cast<double>(c.threads)));
  report.metric("machine.fma_gflops_1t", c.fma_gflops_1t, "GFLOP/s",
                "FMA loop, one thread");
}

void InferLoop::call() {
  const std::size_t i = next_++;
  const Input& in = inputs_[i % inputs_.size()];
  InversionResult r;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("core.infer", 0, static_cast<std::int64_t>(i));
    r = twin_.infer(in.d_obs);
  }
  ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  if (i < inputs_.size()) forecasts_[i] = std::move(r.forecast);
}

void InferLoop::run_for(double seconds, std::size_t min_calls) {
  const std::int64_t t0 = now_ns();
  for (std::size_t n = 0; n < min_calls || ns_to_s(now_ns() - t0) < seconds;
       ++n)
    call();
}

void InferLoop::finish_pass() {
  for (std::size_t i = next_; i < inputs_.size(); ++i)
    forecasts_[i] = twin_.infer(inputs_[i].d_obs).forecast;
}

void report_infer(const InferLoop& loop, Report& report,
                  const std::string& note) {
  constexpr std::size_t kWindow = 256;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < loop.ms().size(); i += kWindow)
    windows.emplace_back(
        loop.ms().begin() + static_cast<std::ptrdiff_t>(i),
        loop.ms().begin() +
            static_cast<std::ptrdiff_t>(std::min(i + kWindow, loop.ms().size())));
  report.percentile("infer_p50_ms", windowed_percentile(windows, 0.50), 1.0,
                    "ms", note);
  report.percentile("infer_p95_ms", windowed_percentile(windows, 0.95), 1.0,
                    "ms", note);
}

double mean_qoi_error(const std::vector<Forecast>& forecasts,
                      const std::vector<Input>& inputs,
                      const std::vector<Truth>& truths) {
  double sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    sum += DigitalTwin::relative_error(forecasts[i].mean,
                                       truths[inputs[i].truth].q_true);
  return sum / static_cast<double>(inputs.size());
}

Forecast replay(const StreamingEngine& engine, const std::vector<double>& d) {
  StreamingAssimilator a = engine.start();
  const std::size_t nd = engine.block_size();
  for (std::size_t t = 0; t < engine.num_ticks(); ++t)
    a.push(t, block(d, t, nd));
  return a.forecast();
}

PoolCounters pool_counters() {
  PoolCounters c;
  for (const auto& w : ThreadPool::global().worker_stats()) {
    c.jobs += w.jobs;
    c.steals += w.steals;
    c.busy_seconds += w.busy_seconds;
    ++c.workers;
  }
  c.t_ns = now_ns();
  return c;
}

void report_pool(const PoolCounters& before, const PoolCounters& after,
                 std::size_t ticks, Report& report, const std::string& note) {
  const double wall = ns_to_s(after.t_ns - before.t_ns);
  report.metric("pool.jobs_per_tick",
                static_cast<double>(after.jobs - before.jobs) /
                    static_cast<double>(std::max<std::size_t>(ticks, 1)),
                "1", fmt("worker_stats delta over %.0f ticks; ",
                         static_cast<double>(ticks)) + note);
  report.metric("pool.busy_frac",
                (after.busy_seconds - before.busy_seconds) /
                    (wall * static_cast<double>(after.workers)),
                "1", fmt("busy seconds over %.0f workers x %.3g s wall; ",
                         static_cast<double>(after.workers), wall) + note);
  report.metric("pool.steals",
                static_cast<double>(after.steals - before.steals), "count",
                "worker_stats delta; " + note);
}

void read_probe(WarningService& service,
                const std::shared_ptr<const CachedEngine>& engine,
                const Input& input, double seconds, Report& report) {
  const StreamingEngine& eng = engine->engine();
  const EventId id = service.open_event(engine);
  for (std::size_t t = 0; t < eng.num_ticks(); ++t)
    service.submit(id, t, block(input.d_obs, t, eng.block_size()));
  service.drain();
  const std::int64_t t0 = now_ns();
  const std::size_t reads = repeat_for(seconds, 100, [&](std::size_t) {
    ScopedSpan span("service.read_probe", id);
    const EventSnapshot s = service.latest_forecast(id);
  });
  const double wall = ns_to_s(now_ns() - t0);
  (void)service.close_event(id);
  const std::vector<double> us = span_durations_us("service.read_probe");
  report.metric("service.read_us", median(us), "us",
                fmt("median of %.0f uncontended latest_forecast calls",
                    static_cast<double>(us.size())));
  report.metric("service.reads_per_s", static_cast<double>(reads) / wall,
                "1/s", "one thread reading back-to-back, nothing else running");
}

void report_service_spans(Report& report, const std::string& note) {
  const std::vector<double> submit = span_durations_us("service.submit");
  report.percentile("service.submit_p50_us", percentile(submit, 0.50), 1.0,
                    "us", note);
  report.percentile("service.submit_p99_us", percentile(submit, 0.99), 1.0,
                    "us", note);
  const std::vector<double> open = span_durations_us("service.open_event");
  const std::vector<double> close = span_durations_us("service.close_event");
  report.metric("service.open_close_us", median(open) + median(close), "us",
                fmt("median open_event (%.0f calls) + median close_event "
                    "(%.0f calls); ",
                    static_cast<double>(open.size()),
                    static_cast<double>(close.size())) + note);
}

void report_service_ratios(Report& report, double tick_latency_p50_us,
                           const std::string& latency_base,
                           double ticks_per_s, const std::string& rate_base) {
  report.metric("service.overhead_us",
                tick_latency_p50_us - report.value("core.push_us") -
                    report.value("core.forecast_into_us"),
                "us",
                fmt("base: %.4g us ", tick_latency_p50_us) + latency_base +
                    " minus core.push_us minus core.forecast_into_us");
  report.metric("service.vs_serial",
                ticks_per_s / report.value("core.serial_ticks_per_s"), "1",
                fmt("base: %.6g ticks/s ", ticks_per_s) + rate_base +
                    " over core.serial_ticks_per_s");
}

void set_workers(std::size_t workers) {
  if (ThreadPool::global().num_threads() != workers)
    ThreadPool::global().resize(workers);
}

}  // namespace pb
