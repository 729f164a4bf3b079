#include "service/event_session.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace tsunami {

EventSession::EventSession(EventId id,
                           std::shared_ptr<const CachedEngine> engine,
                           const AlertPolicy& alert, std::size_t max_pending,
                           BackpressurePolicy policy, EventJournal* journal)
    : id_(id),
      engine_([&] {
        if (!engine) throw std::invalid_argument("EventSession: null engine");
        return std::move(engine);
      }()),
      alert_(alert),
      max_pending_(max_pending),
      policy_(policy),
      journal_(journal),
      open_ns_(obs::monotonic_ns()),
      assim_(engine_->engine().start()),
      last_publish_ns_(open_ns_) {
  if (max_pending_ == 0)
    throw std::invalid_argument("EventSession: max_pending == 0");
  // Publish the prior as the initial snapshot so latest_forecast is
  // meaningful before the first observation lands.
  latest_forecast_ = assim_.forecast();
  journal_mark(JournalKind::kOpen, 0);
}

void EventSession::journal_mark(JournalKind kind, std::uint64_t tick,
                                std::int64_t duration_ns) {
  if (journal_ == nullptr) return;
  JournalRecord r;
  r.event = id_;
  r.kind = kind;
  r.tick = tick;
  r.t_ns = obs::monotonic_ns();
  r.total_ns = duration_ns;
  journal_->append(r);
}

bool EventSession::submit(std::size_t tick, std::span<const double> d_block,
                          ServiceTelemetry& telemetry,
                          std::span<const std::uint8_t> valid) {
  const StreamingEngine& eng = engine_->engine();
  // Corrupt-block rejection: malformed wire data (impossible tick, wrong
  // block dimension, wrong bitmap dimension) is journaled and refused HERE,
  // at the submit boundary — a corrupt packet must never become a throw out
  // of a drain worker, and must never poison the session's good state.
  if (tick >= eng.num_ticks() || d_block.size() != eng.block_size() ||
      (!valid.empty() && valid.size() != eng.block_size())) {
    telemetry.on_corrupt();
    journal_mark(JournalKind::kReject, tick);
    if (tick >= eng.num_ticks())
      throw std::invalid_argument("EventSession::submit: tick out of range");
    if (d_block.size() != eng.block_size())
      throw std::invalid_argument("EventSession::submit: block size mismatch");
    throw std::invalid_argument("EventSession::submit: bitmap size mismatch");
  }
  // Normalize an all-ones bitmap to "no bitmap": a fully-valid partial
  // submit stays on the healthy fast path and is bitwise-identical to the
  // plain overload.
  if (!valid.empty() &&
      std::all_of(valid.begin(), valid.end(),
                  [](std::uint8_t v) { return v != 0; }))
    valid = {};

  std::unique_lock<std::mutex> lock(state_mutex_);
  if (closing_)
    throw std::logic_error("EventSession::submit: event is closed");
  if (tick < next_expected_ || pending_.count(tick))
    throw std::invalid_argument("EventSession::submit: duplicate tick");
  // The next-expected tick is always accepted even when the buffer is full:
  // it is exactly the block whose arrival lets the workers drain the queue,
  // so bouncing it would stall (kBlock: deadlock; kReject: livelock) a
  // session whose buffer filled up with out-of-order future ticks.
  if (tick != next_expected_ && pending_.size() >= max_pending_) {
    if (policy_ == BackpressurePolicy::kReject) {
      telemetry.on_rejected();
      journal_mark(JournalKind::kBackpressureReject, tick);
      throw ServiceOverloaded("EventSession::submit: ingest queue full");
    }
    // The bypass must be re-evaluated inside the wait: the workers can
    // advance next_expected_ to exactly this tick while we sleep, at which
    // point this block is the only one that can unblock the session and
    // waiting for queue space (which can't free without it) would deadlock.
    // take_one_runnable notifies space_cv_ on every advance.
    telemetry.on_blocked();
    const std::int64_t wait_begin = obs::monotonic_ns();
    space_cv_.wait(lock, [&] {
      return closing_ || tick == next_expected_ ||
             pending_.size() < max_pending_;
    });
    journal_mark(JournalKind::kBackpressureBlock, tick,
                 obs::monotonic_ns() - wait_begin);
    if (closing_)
      throw std::logic_error("EventSession::submit: event is closed");
    if (tick < next_expected_ || pending_.count(tick))
      throw std::invalid_argument("EventSession::submit: duplicate tick");
  }
  pending_.emplace(
      tick, Pending{std::vector<double>(d_block.begin(), d_block.end()),
                    std::vector<std::uint8_t>(valid.begin(), valid.end()),
                    obs::monotonic_ns()});

  // Schedule iff in-order work just became available and no worker owns the
  // session: exactly one producer wins the flag, so at most one worker ever
  // drains a session at a time (the ordering + determinism invariant).
  const bool runnable =
      !pending_.empty() && pending_.begin()->first == next_expected_;
  if (!runnable)
    // The new block is ahead of a gap at next_expected_ — the tick the
    // session is stalled waiting for.
    journal_mark(JournalKind::kReorderStall, next_expected_);
  if (runnable && !scheduled_) {
    scheduled_ = true;
    return true;
  }
  return false;
}

bool EventSession::try_schedule() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  const bool runnable =
      !pending_.empty() && pending_.begin()->first == next_expected_;
  if (!runnable || scheduled_) return false;
  scheduled_ = true;
  return true;
}

bool EventSession::take_one_runnable(Block& out) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  if (pending_.empty() || pending_.begin()->first != next_expected_)
    return false;
  auto node = pending_.extract(pending_.begin());
  out.tick = node.key();
  out.data = std::move(node.mapped().data);
  out.valid = std::move(node.mapped().valid);
  out.enqueue_ns = node.mapped().enqueue_ns;
  ++next_expected_;
  space_cv_.notify_all();
  return true;
}

bool EventSession::release_if_idle() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  if (!pending_.empty() && pending_.begin()->first == next_expected_)
    return false;  // a submit raced in-order work in: still ours to drain
  if (!mask_ops_.empty())
    return false;  // a set_sensor raced a control op in: apply before idling
  scheduled_ = false;
  idle_cv_.notify_all();
  return true;
}

void EventSession::drain(std::span<EventSession* const> owned,
                         ServiceTelemetry& telemetry) {
  // Round scratch: thread_local, so its capacity survives across drains and
  // a steady-state round does not allocate (the blocks' data vectors are
  // moved out of the map nodes, not copied). It holds raw pointers only —
  // the caller owns the sessions — so it never keeps one alive. A drain
  // never runs nested inside another on one thread: pool loops only ever
  // execute their own items.
  struct Round {
    std::vector<EventSession*> active, next;
    std::vector<Block> blocks;  ///< blocks[i]: what active[i] popped
    std::vector<char> has;      ///< has[i]: active[i] popped a block
    std::vector<std::size_t> order;  ///< indices with a block, by tick
    std::vector<StreamingAssimilator*> events;
    std::vector<std::span<const double>> data;
    std::vector<std::span<const std::uint8_t>> valids;
  };
  static thread_local Round r;
  TRACE_SCOPE("service", "drain");
  r.active.assign(owned.begin(), owned.end());
  while (!r.active.empty()) {
    const std::size_t n = r.active.size();
    r.blocks.resize(n);
    r.has.assign(n, 0);
    r.order.clear();
    for (std::size_t i = 0; i < n; ++i) {
      EventSession* s = r.active[i];
      // Sensor control ops land at round boundaries: never inside a push,
      // and the corrected forecast publishes immediately even when no data
      // is buffered (the common case for a drop on a quiet session).
      // release_if_idle refuses to idle past a queued op, so one queued
      // mid-round is applied next round, never lost.
      if (s->apply_pending_mask_ops()) s->publish_forecast_only();
      if (s->take_one_runnable(r.blocks[i])) {
        r.has[i] = 1;
        r.order.push_back(i);
      }
    }
    std::sort(r.order.begin(), r.order.end(),
              [&](std::size_t a, std::size_t b) {
                return r.blocks[a].tick != r.blocks[b].tick
                           ? r.blocks[a].tick < r.blocks[b].tick
                           : a < b;
              });
    // One push_many per tick-aligned group. The slow part — the slab
    // sweep — runs without any lock: producers keep submitting and other
    // sessions keep draining.
    for (std::size_t g0 = 0, g1 = 0; g0 < r.order.size(); g0 = g1) {
      const std::size_t tick = r.blocks[r.order[g0]].tick;
      r.events.clear();
      r.data.clear();
      r.valids.clear();
      for (g1 = g0; g1 < r.order.size() && r.blocks[r.order[g1]].tick == tick;
           ++g1) {
        const std::size_t i = r.order[g1];
        // Arm each session's latency-budget context now: the sweep is where
        // every block's queue wait ends and its push begins.
        r.active[i]->begin_push_ctx(tick, r.blocks[i].enqueue_ns);
        r.events.push_back(&r.active[i]->assim_);
        r.data.push_back(r.blocks[i].data);
        r.valids.push_back(r.blocks[i].valid);
      }
      StreamingAssimilator::push_many(r.events, tick, r.data, r.valids);
      for (std::size_t g = g0; g < g1; ++g)
        r.active[r.order[g]]->publish_after_push(telemetry);
    }
    // Keep sessions that produced a block (they may have more); release the
    // rest — unless a submit or set_sensor raced work in, in which case the
    // release fails and the session stays ours for the next round.
    r.next.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (r.has[i] || !r.active[i]->release_if_idle())
        r.next.push_back(r.active[i]);
    }
    r.active.swap(r.next);
  }
}

void EventSession::set_sensor(std::size_t s, bool live,
                              ServiceTelemetry& telemetry) {
  const StreamingEngine& eng = engine_->engine();
  if (s >= eng.block_size())
    throw std::out_of_range("EventSession::set_sensor: channel out of range");
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (closing_)
      throw std::logic_error("EventSession::set_sensor: event is closed");
    mask_ops_.push_back(MaskOp{s, live});
    // Idle session: this caller wins the scheduled flag and applies the op
    // itself. Otherwise the owning drainer picks it up at its next round
    // head — release_if_idle refuses to idle past a queued op, so it cannot
    // linger.
    if (!scheduled_) {
      scheduled_ = true;
      owner = true;
    }
  }
  journal_mark(live ? JournalKind::kSensorRestore : JournalKind::kSensorDrop,
               s);
  if (owner) {
    // Applies the op, republishes, drains any backlog, releases — on this
    // thread, before set_sensor returns.
    EventSession* const self = this;
    drain(std::span<EventSession* const>(&self, 1), telemetry);
  }
}

bool EventSession::apply_pending_mask_ops() {
  // Owner only: pop under the lock, apply outside it — drop_sensor rebuilds
  // the dead-channel projection (O(r p^2)) and must not stall producers.
  std::vector<MaskOp> ops;  // lint: allow(hot-path-alloc) control event
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ops.swap(mask_ops_);
  }
  if (ops.empty()) return false;
  for (const MaskOp& op : ops) {
    // Validated at set_sensor; drop-of-dropped / restore-of-live are no-ops
    // in the assimilator, so replayed control packets are harmless.
    if (op.live)
      assim_.restore_sensor(op.sensor);
    else
      assim_.drop_sensor(op.sensor);
  }
  return true;
}

void EventSession::publish_forecast_only() {
  assim_.forecast_into(staging_forecast_);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    ticks_assimilated_ = assim_.ticks_received();
    std::swap(latest_forecast_, staging_forecast_);
  }
  // mo: relaxed — staleness gauge timestamp; same contract as the store in
  // publish_after_push.
  last_publish_ns_.store(obs::monotonic_ns(), std::memory_order_relaxed);
}

void EventSession::begin_push_ctx(std::size_t tick, std::int64_t enqueue_ns) {
  push_tick_ = tick;
  push_enqueue_ns_ = enqueue_ns;
  push_start_ns_ = obs::monotonic_ns();
}

void EventSession::publish_after_push(ServiceTelemetry& telemetry) {
  TRACE_SCOPE("service", "publish");
  const std::int64_t publish_begin = obs::monotonic_ns();
  telemetry.on_push(assim_.last_push_seconds());

  assim_.forecast_into(staging_forecast_);
  bool latch = false;
  if (alert_.threshold > 0.0 && !alert_latched_) {
    double peak = 0.0;
    for (double v : staging_forecast_.mean) peak = std::max(peak, v);
    above_threshold_streak_ =
        peak > alert_.threshold ? above_threshold_streak_ + 1 : 0;
    latch = above_threshold_streak_ >= alert_.debounce_ticks;
  }

  std::size_t latched_at = 0;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    ticks_assimilated_ = assim_.ticks_received();
    if (latch) {
      alert_latched_ = true;
      alert_tick_ = ticks_assimilated_;
      latched_at = ticks_assimilated_;
    }
    // Swap, don't move: the retired snapshot's buffers become next tick's
    // staging capacity, so publishing is allocation-free in steady state.
    std::swap(latest_forecast_, staging_forecast_);
  }

  const std::int64_t t_end = obs::monotonic_ns();
  // mo: relaxed — staleness gauge timestamp; scrape readers tolerate any
  // staleness, and the value is a single self-contained int64.
  last_publish_ns_.store(t_end, std::memory_order_relaxed);

  // Journal + SLO samples, outside the snapshot lock (journal appends are
  // lock-free, histogram records are wait-free).
  if (!first_publish_done_) {
    first_publish_done_ = true;
    telemetry.on_first_forecast(static_cast<double>(t_end - open_ns_) * 1e-9);
  }
  if (latch) {
    // Lead time: how much of the event timeline (in data time) was still
    // ahead when the alert latched.
    const StreamingEngine& eng = engine_->engine();
    const double dt = engine_->twin().config().observation_dt;
    const double lead =
        static_cast<double>(eng.num_ticks() - latched_at) * dt;
    telemetry.on_alert_lead(lead);
    journal_mark(JournalKind::kAlertLatch, latched_at);
  }
  if (journal_ != nullptr) {
    JournalRecord r;
    r.event = id_;
    r.kind = assim_.ticks_received() == 1 ? JournalKind::kFirstTick
                                          : JournalKind::kPush;
    r.tick = push_tick_;
    r.t_ns = t_end;
    // The budget decomposition: queue wait (enqueue -> drain pop / fused
    // push start), the push itself (the assimilator's own stopwatch — an
    // INDEPENDENT measurement, which is what makes the sum-vs-total check
    // in tests meaningful), and the publish tail measured here.
    r.queue_wait_ns = push_start_ns_ - push_enqueue_ns_;
    r.push_ns =
        static_cast<std::int64_t>(assim_.last_push_seconds() * 1e9);
    r.publish_ns = t_end - publish_begin;
    r.total_ns = t_end - push_enqueue_ns_;
    journal_->append(r);
  }
}

void EventSession::begin_close() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  closing_ = true;
  space_cv_.notify_all();
}

void EventSession::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_cv_.wait(lock, [&] { return !scheduled_; });
}

double EventSession::staleness_seconds() const {
  // mo: relaxed — reading the publish timestamp for a monitoring gauge; a
  // stale read only overstates staleness by one publish.
  const std::int64_t last = last_publish_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(obs::monotonic_ns() - last) * 1e-9;
}

EventSnapshot EventSession::snapshot() const {
  EventSnapshot s;
  s.id = id_;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    s.ticks_pending = pending_.size();
    s.closing = closing_;
  }
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    s.ticks_assimilated = ticks_assimilated_;
    s.alert = alert_latched_;
    s.alert_tick = alert_tick_;
    s.forecast = latest_forecast_;
  }
  s.degraded = s.forecast.degraded;
  s.dropped_channels = s.forecast.dropped_channels;
  s.complete = s.ticks_assimilated == engine_->engine().num_ticks();
  return s;
}

std::pair<bool, std::size_t> EventSession::degraded_state() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return {latest_forecast_.degraded, latest_forecast_.dropped_channels};
}

}  // namespace tsunami
