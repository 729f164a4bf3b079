#pragma once

// EventSession: the per-event half of the warning service.
//
// One session wraps one StreamingAssimilator (cheap, a few vectors of
// per-event state) over a shared CachedEngine (the expensive, immutable
// per-network slabs). Around the assimilator it adds what a live feed
// needs and the library layer deliberately does not have:
//
//   * an ingest queue of (tick, d_block) observations with per-session
//     REORDERING — packets from a seafloor cable arrive out of order, but
//     the prefix-Cholesky update is order-dependent, so blocks are buffered
//     until the next expected tick is available and assimilated strictly
//     in tick order (which is also what makes a concurrent replay
//     bit-identical to a serial one);
//   * a BOUNDED queue with a backpressure policy: block the producer
//     (deployment default — the transport should feel the stall) or reject
//     with ServiceOverloaded (load-shedding);
//   * a debounced ALERT latch (peak forecast mean above threshold for K
//     consecutive ticks, the examples' warning-center rule);
//   * a mutex-guarded SNAPSHOT of the latest forecast + alert state, so
//     operator dashboards read without touching assimilator internals;
//   * an optional lifecycle JOURNAL (EventJournal, owned by the service):
//     every block is stamped at enqueue, and each publish emits a record
//     decomposing enqueue->published into queue-wait / push / publish, plus
//     records for reorder stalls, backpressure, alert latch, and close.
//
// Threading contract: any number of producer threads may call submit();
// at most one drainer at a time owns the session (enforced by the
// scheduled-flag protocol: won by submit() returning true, by the service's
// try_schedule() co-opt, or by an idle-session set_sensor()) and runs it
// through drain(); snapshot()/wait_idle() are safe from anywhere.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/forecast.hpp"
#include "service/engine_cache.hpp"
#include "service/event_journal.hpp"
#include "service/service_telemetry.hpp"

namespace tsunami {

using EventId = std::uint64_t;

/// What submit() does when a session's ingest queue is full.
enum class BackpressurePolicy {
  kBlock,   ///< producer waits for the workers to catch up (default)
  kReject,  ///< submit throws ServiceOverloaded; the tick is dropped
};

/// Thrown by submit() under BackpressurePolicy::kReject on a full queue.
struct ServiceOverloaded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Debounced warning rule: latch an alert once the peak forecast mean has
/// exceeded `threshold` for `debounce_ticks` consecutive ticks.
/// threshold <= 0 disables alerting.
struct AlertPolicy {
  double threshold = 0.0;
  std::size_t debounce_ticks = 2;
};

/// Point-in-time public state of one event session.
struct EventSnapshot {
  EventId id = 0;
  std::size_t ticks_assimilated = 0;
  std::size_t ticks_pending = 0;  ///< buffered, not yet assimilated
  bool complete = false;          ///< all Nt intervals assimilated
  bool closing = false;
  bool degraded = false;  ///< forecast is over a reduced sensor network
  std::size_t dropped_channels = 0;  ///< currently masked channels
  bool alert = false;
  /// Intervals assimilated when the alert latched (alert_tick * dt is the
  /// alert time in data time). Meaningful only when `alert`.
  std::size_t alert_tick = 0;
  Forecast forecast;  ///< latest rolling forecast (prior if no data yet)
};

class EventSession {
 public:
  /// `journal` is optional (may be null) and must outlive the session; the
  /// WarningService passes its own. Constructing a session emits kOpen.
  EventSession(EventId id, std::shared_ptr<const CachedEngine> engine,
               const AlertPolicy& alert, std::size_t max_pending,
               BackpressurePolicy policy, EventJournal* journal = nullptr);

  EventSession(const EventSession&) = delete;
  EventSession& operator=(const EventSession&) = delete;

  /// Buffer observation interval `tick`. Ticks may arrive in any order;
  /// duplicates (buffered or already assimilated) and ticks outside
  /// [0, Nt) throw std::invalid_argument, submits after begin_close()
  /// throw std::logic_error. Returns true iff the caller must schedule
  /// this session on a worker (in-order work became available and no
  /// worker currently owns the session).
  ///
  /// `valid` is an optional partial-tick bitmap: `valid[c] == 0` marks
  /// channel c of this block as lost on the wire (the assimilator projects
  /// it out exactly — see StreamingAssimilator's degraded-mode contract).
  /// It must be empty (all channels present) or exactly block-size long; an
  /// all-ones bitmap is normalized to empty so fully-valid partial submits
  /// stay on the bitwise-identical healthy path. A block whose dimensions
  /// disagree with the network (data OR bitmap) is journaled as kReject,
  /// counted in telemetry, and refused with std::invalid_argument — at the
  /// submit boundary, never out of a drain worker.
  [[nodiscard]] bool submit(std::size_t tick, std::span<const double> d_block,
                            ServiceTelemetry& telemetry,
                            std::span<const std::uint8_t> valid = {});

  /// Control plane: drop (live == false) or restore (live == true) sensor
  /// channel `s` for this event, mid-stream. Journals kSensorDrop /
  /// kSensorRestore immediately; the mask change itself is applied by
  /// whichever thread owns the session — this caller if the session is
  /// idle (it wins the scheduled flag, applies, republishes the corrected
  /// forecast, and drains any backlog), otherwise the owning drain worker
  /// at its next cycle boundary (so the op never races a push).
  void set_sensor(std::size_t s, bool live, ServiceTelemetry& telemetry);

  /// The drain loop — the one route from the ingest queues to the slab
  /// sweep. The caller must own every session in `owned` (hold its
  /// scheduled flag: submit() returned true, try_schedule() succeeded) and
  /// keep them alive until drain returns. Each round applies queued sensor
  /// ops, pops at most ONE in-order block per session, pushes each
  /// tick-aligned group through one StreamingAssimilator::push_many, and
  /// publishes every pushed session; sessions that ran dry are released.
  /// Per session the blocks land in strict tick order through the same FP
  /// operations whoever shares the sweep, so fusion never changes a result.
  /// Returns once every session is released. Sessions in one call must
  /// share one engine. Round scratch is thread_local and reused, so a
  /// steady-state round allocates nothing.
  static void drain(std::span<EventSession* const> owned,
                    ServiceTelemetry& telemetry);

  /// Refuse further submits (and wake producers blocked on backpressure,
  /// who then see the session closing and throw).
  void begin_close();

  /// Block until no worker owns the session and no in-order work remains.
  /// Buffered blocks beyond a tick gap stay pending (they can never be
  /// assimilated without the missing tick) and are reported in the
  /// snapshot rather than waited on.
  void wait_idle();

  [[nodiscard]] EventSnapshot snapshot() const;

  /// Cheap (no Forecast copy) degraded view for the /metrics scrape:
  /// {degraded, dropped_channels} of the latest published forecast.
  [[nodiscard]] std::pair<bool, std::size_t> degraded_state() const;

  /// Seconds since this session last published a forecast (since open if it
  /// never has). The per-session staleness gauge of the /metrics export.
  [[nodiscard]] double staleness_seconds() const;

  [[nodiscard]] EventId id() const { return id_; }
  [[nodiscard]] const CachedEngine& cached_engine() const { return *engine_; }

 private:
  /// WarningService co-opts peers for a drain via try_schedule.
  friend class WarningService;

  struct Block {
    std::size_t tick;
    std::vector<double> data;
    /// Per-channel validity bitmap; empty = every channel present (the
    /// healthy fast path). Carried beside the data so the reorder buffer
    /// preserves which channels of WHICH tick were lost.
    std::vector<std::uint8_t> valid;
    std::int64_t enqueue_ns;  ///< obs::monotonic_ns() when submit buffered it
  };

  /// Buffered-but-not-yet-runnable block (the map value of pending_): the
  /// payload plus its enqueue stamp, carried so the eventual publish can
  /// attribute queue-wait time to THIS block, however long it sat.
  struct Pending {
    std::vector<double> data;
    std::vector<std::uint8_t> valid;
    std::int64_t enqueue_ns;
  };

  /// One queued sensor control op (set_sensor). Guarded by state_mutex_;
  /// applied in submission order by the session owner, so a drop/restore
  /// pair queued while a worker drains lands between pushes, never inside
  /// one.
  struct MaskOp {
    std::size_t sensor;
    bool live;
  };

  /// Drain co-opt: win the scheduled flag iff in-order work is available
  /// and no drain job owns the session. On true the caller owns the session
  /// until release_if_idle() succeeds.
  [[nodiscard]] bool try_schedule();

  /// Pop exactly the next in-order block (if buffered) into `out` (its data
  /// vectors are moved out of the map node, not copied). Owner only.
  /// Advances next_expected_ and wakes backpressure waiters.
  [[nodiscard]] bool take_one_runnable(Block& out);

  /// Drop the scheduled flag iff no in-order work and no sensor op
  /// remains; returns false (still owned) when a racing submit buffered the
  /// next tick or a set_sensor queued an op — the owner must then keep
  /// draining. No lost wakeups: a racing submit either lands before the
  /// check (and is seen) or after the flag drops (and wins it itself).
  [[nodiscard]] bool release_if_idle();

  /// Owner only: pop and apply every queued set_sensor op (in order).
  /// Returns true iff any op was applied — the caller then republishes via
  /// publish_forecast_only() so dashboards see the corrected posterior
  /// without waiting for the next push.
  [[nodiscard]] bool apply_pending_mask_ops();

  /// Owner only: refresh the published snapshot from the assimilator's
  /// current state without a push — no telemetry sample, no budget journal
  /// record (control events journal their own kind). Used after sensor
  /// drop/restore.
  void publish_forecast_only();

  /// Arm the latency-budget context for the block about to be pushed: marks
  /// the push start (= end of the block's queue wait) and remembers its tick
  /// and enqueue stamp for the journal record publish_after_push emits.
  /// Owner only; drain() calls it just before push_many.
  void begin_push_ctx(std::size_t tick, std::int64_t enqueue_ns);

  /// The publish half of a push: telemetry sample, rolling forecast, alert
  /// latch, snapshot swap, journal record — for the block push_many just
  /// assimilated. Owner only; requires a preceding begin_push_ctx for this
  /// block.
  void publish_after_push(ServiceTelemetry& telemetry);

  /// Append a non-budget lifecycle record (open/stall/backpressure/close)
  /// if a journal is attached. Any thread; lock- and allocation-free.
  void journal_mark(JournalKind kind, std::uint64_t tick,
                    std::int64_t duration_ns = 0);

  const EventId id_;
  const std::shared_ptr<const CachedEngine> engine_;  ///< shared, immutable
  const AlertPolicy alert_;
  const std::size_t max_pending_;
  const BackpressurePolicy policy_;
  EventJournal* const journal_;     ///< nullable; owned by the service
  const std::int64_t open_ns_;      ///< obs::monotonic_ns() at construction

  // Assimilator + alert streak + forecast staging: touched only by the
  // owning worker (one at a time, enforced by the scheduled_ handoff). The
  // staging Forecast is filled via forecast_into and swapped with the
  // published snapshot under snapshot_mutex_, so the per-tick publish path
  // reuses both buffers and never allocates in steady state.
  StreamingAssimilator assim_;
  std::size_t above_threshold_streak_ = 0;
  Forecast staging_forecast_;
  // Latency-budget context for the in-flight block (owner-only, like
  // assim_): armed by begin_push_ctx, consumed by publish_after_push.
  std::size_t push_tick_ = 0;
  std::int64_t push_enqueue_ns_ = 0;
  std::int64_t push_start_ns_ = 0;
  bool first_publish_done_ = false;

  // Ingest queue + scheduling state, guarded by state_mutex_.
  mutable std::mutex state_mutex_;
  std::condition_variable space_cv_;  ///< backpressure waiters
  std::condition_variable idle_cv_;   ///< wait_idle waiters
  std::map<std::size_t, Pending> pending_;  ///< tick -> stamped block
  std::vector<MaskOp> mask_ops_;   ///< queued sensor drops/restores
  std::size_t next_expected_ = 0;  ///< next tick the assimilator must see
  bool scheduled_ = false;         ///< a worker owns (or is queued for) this
  bool closing_ = false;

  // Published state, guarded by snapshot_mutex_ (never held together with
  // state_mutex_).
  mutable std::mutex snapshot_mutex_;
  std::size_t ticks_assimilated_ = 0;
  bool alert_latched_ = false;
  std::size_t alert_tick_ = 0;
  Forecast latest_forecast_;

  /// When the latest forecast was published (open time before any publish),
  /// read lock-free by staleness_seconds() from scrape threads.
  std::atomic<std::int64_t> last_publish_ns_;
};

}  // namespace tsunami
