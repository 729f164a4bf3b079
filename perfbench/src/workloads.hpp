#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "network.hpp"

namespace pb {

/// 16 sensors x 48 ticks; four open-loop events at 2000 ticks/s with a
/// polling dashboard and mid-stream sensor drops.
void run_live_paced(const Args& args, Report& report);

/// 8 sensors x 32 ticks; waves of 64 events fed as fast as backpressure
/// allows, drained and closed.
void run_event_storm(const Args& args, Report& report);

/// 24 sensors x 48 ticks; the whole cold build, then batch inference.
void run_cold_start_batch(const Args& args, Report& report);

/// Names of the end-to-end metrics (untraced run) and the per-layer metrics
/// (traced run); every workload reports all of them.
[[nodiscard]] const std::vector<std::string>& end_to_end_metrics();
[[nodiscard]] const std::vector<std::string>& per_layer_metrics();

}  // namespace pb
