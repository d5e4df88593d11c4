#pragma once

// One-thread component replay: the public layer functions a realization
// crosses, called one layer at a time over a deterministic sample of the
// workload's job shapes, each call inside a span. Its per-epoch costs are
// the cost model the traced run attributes the real workload's thread time
// with.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "system/fleet.hpp"

namespace perfbench {

/// One replayed job shape: scenario x processor x fault x lane count.
struct Shape {
    std::string scenario;
    ob::system::BoresightSystem::Processor processor =
        ob::system::BoresightSystem::Processor::kNative;
    std::optional<ob::system::FleetFault> fault;
    std::size_t lanes = 1;  ///< 1 = the scalar path, > 1 = one ensemble
    double duration_s = 0.0;  ///< replayed length; 0 = the spec's
    std::uint64_t base_seed = 2026;
    std::optional<double> meas_noise_mps2;
};

/// Realization classes the cost model distinguishes: the runner sends a
/// realization down exactly one of these paths.
enum class PathClass { kNativeScalar, kSabreScalar, kEnsemble };
inline constexpr std::size_t kPathClasses = 3;

/// Per-epoch costs (seconds; per lane-epoch for the ensemble) of one class.
struct ClassCost {
    std::uint64_t epochs = 0;    ///< replayed epochs (lane-epochs)
    double realize = 0.0;        ///< Scenario::next_wire / EnsembleRealizer
    double feed = 0.0;           ///< BoresightSystem / EnsembleNominalSystem
    double comm = 0.0;           ///< transport chain mirroring feed
    double ekf = 0.0;            ///< filter steps inside feed
    double sabre = 0.0;          ///< Sabre push + run_pending
    [[nodiscard]] double feed_self() const { return feed - comm - ekf - sabre; }
};

struct ReplayReport {
    ClassCost cls[kPathClasses];
    double trace_s_per_epoch = 0.0;
    // Layer unit costs as reported.
    double comm_encode_send_s = 0.0;  ///< per epoch, chain phases
    double comm_can_advance_s = 0.0;
    double comm_uart_drain_s = 0.0;
    double comm_codec_s = 0.0;
    double ekf_s_per_update = 0.0;
    double ekf_s_per_lane_update = 0.0;
    double feed_s_per_epoch = 0.0;      ///< native scalar feed
    double ensemble_s_per_lane_epoch = 0.0;
    double realize_s_per_lane_epoch = 0.0;
    double sabre_s_per_epoch = 0.0;
    // Exact counts.
    double wire_bytes_per_epoch = 0.0;
    double feed_allocs_per_epoch = 0.0;
    double ensemble_allocs_per_epoch = 0.0;
    double feed_updates_per_epoch = 0.0;
    double sabre_instructions_per_epoch = 0.0;
    double sabre_cycles_per_epoch = 0.0;
    double sabre_fpu_ops_per_epoch = 0.0;
    std::uint64_t frames_lost = 0;
    std::uint64_t residual_exceedances = 0;
    std::uint64_t alarms = 0;
    double coast_s = 0.0;
    // Span coverage of the replay.
    double wall_s = 0.0;
    double spans_s = 0.0;
};

/// Replay every shape once, one thread, recording spans into `log`.
[[nodiscard]] ReplayReport replay_shapes(const std::vector<Shape>& shapes,
                                         SpanLog& log);

/// Sensor-stream seed of a job (mirrors the runner's private derivation so
/// the replayed realization draws what the workload's realization 0 does).
[[nodiscard]] std::uint64_t job_sensor_stream(const std::string& scenario,
                                              std::uint64_t base_seed);

}  // namespace perfbench
