#pragma once

#include <cstddef>

#include "core/adaptive_tuner.hpp"
#include "core/residual_monitor.hpp"
#include "math/matrix.hpp"
#include "math/rotation.hpp"
#include "system/health_supervisor.hpp"
#include "util/stats.hpp"

namespace ob::system {

/// What a boresight system reports (`BoresightSystem::Status`). It is
/// declared here, beside the tail that fills its detector fields, so both
/// the scalar system and the ensemble lanes can share one definition.
struct BoresightStatus {
    math::EulerAngles estimate{};
    math::Vec3 sigma3{};
    std::size_t updates = 0;
    std::size_t dmu_frames_lost = 0;
    std::size_t acc_packets_lost = 0;
    double worst_transport_latency = 0.0;  ///< seconds, CAN queueing
    double measurement_noise = 0.0;        ///< current filter R sigma
    double residual_rms = 0.0;  ///< innovation RMS over both axes (m/s²)
    std::size_t tuner_adjustments = 0;  ///< adaptive R changes applied
    // Residual-health monitor outputs (the fault-campaign detector).
    bool residual_flagged = false;  ///< latched 3-sigma-rate alarm
    double residual_flag_s = -1.0;  ///< receive time of the latch; -1 never
    double residual_windowed_rate = 0.0;  ///< exceedance rate, window
    std::size_t residual_exceedances = 0;  ///< lifetime axis exceedances
    // Health-supervisor outputs (the second, residual-free detector:
    // liveness watchdogs + latched state machine + coast accounting).
    HealthState health = HealthState::kNominal;  ///< current state
    HealthState worst_health = HealthState::kNominal;  ///< lifetime worst
    bool supervisor_alarmed = false;  ///< latched liveness alarm
    double supervisor_alarm_s = -1.0;  ///< latch receive time; -1 never
    double dmu_delivery_rate = 1.0;  ///< windowed per-link delivery rate
    double acc_delivery_rate = 1.0;
    double coast_s = 0.0;  ///< lifetime seconds spent coasting
    std::size_t recoveries = 0;  ///< completed post-episode recoveries
    /// Resume→recovered time of the most recent post-coast recovery
    /// (the re-convergence report); -1 until one completes.
    double reconvergence_s = -1.0;
    /// ACC packets that passed the checksum but failed the physical
    /// duty-cycle plausibility gate (counted since construction).
    std::size_t acc_implausible = 0;
};

/// The post-update stage of one realization, whatever filter produced the
/// update (native EKF, Sabre firmware, an ensemble lane): residual
/// statistics, the residual-health monitor with its lifetime latch, the
/// §11 adaptive noise tuner and the health supervisor. The owner keeps
/// only what differs per filter — where the tuner's R lands and where the
/// coast variance grows.
class FusionTail {
public:
    FusionTail(std::size_t monitor_window, double monitor_alarm_rate,
               std::size_t monitor_min_samples, bool use_tuner,
               const core::AdaptiveTunerConfig& tuner,
               const HealthSupervisorConfig& supervisor);

    /// One fusion update: residual stats (x then y), the monitor, the
    /// monitor's first-flag receive time `t`, then the tuner. Returns the
    /// tuner's recommended R sigma — positive only when the owner should
    /// apply it to its filter (never with the tuner off).
    [[nodiscard]] double update(const math::Vec2& residual,
                                const math::Vec2& sigma3, double t,
                                double current_r);

    /// What the owner applies after a supervisor epoch.
    struct EpochOutcome {
        double coast_var = 0.0;  ///< angle variance to add (rad²); 0 if none
        bool recovered = false;  ///< sustained-clean return to nominal
    };

    /// One transport epoch through the supervisor. On recovery the residual
    /// monitor is re-armed so its window starts fresh on the recovered link;
    /// the lifetime latch keeps any earlier alarm visible.
    [[nodiscard]] EpochOutcome epoch(const HealthSupervisor::Event& ev);

    /// Write the residual, detector, tuner and supervisor fields of `s`.
    void fill(BoresightStatus& s) const;

private:
    util::RunningStats stats_;  ///< innovation samples, both axes
    core::ResidualMonitor monitor_;
    double flag_t_ = -1.0;  ///< receive time when the alarm latched
    bool latched_ = false;  ///< the monitor flagged before a re-arm
    bool use_tuner_;
    core::AdaptiveNoiseTuner tuner_;
    HealthSupervisor supervisor_;
};

}  // namespace ob::system
