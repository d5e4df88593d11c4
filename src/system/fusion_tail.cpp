#include "system/fusion_tail.hpp"

namespace ob::system {

FusionTail::FusionTail(std::size_t monitor_window, double monitor_alarm_rate,
                       std::size_t monitor_min_samples, bool use_tuner,
                       const core::AdaptiveTunerConfig& tuner,
                       const HealthSupervisorConfig& supervisor)
    : monitor_(monitor_window, monitor_alarm_rate, monitor_min_samples),
      use_tuner_(use_tuner),
      tuner_(tuner),
      supervisor_(supervisor) {}

double FusionTail::update(const math::Vec2& residual, const math::Vec2& sigma3,
                          double t, double current_r) {
    stats_.add(residual[0]);
    stats_.add(residual[1]);
    monitor_.add(residual, sigma3);
    if (monitor_.flagged() && flag_t_ < 0.0) flag_t_ = t;
    return use_tuner_ ? tuner_.observe(residual, sigma3, current_r) : 0.0;
}

FusionTail::EpochOutcome FusionTail::epoch(const HealthSupervisor::Event& ev) {
    const auto verdict = supervisor_.observe(ev);
    EpochOutcome out;
    // Honest coast mode: while updates stall, the angle uncertainty grows
    // as a random walk of the configured intensity instead of freezing at
    // its last confident value.
    const double rate = supervisor_.config().coast_sigma_rate;
    if (verdict.coast_dt_s > 0.0 && rate > 0.0) {
        out.coast_var = rate * rate * verdict.coast_dt_s;
    }
    if (verdict.recovered) {
        latched_ = latched_ || monitor_.flagged();
        monitor_.reset();
        out.recovered = true;
    }
    return out;
}

void FusionTail::fill(BoresightStatus& s) const {
    s.residual_rms = stats_.rms();
    s.tuner_adjustments = tuner_.adjustments();
    s.residual_flagged = monitor_.flagged() || latched_;
    s.residual_flag_s = flag_t_;
    s.residual_windowed_rate = monitor_.windowed_rate();
    s.residual_exceedances = monitor_.exceedances();
    s.health = supervisor_.state();
    s.worst_health = supervisor_.worst_state();
    s.supervisor_alarmed = supervisor_.alarmed();
    s.supervisor_alarm_s = supervisor_.alarm_s();
    s.dmu_delivery_rate = supervisor_.dmu_delivery_rate();
    s.acc_delivery_rate = supervisor_.acc_delivery_rate();
    s.coast_s = supervisor_.coast_s();
    s.recoveries = supervisor_.recoveries();
    s.reconvergence_s = supervisor_.last_recovery_s();
}

}  // namespace ob::system
