#include "system/health_supervisor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ob::system {

const char* health_state_name(const HealthState s) {
    switch (s) {
        case HealthState::kNominal: return "nominal";
        case HealthState::kDegraded: return "degraded";
        case HealthState::kCoasting: return "coasting";
        case HealthState::kFailed: return "failed";
    }
    return "?";
}

void HealthSupervisorConfig::validate() const {
    const auto fail = [](const std::string& what) {
        throw std::invalid_argument("HealthSupervisorConfig: " + what);
    };
    if (delivery_window == 0) fail("delivery window must be at least 1");
    if (min_window_epochs == 0) {
        fail("minimum window fill must be at least 1");
    }
    if (min_window_epochs > delivery_window) {
        fail("minimum window fill must not exceed the delivery window");
    }
    if (!(degrade_delivery_rate > 0.0 && degrade_delivery_rate <= 1.0)) {
        fail("degrade delivery rate must be in (0, 1]");
    }
    if (degrade_staleness_epochs == 0) {
        fail("degrade staleness must be at least 1 epoch");
    }
    if (coast_staleness_epochs <= degrade_staleness_epochs) {
        fail("coast staleness must exceed degrade staleness");
    }
    if (fail_staleness_epochs <= coast_staleness_epochs) {
        fail("fail staleness must exceed coast staleness");
    }
    if (alarm_confirm_epochs == 0) {
        fail("alarm confirm dwell must be at least 1 epoch");
    }
    if (recovery_epochs == 0) {
        fail("recovery streak must be at least 1 epoch");
    }
    if (coast_sigma_rate < 0.0) {
        fail("coast sigma rate must be non-negative");
    }
}

void HealthSupervisor::Channel::push(const bool delivered, const double dt_s) {
    if (count == recent.size()) {
        delivered_in_window -= recent[head];
    } else {
        ++count;
    }
    recent[head] = delivered ? 1 : 0;
    delivered_in_window += recent[head];
    head = (head + 1) % recent.size();
    if (delivered) {
        staleness_epochs = 0;
        staleness_s = 0.0;
    } else {
        ++staleness_epochs;
        staleness_s += dt_s;
    }
}

double HealthSupervisor::Channel::rate() const {
    if (count == 0) return 1.0;
    return static_cast<double>(delivered_in_window) /
           static_cast<double>(count);
}

HealthSupervisor::HealthSupervisor(const HealthSupervisorConfig& cfg)
    : cfg_((cfg.validate(), cfg)),
      dmu_(cfg.delivery_window),
      acc_(cfg.delivery_window) {}

HealthState HealthSupervisor::target_state() const {
    const std::size_t stale =
        std::max(dmu_.staleness_epochs, acc_.staleness_epochs);
    if (stale >= cfg_.fail_staleness_epochs) return HealthState::kFailed;
    if (stale >= cfg_.coast_staleness_epochs) return HealthState::kCoasting;
    if (stale >= cfg_.degrade_staleness_epochs) return HealthState::kDegraded;
    const std::size_t seen = std::min(dmu_.count, acc_.count);
    if (seen >= cfg_.min_window_epochs &&
        std::min(dmu_.rate(), acc_.rate()) < cfg_.degrade_delivery_rate) {
        return HealthState::kDegraded;
    }
    return HealthState::kNominal;
}

HealthSupervisor::Verdict HealthSupervisor::observe(const Event& e) {
    dmu_.push(e.dmu_delivered, e.dt_s);
    acc_.push(e.acc_delivered, e.dt_s);

    Verdict v;
    const HealthState target = target_state();
    const HealthState before = state_;

    // Escalation is immediate; de-escalation only through the sustained
    // clean streak below — a degraded target never "improves" a coasting
    // state on its own.
    if (target > state_) state_ = target;
    worst_ = std::max(worst_, state_);

    // A clean epoch: both channels delivered AND no degradation criterion
    // holds. (A delivered epoch inside a still-below-threshold window is
    // not clean: the system is still demonstrably lossy.)
    const bool clean = e.dmu_delivered && e.acc_delivered &&
                       target == HealthState::kNominal;
    if (state_ != HealthState::kNominal) {
        if (clean) {
            ++recovery_streak_;
            if (recovery_streak_ >= cfg_.recovery_epochs) {
                state_ = HealthState::kNominal;
                recovery_streak_ = 0;
                degraded_streak_ = 0;
                ++recoveries_;
                v.recovered = true;
                if (resume_t_ >= 0.0) {
                    last_recovery_s_ = e.t - resume_t_;
                    resume_t_ = -1.0;
                }
            }
        } else {
            recovery_streak_ = 0;
        }
    }

    // Latched alarm: coasting/failed immediately, degraded after the
    // confirm dwell (transient single-epoch dips never trip it).
    if (state_ == HealthState::kDegraded) {
        ++degraded_streak_;
    } else if (state_ == HealthState::kNominal) {
        degraded_streak_ = 0;
    }
    if (!alarmed_ && (state_ >= HealthState::kCoasting ||
                      degraded_streak_ >= cfg_.alarm_confirm_epochs)) {
        alarmed_ = true;
        alarm_t_ = e.t;
    }

    // Coast accounting. The entry epoch folds in the full staleness
    // accumulated while the state machine was still counting toward the
    // threshold, so covariance growth is continuous with the real time
    // spent blind rather than starting from zero at the trip point.
    const bool coasting_now = state_ >= HealthState::kCoasting;
    const bool was_coasting = before >= HealthState::kCoasting;
    if (coasting_now && !was_coasting) {
        v.entered_coast = true;
        in_coast_episode_ = true;
        v.coast_dt_s = std::max(dmu_.staleness_s, acc_.staleness_s);
    } else if (coasting_now && !e.fused) {
        v.coast_dt_s = e.dt_s;
    }
    coast_s_ += v.coast_dt_s;

    // Resume: the first fused update after a coast episode. Recovery
    // bookkeeping (re-convergence timing) starts here even though the
    // latched state stays coasting until the clean streak completes.
    if (in_coast_episode_ && e.fused) {
        in_coast_episode_ = false;
        v.resumed = true;
        resume_t_ = e.t;
    }

    v.state = state_;
    return v;
}

}  // namespace ob::system
