#pragma once

#include <cstddef>
#include <vector>

namespace ob::system {

/// Latched health taxonomy of the runtime defense layer, ordered by
/// severity so transitions can compare states directly.
///
///   kNominal  — both channels delivering at cadence, residuals healthy;
///   kDegraded — a channel's windowed delivery rate fell below threshold
///               or short staleness accumulated (data still flowing);
///   kCoasting — the measurement feed stalled outright: the estimate is
///               propagating without corrections and the reported 3-sigma
///               must grow with the stale time (honest coast mode);
///   kFailed   — the stall outlasted the fail threshold; the estimate is
///               untrustworthy until the link returns and re-converges.
///
/// Escalation is immediate; de-escalation goes straight back to kNominal
/// and only after a sustained streak of clean epochs (hysteresis) — a
/// system is "whatever bad it was" until proven healthy again.
enum class HealthState { kNominal = 0, kDegraded = 1, kCoasting = 2, kFailed = 3 };

[[nodiscard]] const char* health_state_name(HealthState s);

/// Knobs of the liveness watchdogs and the state machine. Thresholds are
/// counted in epochs (the expected sensor cadence is known per run from
/// the ScenarioTrace sample rate, so an epoch IS the unit of expected
/// delivery); times derive from the per-epoch dt the caller supplies.
struct HealthSupervisorConfig {
    /// Sliding window (epochs) of the per-channel delivery-rate tracker.
    std::size_t delivery_window = 256;
    /// Epochs observed before the windowed rate may judge degradation
    /// (a half-filled window right after start would read artificially).
    std::size_t min_window_epochs = 64;
    /// Windowed delivery rate below which a channel counts as degraded.
    double degrade_delivery_rate = 0.90;
    /// Consecutive undelivered epochs on a channel before kDegraded /
    /// kCoasting / kFailed. Strictly increasing by construction.
    std::size_t degrade_staleness_epochs = 8;
    std::size_t coast_staleness_epochs = 25;
    std::size_t fail_staleness_epochs = 400;
    /// kDegraded dwell (epochs) before the latched alarm trips; reaching
    /// kCoasting or kFailed latches it immediately.
    std::size_t alarm_confirm_epochs = 16;
    /// Consecutive clean epochs (both channels delivered, no degradation
    /// criterion met) before the state returns to kNominal.
    std::size_t recovery_epochs = 50;
    /// Coast-mode covariance growth: angle 1-sigma random-walk intensity
    /// (rad/sqrt(s)) applied to the filter while updates stall. 0 keeps
    /// the watchdogs without the growth.
    double coast_sigma_rate = 8.7e-4;  // ~0.05 deg/sqrt(s)

    /// Throws std::invalid_argument naming the first bad field.
    void validate() const;
};

/// Always-on runtime defense layer: per-channel liveness watchdogs over
/// the expected epoch cadence, a latched health state machine with
/// hysteresis and recovery, and the coast-mode hook that tells the owner
/// how much stale time to fold into the covariance.
///
/// The supervisor is a pure function of the epoch-event sequence — no
/// wall clock, no allocation after construction — so results that embed
/// its verdicts stay bitwise scheduling-independent, and `observe` can
/// sit on the zero-allocation fusion hot path.
class HealthSupervisor {
public:
    explicit HealthSupervisor(const HealthSupervisorConfig& cfg = {});

    /// One transport epoch as the watchdogs see it: the receive-side
    /// timestamp, the epoch period, whether each channel delivered a
    /// decoded sample this epoch, and whether a fusion update ran.
    struct Event {
        double t = 0.0;
        double dt_s = 0.0;
        bool dmu_delivered = false;
        bool acc_delivered = false;
        bool fused = false;
    };

    /// What the owner must act on this epoch.
    struct Verdict {
        HealthState state = HealthState::kNominal;
        /// Stale time (s) to fold into the covariance this epoch; positive
        /// only while coasting. The first coast epoch carries the full
        /// staleness accumulated before the threshold tripped, so the
        /// growth is continuous with the actual time spent blind.
        double coast_dt_s = 0.0;
        bool entered_coast = false;  ///< coast episode began this epoch
        /// First fused update after a coast episode — recovery bookkeeping
        /// (re-convergence timing) starts here.
        bool resumed = false;
        /// Sustained-clean return to kNominal: the owner should re-arm its
        /// residual monitor so the detection window starts fresh.
        bool recovered = false;
    };

    Verdict observe(const Event& e);

    [[nodiscard]] HealthState state() const { return state_; }
    /// Lifetime-worst state reached (for reports; never de-escalates).
    [[nodiscard]] HealthState worst_state() const { return worst_; }
    /// Latched alarm: kCoasting/kFailed reached, or kDegraded persisted
    /// for alarm_confirm_epochs. Stays true for the supervisor's life.
    [[nodiscard]] bool alarmed() const { return alarmed_; }
    /// Receive time when the alarm latched; -1 when it never did.
    [[nodiscard]] double alarm_s() const { return alarm_t_; }

    [[nodiscard]] double dmu_delivery_rate() const { return dmu_.rate(); }
    [[nodiscard]] double acc_delivery_rate() const { return acc_.rate(); }

    /// Lifetime seconds spent coasting (covariance-growth time).
    [[nodiscard]] double coast_s() const { return coast_s_; }
    /// Completed recoveries (state returned to kNominal after an episode).
    [[nodiscard]] std::size_t recoveries() const { return recoveries_; }
    /// Re-convergence time of the most recent recovery: seconds from the
    /// first fused update after a coast episode to the sustained-clean
    /// return to kNominal; -1 until a post-coast recovery completes.
    [[nodiscard]] double last_recovery_s() const { return last_recovery_s_; }

    [[nodiscard]] const HealthSupervisorConfig& config() const { return cfg_; }

private:
    /// Per-link liveness: a preallocated delivery-bit ring (windowed rate)
    /// plus consecutive-staleness counters.
    struct Channel {
        explicit Channel(std::size_t window) : recent(window, 0) {}
        std::vector<unsigned char> recent;
        std::size_t head = 0;
        std::size_t count = 0;
        std::size_t delivered_in_window = 0;
        std::size_t staleness_epochs = 0;
        double staleness_s = 0.0;

        void push(bool delivered, double dt_s);
        /// Windowed delivery rate; 1.0 before any epoch is observed (no
        /// evidence of a problem is not a problem).
        [[nodiscard]] double rate() const;
    };

    [[nodiscard]] HealthState target_state() const;

    HealthSupervisorConfig cfg_;
    Channel dmu_;
    Channel acc_;
    HealthState state_ = HealthState::kNominal;
    HealthState worst_ = HealthState::kNominal;
    bool alarmed_ = false;
    double alarm_t_ = -1.0;
    std::size_t degraded_streak_ = 0;
    std::size_t recovery_streak_ = 0;
    bool in_coast_episode_ = false;  ///< cleared by the post-coast resume
    double coast_s_ = 0.0;
    std::size_t recoveries_ = 0;
    double resume_t_ = -1.0;  ///< receive time of the post-coast resume
    double last_recovery_s_ = -1.0;
};

}  // namespace ob::system
