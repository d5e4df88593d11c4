#pragma once

#include <variant>

#include "core/kalman.hpp"
#include "math/matrix.hpp"
#include "math/rotation.hpp"

namespace ob::core {

/// How the measurement Jacobian is obtained.
enum class JacobianMode {
    kAnalyticSmallAngle,  ///< rows of skew(C·f_b): exact to first order
    kNumeric,             ///< central differences on the exact model
};

/// Tuning of the boresight sensor-fusion filter. The defaults correspond
/// to the paper's static tests; `meas_noise_mps2` is the value §11 tunes
/// (0.003–0.01 static, ≥0.015 moving).
struct BoresightConfig {
    /// Measurement noise 1-sigma per ACC axis (m/s²) — the paper's knob.
    double meas_noise_mps2 = 0.01;
    /// Mount-creep random walk per filter step (rad) — keeps the filter
    /// able to track "car park bump" style slow changes.
    double angle_process_noise = 2e-7;
    /// Initial 1-sigma on each misalignment angle (rad).
    double init_angle_sigma = math::deg2rad(5.0);
    /// Estimate the two ACC biases alongside the angles (5-state filter).
    /// With biases off, the filter assumes pre-calibrated instruments as in
    /// the paper's static procedure.
    bool estimate_bias = false;
    double init_bias_sigma = 0.05;        ///< m/s²
    double bias_process_noise = 1e-6;     ///< m/s² per step random walk
    /// Optional chi-square gate on the 2-DOF NIS (0 disables). 13.8
    /// corresponds to ~0.1% false-reject.
    double nis_gate = 0.0;
    JacobianMode jacobian = JacobianMode::kAnalyticSmallAngle;
    /// Known ACC lever arm relative to the IMU (body frame, meters). When
    /// nonzero, `step_with_rates` compensates the Euler + centripetal
    /// accelerations the offset mount feels — this is what the DMU's
    /// gyroscopes contribute to the fusion.
    math::Vec3 lever_arm{};
};

/// The paper's "Sensor Fusion Algorithm": an EKF estimating the roll,
/// pitch and yaw misalignment of a sensor-mounted two-axis accelerometer
/// (ACC) relative to the vehicle-fixed IMU, by comparing the specific
/// force both feel.
///
/// State: [roll, pitch, yaw] — misalignment Euler angles (3-2-1) of the
/// sensor frame w.r.t. the body frame — plus [bias_x', bias_y'] only when
/// `estimate_bias` is set. Measurement: the ACC's x',y' specific-force
/// components. Model: z = (C_s←b(ρ) · f_b)_{x,y} + b + v, with b = 0 in
/// the 3-state filter.
///
/// Observability mirrors §11 of the paper: with gravity as the only
/// excitation (level static test) yaw is unobservable; tilting the platform
/// or driving maneuvers make all three axes observable.
class BoresightEkf {
public:
    explicit BoresightEkf(const BoresightConfig& cfg = {});

    /// One fused measurement epoch.
    /// `f_body` — IMU-measured specific force (m/s², body frame);
    /// `f_sensor_xy` — ACC-measured specific force (m/s², sensor x'/y').
    /// Returns the innovation diagnostics used for Figure 8 style residual
    /// monitoring.
    struct Update {
        math::Vec2 residual{};  ///< measurement innovation (m/s²)
        math::Vec2 sigma3{};    ///< 3σ innovation envelope per axis
        double nis = 0.0;
        bool used = true;
    };
    Update step(const math::Vec3& f_body, const math::Vec2& f_sensor_xy);

    /// Lever-arm-aware epoch: additionally takes the gyro-measured body
    /// angular rate and its derivative, and predicts the measurement at
    /// the ACC's mount point f_b + ω̇×r + ω×(ω×r) before rotating it into
    /// the sensor frame. With a zero configured lever arm this reduces to
    /// `step`.
    Update step_with_rates(const math::Vec3& f_body, const math::Vec3& omega,
                           const math::Vec3& omega_dot,
                           const math::Vec2& f_sensor_xy);

    /// Current misalignment estimate.
    [[nodiscard]] math::EulerAngles misalignment() const;
    /// 3σ confidence on each misalignment angle (rad) — the paper's
    /// "statistical confidence level in the misalignment values".
    [[nodiscard]] math::Vec3 misalignment_sigma3() const;

    /// ACC bias estimate and its 3σ (meaningful when estimate_bias is on).
    [[nodiscard]] math::Vec2 bias() const;
    [[nodiscard]] math::Vec2 bias_sigma3() const;

    /// Retune the measurement noise mid-run (the paper's §11 procedure
    /// when moving-vehicle vibration inflates the residuals).
    void set_measurement_noise(double sigma_mps2);
    [[nodiscard]] double measurement_noise() const { return meas_sigma_; }

    /// Honest coast mode: add `angle_variance` (rad²) to each misalignment
    /// angle's covariance. Called by a supervisor while measurement updates
    /// stall, so the reported 3σ grows with the stale time instead of
    /// freezing at its last confident value — and the larger gain on the
    /// first post-outage updates speeds re-convergence. Throws
    /// std::invalid_argument on a negative variance.
    void grow_angle_covariance(double angle_variance);

    /// Number of accepted measurement updates so far.
    [[nodiscard]] std::size_t updates() const { return updates_; }

    /// Reset to priors, keeping the configuration.
    void reset();

    /// Exact nonlinear measurement model (exposed for the batch baseline
    /// and for tests).
    [[nodiscard]] static math::Vec2 predict_measurement(
        const math::Vec3& rho_euler, const math::Vec2& bias,
        const math::Vec3& f_body);

private:
    /// One filter size: the Kalman kernel and its process noise, constant
    /// per configuration.
    template <std::size_t N>
    struct Filter {
        explicit Filter(const BoresightConfig& cfg);
        Ekf<N, 2> ekf;
        math::Mat<N, N> q;
    };
    /// Five states only with `estimate_bias`: otherwise the bias states
    /// would hold exactly zero covariance and noise, and change no bit.
    using Filters = std::variant<Filter<3>, Filter<5>>;

    template <std::size_t N>
    Update step_filter(Filter<N>& f, const math::Vec3& f_body,
                       const math::Vec2& f_sensor_xy);

    BoresightConfig cfg_;
    double meas_sigma_;
    Filters filter_;
    std::size_t updates_ = 0;
};

}  // namespace ob::core
