#pragma once

#include <memory>
#include <optional>

#include "comm/codec.hpp"
#include "sim/acc_model.hpp"
#include "sim/imu_model.hpp"
#include "sim/scenario_trace.hpp"
#include "sim/trajectory.hpp"

namespace ob::sim {

/// Complete experiment description: trajectory, injected misalignment and
/// all sensor error magnitudes. Mirrors the paper's §11 test setup: the
/// system is calibrated, "misalignments of a few degrees were introduced
/// in roll, pitch and yaw", then data is collected for 300 seconds.
struct ScenarioConfig {
    std::shared_ptr<const TrajectoryProfile> profile;
    math::EulerAngles true_misalignment{};
    ImuErrorConfig imu_errors{};
    AccErrorConfig acc_errors{};
    VibrationConfig vibration{};
    comm::AdxlConfig adxl{};
    double sample_rate_hz = 100.0;
    /// ACC mounting position relative to the IMU, body frame (meters).
    /// Nonzero values exercise the lever-arm compensation path.
    math::Vec3 acc_lever_arm{};

    // --- Presets matching the paper's experiments -------------------------

    /// §11.1 static test, level platform: only roll/pitch observable.
    [[nodiscard]] static ScenarioConfig static_level(
        double duration_s, math::EulerAngles misalignment);

    /// §11.1 static test with the platform tilted so gravity excites all
    /// axes (the paper: "the platform must be oriented to use gravity to
    /// generate components of acceleration in the ACC and DMU").
    [[nodiscard]] static ScenarioConfig static_tilted(
        double duration_s, math::EulerAngles misalignment,
        math::EulerAngles platform_tilt);

    /// §11.2 dynamic test: city drive in a passenger vehicle.
    [[nodiscard]] static ScenarioConfig dynamic_city(
        double duration_s, math::EulerAngles misalignment, std::uint64_t seed);

    /// §11.2 dynamic test variant: highway drive.
    [[nodiscard]] static ScenarioConfig dynamic_highway(
        double duration_s, math::EulerAngles misalignment, std::uint64_t seed);
};

/// The Realize layer: a per-seed instrument realization over a
/// ScenarioTrace, producing the raw wire-format sensor pair stream plus
/// ground truth. The single-argument-pair constructor synthesizes its own
/// trace (the historical behavior, bit for bit); the trace constructor
/// shares an immutable trace across many realizations — the same vehicle
/// and road, different instrument seeds.
class Scenario {
public:
    Scenario(ScenarioConfig cfg, std::uint64_t seed);

    /// Realize over a shared trace: `seed` drives the instrument draws
    /// (biases, scale factors, white noise), `true_misalignment` the
    /// mounting truth the ACC senses through.
    Scenario(std::shared_ptr<const ScenarioTrace> trace,
             math::EulerAngles true_misalignment, std::uint64_t seed);

    /// One synchronized sensor epoch.
    struct Step {
        double t = 0.0;
        comm::DmuSample dmu;       ///< IMU raw sample (CAN payload units)
        comm::AdxlTiming adxl;     ///< ACC raw PWM timings
        VehicleState truth;        ///< kinematic ground truth
        math::Vec3 f_body_true{};  ///< true specific force at the body
        math::Vec3 omega_dot_true{};  ///< body angular acceleration
    };

    /// Produce the next epoch, or nullopt when the profile's duration is
    /// exhausted.
    [[nodiscard]] std::optional<Step> next();

    /// Copy-free variant for hot realize loops: fills `out` in place and
    /// returns false when the trace is exhausted. Identical draw sequence
    /// and values to next() — callers reuse one Step across epochs instead
    /// of moving a fresh optional per call.
    [[nodiscard]] bool next_into(Step& out);

    /// Minimal realize step for transport-bound loops (the fleet path):
    /// only the timestamped wire-format sensor pair, skipping the truth
    /// copies a full Step carries. Identical draw sequence and values;
    /// interleaves freely with bump() and the other iteration forms.
    [[nodiscard]] bool next_wire(double& t, comm::DmuSample& dmu,
                                 comm::AdxlTiming& adxl);

    /// True misalignment currently in effect (changes after bump()).
    [[nodiscard]] math::EulerAngles true_misalignment() const {
        return acc_.true_misalignment();
    }

    /// Inject a mounting disturbance mid-run (paper: "car park bumps").
    void bump(const math::EulerAngles& delta) { acc_.bump(delta); }

    /// Arm a frozen-register fault window on the DMU realization (see
    /// ImuModel::set_fault; no effect on the RNG streams).
    void inject_imu_fault(const SensorFault& fault) { imu_.set_fault(fault); }

    /// Arm a stuck-output fault window on the ACC realization (see
    /// AccModel::set_fault; no effect on the RNG streams).
    void inject_acc_fault(const SensorFault& fault) { acc_.set_fault(fault); }

    [[nodiscard]] const comm::DmuScale& dmu_scale() const {
        return imu_.scale();
    }
    [[nodiscard]] const comm::AdxlConfig& adxl_config() const {
        return acc_.adxl_config();
    }
    [[nodiscard]] double sample_rate_hz() const {
        return trace_->sample_rate_hz();
    }
    [[nodiscard]] double duration() const { return trace_->duration(); }
    [[nodiscard]] const AccModel& acc_model() const { return acc_; }

    /// The immutable trace this realization consumes.
    [[nodiscard]] const ScenarioTrace& trace() const { return *trace_; }
    [[nodiscard]] const std::shared_ptr<const ScenarioTrace>& trace_ptr()
        const {
        return trace_;
    }

private:
    std::shared_ptr<const ScenarioTrace> trace_;
    ImuModel imu_;
    AccModel acc_;
    std::size_t step_ = 0;
};

/// One scenario step decoded into SI units the way the deployed firmware
/// would (DMU register scaling + ADXL duty-cycle law), with no transport
/// in between.
struct DecodedMeasurement {
    math::Vec3 f_body{};
    math::Vec3 omega{};  ///< gyro-measured body rate (rad/s)
    math::Vec2 acc_xy{};
};
[[nodiscard]] DecodedMeasurement decode_step(const Scenario& sc,
                                             const Scenario::Step& step);

}  // namespace ob::sim
