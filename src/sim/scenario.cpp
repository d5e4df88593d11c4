#include "sim/scenario.hpp"

#include <stdexcept>

namespace ob::sim {

namespace {

void require_trace(const std::shared_ptr<const ScenarioTrace>& trace) {
    if (!trace) throw std::invalid_argument("Scenario: null trace");
}

ScenarioConfig base_config(std::shared_ptr<const TrajectoryProfile> profile,
                           math::EulerAngles misalignment) {
    ScenarioConfig cfg;
    cfg.profile = std::move(profile);
    cfg.true_misalignment = misalignment;
    return cfg;
}

}  // namespace

ScenarioConfig ScenarioConfig::static_level(double duration_s,
                                            math::EulerAngles misalignment) {
    return base_config(
        std::make_shared<StaticProfile>(math::EulerAngles{}, duration_s),
        misalignment);
}

ScenarioConfig ScenarioConfig::static_tilted(double duration_s,
                                             math::EulerAngles misalignment,
                                             math::EulerAngles platform_tilt) {
    // A single fixed tilt leaves rotation about the (constant) gravity
    // direction unobservable, so the bench procedure dwells the platform
    // at a cycle of orientations: level, the requested tilt, the tilt with
    // roll/pitch exchanged, and the reversed tilt.
    std::vector<TiltSequenceProfile::Pose> poses;
    poses.push_back({math::EulerAngles{}, 10.0});
    poses.push_back({platform_tilt, 10.0});
    poses.push_back({math::EulerAngles{platform_tilt.pitch, platform_tilt.roll,
                                       platform_tilt.yaw},
                     10.0});
    poses.push_back({math::EulerAngles{-platform_tilt.roll,
                                       -platform_tilt.pitch,
                                       -platform_tilt.yaw},
                     10.0});
    return base_config(
        std::make_shared<TiltSequenceProfile>(std::move(poses), duration_s),
        misalignment);
}

ScenarioConfig ScenarioConfig::dynamic_city(double duration_s,
                                            math::EulerAngles misalignment,
                                            std::uint64_t seed) {
    return base_config(std::make_shared<DriveProfile>(
                           DriveProfile::city(duration_s, seed)),
                       misalignment);
}

ScenarioConfig ScenarioConfig::dynamic_highway(double duration_s,
                                               math::EulerAngles misalignment,
                                               std::uint64_t seed) {
    return base_config(std::make_shared<DriveProfile>(
                           DriveProfile::highway(duration_s, seed)),
                       misalignment);
}

Scenario::Scenario(ScenarioConfig cfg, std::uint64_t seed)
    : Scenario(ScenarioTrace::build(cfg, seed), cfg.true_misalignment, seed) {}

Scenario::Scenario(std::shared_ptr<const ScenarioTrace> trace,
                   math::EulerAngles true_misalignment, std::uint64_t seed)
    : trace_((require_trace(trace), std::move(trace))),
      imu_(trace_->imu_errors(), trace_->vibration(), util::Rng(seed)),
      acc_(true_misalignment, trace_->acc_errors(), trace_->vibration(),
           util::Rng(seed ^ kAccStreamSalt), trace_->adxl(),
           trace_->acc_lever_arm()) {}

std::optional<Scenario::Step> Scenario::next() {
    std::optional<Step> out(std::in_place);
    if (!next_into(*out)) return std::nullopt;
    return out;
}

bool Scenario::next_into(Step& out) {
    const std::size_t i = step_;  // epoch next_wire will consume
    if (!next_wire(out.t, out.dmu, out.adxl)) return false;
    out.truth = trace_->truth(i);
    out.f_body_true = trace_->f_body_true(i);
    out.omega_dot_true = trace_->omega_dot_true(i);
    return true;
}

bool Scenario::next_wire(double& t, comm::DmuSample& dmu,
                         comm::AdxlTiming& adxl) {
    if (step_ >= trace_->epochs()) return false;
    const std::size_t i = step_++;
    const double dt = trace_->dt();
    t = trace_->t(i);
    dmu = imu_.sample_traced(trace_->imu_force(i), trace_->imu_rate(i), t, dt);
    adxl = acc_.sample_traced(trace_->acc_force(i), t, dt);
    return true;
}

DecodedMeasurement decode_step(const Scenario& sc,
                               const Scenario::Step& step) {
    DecodedMeasurement out;
    for (std::size_t i = 0; i < 3; ++i) {
        out.f_body[i] = sc.dmu_scale().raw_to_accel(step.dmu.accel[i]);
        out.omega[i] = sc.dmu_scale().raw_to_rate(step.dmu.gyro[i]);
    }
    const auto [ax, ay] = comm::adxl_decode(step.adxl, sc.adxl_config());
    out.acc_xy = math::Vec2{ax, ay};
    return out;
}

}  // namespace ob::sim
