// P6 — why a recursive filter instead of the state of the art (one-shot
// alignment)? Three comparisons on identical data:
//   1. accuracy as a function of observation time,
//   2. behaviour across an in-service mount disturbance,
//   3. what the baseline fundamentally cannot give you: a running
//      confidence (the batch solver has no covariance tracking).

#include <cmath>
#include <cstdio>

#include "core/batch_aligner.hpp"
#include "core/boresight_ekf.hpp"
#include "math/rotation.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace ob;
using math::deg2rad;
using math::EulerAngles;
using math::rad2deg;

double total_error_deg(const EulerAngles& est, const EulerAngles& truth) {
    return rad2deg(std::abs(est.roll - truth.roll) +
                   std::abs(est.pitch - truth.pitch) +
                   std::abs(est.yaw - truth.yaw));
}

}  // namespace

int main() {
    std::printf("==================================================\n");
    std::printf("Ablation — recursive EKF vs batch least-squares\n");
    std::printf("==================================================\n\n");

    const EulerAngles truth = EulerAngles::from_deg(1.5, -1.0, 2.0);
    int failures = 0;

    // --- 1. Accuracy vs observation time -----------------------------------
    std::printf("accuracy vs time (tilt-bench static data, total |error|):\n");
    std::printf("%10s | %12s | %12s\n", "t (s)", "EKF (deg)", "batch (deg)");
    auto scfg = sim::ScenarioConfig::static_tilted(
        300.0, truth, EulerAngles::from_deg(12.0, 8.0, 0.0));
    scfg.acc_errors.bias_sigma = 0.0;  // isolate estimator behaviour
    scfg.imu_errors.accel_bias_sigma = 0.0;
    sim::Scenario sc(scfg, 11);
    core::BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.0075;
    core::BoresightEkf ekf(fcfg);
    core::BatchLeastSquaresAligner batch;
    double next_report = 30.0;
    double ekf_final = 0.0, batch_final = 0.0;
    while (auto s = sc.next()) {
        const auto d = sim::decode_step(sc, *s);
        (void)ekf.step(d.f_body, d.acc_xy);
        batch.add(d.f_body, d.acc_xy);
        if (s->t >= next_report) {
            ekf_final = total_error_deg(ekf.misalignment(), truth);
            batch_final = total_error_deg(batch.solve().misalignment, truth);
            std::printf("%10.0f | %12.4f | %12.4f\n", s->t, ekf_final,
                        batch_final);
            next_report += 60.0;
        }
    }
    std::printf("  -> with full observability both converge to the same "
                "accuracy class;\n     the EKF gets there recursively at "
                "sensor rate, O(1) memory.\n\n");
    if (ekf_final > 0.3) {
        std::printf("!! EKF failed to converge\n");
        ++failures;
    }

    // --- 2. Step-change recovery -------------------------------------------
    std::printf("mount disturbance at t=150 s (+1.0 deg pitch):\n");
    auto scfg2 = sim::ScenarioConfig::dynamic_city(300.0, truth, 5);
    // Calibrated instruments (as after the paper's §11.1 procedure), so
    // the comparison isolates the estimators' dynamics.
    scfg2.acc_errors.bias_sigma = 0.0;
    scfg2.imu_errors.accel_bias_sigma = 0.0;
    sim::Scenario sc2(scfg2, 12);
    core::BoresightConfig fcfg2;
    fcfg2.meas_noise_mps2 = 0.02;
    fcfg2.angle_process_noise = 2e-6;
    core::BoresightEkf ekf2(fcfg2);
    core::BatchLeastSquaresAligner batch2;
    bool bumped = false;
    while (auto s = sc2.next()) {
        if (!bumped && s->t >= 150.0) {
            sc2.bump(EulerAngles::from_deg(0.0, 1.0, 0.0));
            bumped = true;
        }
        const auto d = sim::decode_step(sc2, *s);
        (void)ekf2.step(d.f_body, d.acc_xy);
        batch2.add(d.f_body, d.acc_xy);
    }
    const double true_pitch_final = rad2deg(truth.pitch) + 1.0;
    const double ekf_pitch = rad2deg(ekf2.misalignment().pitch);
    const double batch_pitch = rad2deg(batch2.solve().misalignment.pitch);
    std::printf("  final pitch: truth %+0.2f | EKF %+0.3f | batch %+0.3f deg\n",
                true_pitch_final, ekf_pitch, batch_pitch);
    const double ekf_err = std::abs(ekf_pitch - true_pitch_final);
    const double batch_err = std::abs(batch_pitch - true_pitch_final);
    std::printf("  -> EKF error %.3f deg vs batch %.3f deg: the batch "
                "solution averages across\n     the disturbance; the filter "
                "re-converges (%.0fx better).\n\n",
                ekf_err, batch_err, batch_err / std::max(ekf_err, 1e-9));
    if (!(ekf_err < 0.35 && batch_err > 2.0 * ekf_err)) {
        std::printf("!! step-change contrast not reproduced\n");
        ++failures;
    }

    // --- 3. Confidence tracking --------------------------------------------
    const auto s3 = ekf2.misalignment_sigma3();
    std::printf("running 3-sigma confidence (EKF only): roll %.4f, pitch "
                "%.4f, yaw %.4f deg\n",
                rad2deg(s3[0]), rad2deg(s3[1]), rad2deg(s3[2]));
    std::printf("the batch baseline reports a point estimate with no "
                "uncertainty tracking.\n\n");

    std::printf("%s: EKF-vs-baseline ablation matches the paper's case\n",
                failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
}
