// The motivating scenario of the paper's §2: a sensor knocked out of
// alignment in service ("typical 'car park' bumps") must be re-aligned
// without a trip to an optical bench. This example drives for ten minutes,
// bumps the camera mount at t=300s, and shows the filter re-converging —
// then contrasts it with the one-shot batch baseline that cannot.

#include <cstdio>
#include <vector>

#include "core/batch_aligner.hpp"
#include "core/boresight_ekf.hpp"
#include "math/rotation.hpp"
#include "sim/scenario_library.hpp"
#include "util/ascii_plot.hpp"

using namespace ob;

int main() {
    // Scenario shape, injected truth, bump delta and filter tuning all come
    // from the library's carpark-bump spec; this example stretches the run
    // to ten minutes and moves the knock to the midpoint.
    const auto& spec = sim::ScenarioLibrary::instance().at("carpark-bump");
    const math::EulerAngles before = spec.misalignment;
    const math::EulerAngles bump = spec.bump.delta;

    auto scfg = spec.build(600.0, before, 31);
    sim::Scenario sc(scfg, 555);

    core::BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = spec.meas_noise_mps2;
    fcfg.angle_process_noise = spec.angle_process_noise;  // tracks bumps
    core::BoresightEkf ekf(fcfg);
    core::BatchLeastSquaresAligner batch;

    std::vector<double> pitch_trace;
    bool bumped = false;
    while (auto s = sc.next()) {
        if (!bumped && s->t >= 300.0) {
            sc.bump(bump);
            bumped = true;
            std::printf("t=300s: mount disturbed by (%.1f, %.1f, %.1f) deg\n",
                        math::rad2deg(bump.roll), math::rad2deg(bump.pitch),
                        math::rad2deg(bump.yaw));
        }
        const auto d = sim::decode_step(sc, *s);
        (void)ekf.step(d.f_body, d.acc_xy);
        batch.add(d.f_body, d.acc_xy);
        pitch_trace.push_back(math::rad2deg(ekf.misalignment().pitch));
    }

    util::AsciiPlot plot(110, 20);
    plot.set_title("EKF pitch estimate across the t=300s mount bump (deg)");
    plot.add_series("pitch estimate", pitch_trace, '*');
    plot.set_x_label("time 0..600 s   (bump at the midpoint)");
    std::printf("%s\n", plot.render().c_str());

    const auto final_est = ekf.misalignment();
    const auto batch_est = batch.solve().misalignment;
    const double true_final_pitch = math::rad2deg(before.pitch + bump.pitch);
    std::printf("final pitch: truth %+0.2f deg | EKF %+0.3f deg | "
                "batch-LS over the whole log %+0.3f deg\n",
                true_final_pitch, math::rad2deg(final_est.pitch),
                math::rad2deg(batch_est.pitch));
    std::printf("the batch baseline averages across the bump and lands "
                "between the two alignments;\nthe recursive filter tracks "
                "the new one — the paper's case for continuous boresighting.\n");

    const double ekf_err =
        std::abs(math::rad2deg(final_est.pitch) - true_final_pitch);
    const double batch_err =
        std::abs(math::rad2deg(batch_est.pitch) - true_final_pitch);
    return (ekf_err < 0.3 && batch_err > 2.0 * ekf_err) ? 0 : 1;
}
