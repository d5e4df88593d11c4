// The paper's §11 retuning loop as a one-dimensional noise sweep.
//
// The prototype was first tuned on the static bench, where a measurement
// noise of 0.003–0.01 m/s² matched the residuals. As soon as the vehicle
// started moving the residuals blew through their 3-sigma envelope, and the
// authors raised the assumed noise to 0.015+ m/s² by hand. This example
// reruns that episode as a TuningStudy over the city drive: a grid of fixed
// tunings spanning the static band through the retuned value, plus the
// adaptive tuner starting from the quietest static tuning — which must
// rediscover the paper's retune on its own. The §11.1 level-platform
// calibration runs before every cell, exactly like the original procedure.

#include <cstdio>

#include "system/tuning_study.hpp"
#include "util/artifacts.hpp"
#include "util/json.hpp"

using namespace ob;

int main() {
    system::TuningStudyConfig cfg;
    cfg.label = "sec11-retune";
    cfg.scenarios = {"city-drive"};
    cfg.variants = {
        {.label = "static-0.003", .meas_noise_mps2 = 0.003},
        {.label = "static-0.0075", .meas_noise_mps2 = 0.0075},
        {.label = "static-0.010", .meas_noise_mps2 = 0.010},
        {.label = "retuned-0.015", .meas_noise_mps2 = 0.015},
        {.label = "retuned-0.030", .meas_noise_mps2 = 0.030},
        {.label = "adaptive",
         .use_adaptive_tuner = true,
         .meas_noise_mps2 = 0.003},
    };
    cfg.calibration = system::FleetCalibration{.duration_s = 30.0};
    // Three vehicles' worth of instruments per tuning (a small fleet Monte
    // Carlo): the retune conclusion comes with a cross-seed spread, not a
    // single-realization point — all three share one city-drive trace.
    cfg.seeds_per_cell = 3;

    const system::TuningStudy study(cfg);
    const auto report = study.run(system::FleetRunner{});

    std::printf("§11 retune on %s (calibrated, %zu cells x %zu seeds; "
                "errors are cross-seed means ± 95%% CI)\n",
                cfg.scenarios[0].c_str(), report.cells.size(),
                cfg.seeds_per_cell);
    std::printf("%-15s %10s %10s %6s | %-15s %-15s | %s\n", "variant",
                "R start", "R final", "adj", "roll (deg)", "pitch (deg)",
                "verdict");
    double adaptive_final_r = 0.0;
    bool adaptive_ok = false;
    for (const auto& c : report.cells) {
        const auto& v = cfg.variants[c.variant_index];
        const auto& p = c.result.primary();
        const auto& s = c.result.seed_stats;
        std::printf(
            "%-15s %10.4f %10.4f %6zu | %6.3f %s%6.3f | %6.3f %s%6.3f | "
            "%s (%zu/%zu)\n",
            v.label.c_str(), v.meas_noise_mps2, p.result.meas_noise,
            p.final_status.tuner_adjustments, s.roll_err_deg.mean, "±",
            s.roll_err_deg.ci95(s.seeds), s.pitch_err_deg.mean, "±",
            s.pitch_err_deg.ci95(s.seeds),
            p.within_envelope ? "ok" : "outside", s.within_envelope, s.seeds);
        if (v.label == "adaptive") {
            adaptive_final_r = p.result.meas_noise;
            adaptive_ok = p.within_envelope;
        }
    }

    const std::string path = util::artifact_path("STUDY_sec11_retune.json");
    util::write_file(path, report.to_json());
    std::printf("\nwrote %s\n", path.c_str());

    // Acceptance: starting from the paper's quietest static tuning, the
    // adaptive loop must raise R out of the static band (>= 0.012, i.e.
    // 4x its start, landing by the paper's 0.015 retune) and stay inside
    // the scenario envelope while doing so.
    if (adaptive_final_r >= 0.012 && adaptive_ok) {
        std::printf("PASS: adaptive tuner reproduced the §11 retune "
                    "(0.003 -> %.4f m/s^2)\n",
                    adaptive_final_r);
        return 0;
    }
    std::printf("FAIL: adaptive tuner did not reproduce the retune "
                "(final R %.4f, %s)\n",
                adaptive_final_r, adaptive_ok ? "ok" : "outside envelope");
    return 1;
}
