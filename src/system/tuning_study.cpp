#include "system/tuning_study.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace ob::system {

using math::rad2deg;

void TuningStudyConfig::validate() const {
    const auto fail = [](const std::string& what) {
        throw std::invalid_argument("TuningStudyConfig: " + what);
    };
    if (label.empty()) fail("label must not be empty");
    if (scenarios.empty()) fail("scenario axis must not be empty");
    for (const auto& name : scenarios) {
        if (!sim::ScenarioLibrary::instance().find(name)) {
            fail("unknown scenario '" + name + "'");
        }
    }
    if (variants.empty()) fail("tuner-variant axis must not be empty");
    std::set<std::string> labels;
    for (const auto& v : variants) {
        if (v.label.empty()) fail("variant labels must not be empty");
        if (!labels.insert(v.label).second) {
            fail("duplicate variant label '" + v.label + "'");
        }
        if (v.meas_noise_mps2 < 0.0) {
            fail("variant '" + v.label +
                 "': measurement noise must be non-negative (0 => spec)");
        }
        if (v.use_adaptive_tuner) v.tuner.validate();
    }
    if (processors.empty()) fail("processor axis must not be empty");
    if (duration_s < 0.0) fail("duration override must be non-negative");
    if (seeds_per_cell == 0) fail("seeds_per_cell must be at least 1");
    if (seeds_per_cell > kFleetMaxSeedsPerJob) {
        fail("seeds_per_cell exceeds the FNV-1a sub-seed limit");
    }
    if (calibration) calibration->validate();
}

TuningStudy::TuningStudy(TuningStudyConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.validate();
    // Scenario-major expansion; the misalignment axis contributes one
    // "spec default" entry when empty. Order is part of the study's
    // contract: report cells, job indices and any sharding all key off it.
    const std::size_t mis_count =
        cfg_.misalignments.empty() ? 1 : cfg_.misalignments.size();
    jobs_.reserve(cfg_.scenarios.size() * mis_count * cfg_.variants.size() *
                  cfg_.processors.size());
    for (std::size_t si = 0; si < cfg_.scenarios.size(); ++si) {
        for (std::size_t mi = 0; mi < mis_count; ++mi) {
            for (std::size_t vi = 0; vi < cfg_.variants.size(); ++vi) {
                for (std::size_t pi = 0; pi < cfg_.processors.size(); ++pi) {
                    const auto& variant = cfg_.variants[vi];
                    FleetJob job;
                    job.scenario = cfg_.scenarios[si];
                    job.processor = cfg_.processors[pi];
                    job.base_seed = cfg_.base_seed;
                    job.duration_s = cfg_.duration_s;
                    if (!cfg_.misalignments.empty()) {
                        job.misalignment = cfg_.misalignments[mi];
                    }
                    job.calibration = cfg_.calibration;
                    job.seeds_per_job = cfg_.seeds_per_cell;
                    job.use_adaptive_tuner = variant.use_adaptive_tuner;
                    if (variant.use_adaptive_tuner) {
                        job.tuner = variant.tuner;
                    }
                    if (variant.meas_noise_mps2 > 0.0) {
                        job.meas_noise_mps2 = variant.meas_noise_mps2;
                    }
                    job.validate();
                    TuningStudyCell cell;
                    cell.scenario_index = si;
                    cell.misalignment_index = mi;
                    cell.variant_index = vi;
                    cell.processor_index = pi;
                    shape_.push_back(cell);
                    jobs_.push_back(std::move(job));
                }
            }
        }
    }
}

TuningStudyReport TuningStudy::run(const FleetRunner& runner) const {
    TuningStudyReport report;
    report.config = cfg_;
    auto results = runner.run(jobs_);
    report.cells = shape_;
    for (std::size_t i = 0; i < results.size(); ++i) {
        auto& cell = report.cells[i];
        cell.result = std::move(results[i]);
        if (cell.result.primary().within_envelope) ++report.within_envelope;
    }
    return report;
}

namespace {

void write_angles_deg(util::JsonWriter& w, const math::EulerAngles& e) {
    w.begin_array();
    w.value(rad2deg(e.roll));
    w.value(rad2deg(e.pitch));
    w.value(rad2deg(e.yaw));
    w.end_array();
}

/// Ensemble reduction of one metric: mean, sample σ and the 95%
/// confidence half-width — the interval the seed axis turns a
/// single-realization verdict into.
void write_metric_stats(util::JsonWriter& w, const char* name,
                        const FleetMetricStats& m, std::size_t n) {
    w.key(name).begin_object();
    w.key("mean").value(m.mean);
    w.key("std").value(m.stddev);
    w.key("ci95").value(m.ci95(n));
    w.end_object();
}

void write_seed_stats(util::JsonWriter& w, const FleetSeedStats& s) {
    w.key("seed_stats").begin_object();
    w.key("seeds").value(s.seeds);
    w.key("within_envelope").value(s.within_envelope);
    w.key("pass_fraction")
        .value(s.seeds > 0 ? static_cast<double>(s.within_envelope) /
                                 static_cast<double>(s.seeds)
                           : 0.0);
    write_metric_stats(w, "worst_roll_err_deg", s.roll_err_deg, s.seeds);
    write_metric_stats(w, "worst_pitch_err_deg", s.pitch_err_deg, s.seeds);
    write_metric_stats(w, "worst_yaw_err_deg", s.yaw_err_deg, s.seeds);
    write_metric_stats(w, "residual_rms_mps2", s.residual_rms, s.seeds);
    w.end_object();
}

void write_variant(util::JsonWriter& w, const TunerVariant& v) {
    w.begin_object();
    w.key("label").value(v.label);
    w.key("use_adaptive_tuner").value(v.use_adaptive_tuner);
    w.key("meas_noise_mps2").value(v.meas_noise_mps2);
    if (v.use_adaptive_tuner) {
        w.key("tuner").begin_object();
        w.key("floor_mps2").value(v.tuner.floor_mps2);
        w.key("ceiling_mps2").value(v.tuner.ceiling_mps2);
        w.key("raise_threshold").value(v.tuner.raise_threshold);
        w.key("lower_threshold").value(v.tuner.lower_threshold);
        w.key("raise_factor").value(v.tuner.raise_factor);
        w.key("lower_factor").value(v.tuner.lower_factor);
        w.key("window").value(v.tuner.window);
        w.key("min_samples").value(v.tuner.min_samples);
        w.end_object();
    }
    w.end_object();
}

}  // namespace

std::string TuningStudyReport::to_json() const {
    util::JsonWriter w;
    w.begin_object();
    w.key("study").value(config.label);
    w.key("base_seed").value(config.base_seed);
    w.key("duration_s").value(config.duration_s);
    w.key("seeds_per_cell").value(config.seeds_per_cell);
    w.key("calibration").begin_object();
    w.key("enabled").value(config.calibration.has_value());
    if (config.calibration) {
        w.key("duration_s").value(config.calibration->duration_s);
    }
    w.end_object();

    w.key("axes").begin_object();
    w.key("scenarios").begin_array();
    for (const auto& s : config.scenarios) w.value(s);
    w.end_array();
    w.key("misalignments_deg").begin_array();
    for (const auto& m : config.misalignments) write_angles_deg(w, m);
    w.end_array();
    w.key("variants").begin_array();
    for (const auto& v : config.variants) write_variant(w, v);
    w.end_array();
    w.key("processors").begin_array();
    for (const auto p : config.processors) w.value(processor_name(p));
    w.end_array();
    w.end_object();

    w.key("cells").begin_array();
    for (const auto& c : cells) {
        const auto& r = c.result;
        const FleetSeedResult& p = r.primary();
        w.begin_object();
        w.key("scenario").value(r.scenario);
        w.key("variant").value(config.variants[c.variant_index].label);
        w.key("processor").value(processor_name(r.processor));
        w.key("indices").begin_array();
        w.value(c.scenario_index);
        w.value(c.misalignment_index);
        w.value(c.variant_index);
        w.value(c.processor_index);
        w.end_array();
        w.key("truth_deg");
        write_angles_deg(w, p.result.truth);
        w.key("estimate_deg");
        write_angles_deg(w, p.result.estimate);
        w.key("sigma3_deg").begin_array();
        for (std::size_t i = 0; i < 3; ++i) w.value(rad2deg(p.result.sigma3_rad[i]));
        w.end_array();
        w.key("residual_rms_mps2").value(p.result.residual_rms);
        w.key("final_meas_noise_mps2").value(p.result.meas_noise);
        w.key("tuner_adjustments").value(p.final_status.tuner_adjustments);
        w.key("within_envelope").value(p.within_envelope);
        w.key("epochs").value(p.trace.epochs);
        w.key("updates").value(p.final_status.updates);
        w.key("worst_err_deg").begin_array();
        w.value(p.trace.worst_roll_err_deg);
        w.value(p.trace.worst_pitch_err_deg);
        w.value(p.trace.worst_yaw_err_deg);
        w.end_array();
        w.key("calibrated_bias_mps2").begin_array();
        w.value(p.calibrated_bias[0]);
        w.value(p.calibrated_bias[1]);
        w.end_array();
        w.key("calibration_samples").value(p.calibration_samples);
        write_seed_stats(w, r.seed_stats);
        w.end_object();
    }
    w.end_array();

    std::size_t all_seeds_ok = 0;
    for (const auto& c : cells) {
        if (c.result.seed_stats.within_envelope == c.result.seed_stats.seeds) {
            ++all_seeds_ok;
        }
    }
    w.key("summary").begin_object();
    w.key("cells").value(cells.size());
    w.key("within_envelope").value(within_envelope);
    w.key("outside_envelope").value(cells.size() - within_envelope);
    w.key("seeds_per_cell").value(config.seeds_per_cell);
    w.key("all_seeds_within_envelope").value(all_seeds_ok);
    w.end_object();
    w.end_object();
    return w.str();
}

}  // namespace ob::system
