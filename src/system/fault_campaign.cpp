#include "system/fault_campaign.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace ob::system {

void FaultCampaignConfig::validate() const {
    const auto fail = [](const std::string& what) {
        throw std::invalid_argument("FaultCampaignConfig: " + what);
    };
    if (label.empty()) fail("label must not be empty");
    if (scenarios.empty()) fail("scenario axis must not be empty");
    for (const auto& name : scenarios) {
        if (!sim::ScenarioLibrary::instance().find(name)) {
            fail("unknown scenario '" + name + "'");
        }
    }
    if (faults.empty()) fail("fault axis must not be empty");
    std::set<FaultType> seen;
    for (const auto t : faults) {
        if (!seen.insert(t).second) {
            fail(std::string("duplicate fault type '") + fault_type_name(t) +
                 "'");
        }
    }
    if (intensities.empty()) fail("intensity axis must not be empty");
    for (std::size_t i = 0; i < intensities.size(); ++i) {
        if (intensities[i] < 0.0 || intensities[i] > 1.0) {
            fail("intensities must be in [0, 1]");
        }
        if (i > 0 && intensities[i] <= intensities[i - 1]) {
            fail("intensities must be strictly increasing");
        }
    }
    if (processors.empty()) fail("processor axis must not be empty");
    if (seeds_per_cell == 0) fail("seeds_per_cell must be at least 1");
    if (seeds_per_cell > kFleetMaxSeedsPerJob) {
        fail("seeds_per_cell exceeds the FNV-1a sub-seed limit");
    }
    if (duration_s < 0.0) fail("duration override must be non-negative");
    if (burst_frames == 0) fail("burst length must be at least one frame");
    if (boundary_tolerance < 0.0) {
        fail("boundary tolerance must be non-negative");
    }
    if (boundary_tolerance > 0.0 && boundary_max_probes == 0) {
        fail("boundary probe budget must be at least 1");
    }
}

FaultOutcome classify_fault_outcome(const FleetSeedResult& s) {
    const bool diverged = s.trace.first_divergence_s >= 0.0;
    const bool alarmed = s.final_status.residual_flagged ||
                         s.final_status.supervisor_alarmed;
    if (diverged) {
        return alarmed ? FaultOutcome::kDetection : FaultOutcome::kMiss;
    }
    return alarmed ? FaultOutcome::kFalseAlarm : FaultOutcome::kTrueNegative;
}

double fault_detection_time_s(const FleetSeedResult& s) {
    double t = -1.0;
    if (s.final_status.residual_flagged &&
        s.final_status.residual_flag_s >= 0.0) {
        t = s.final_status.residual_flag_s;
    }
    if (s.final_status.supervisor_alarmed &&
        s.final_status.supervisor_alarm_s >= 0.0 &&
        (t < 0.0 || s.final_status.supervisor_alarm_s < t)) {
        t = s.final_status.supervisor_alarm_s;
    }
    return t;
}

const char* fault_outcome_name(const FaultOutcome o) {
    switch (o) {
        case FaultOutcome::kDetection: return "detection";
        case FaultOutcome::kMiss: return "miss";
        case FaultOutcome::kFalseAlarm: return "false-alarm";
        case FaultOutcome::kTrueNegative: return "true-negative";
    }
    return "?";
}

FaultCampaign::FaultCampaign(FaultCampaignConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.validate();
    // Scenario-major expansion, fault > intensity > processor innermost.
    // Order is part of the campaign's contract: report cells, job indices
    // and the boundary scan all key off it.
    jobs_.reserve(cfg_.scenarios.size() * cfg_.faults.size() *
                  cfg_.intensities.size() * cfg_.processors.size());
    for (std::size_t si = 0; si < cfg_.scenarios.size(); ++si) {
        for (std::size_t fi = 0; fi < cfg_.faults.size(); ++fi) {
            for (std::size_t ii = 0; ii < cfg_.intensities.size(); ++ii) {
                for (std::size_t pi = 0; pi < cfg_.processors.size(); ++pi) {
                    FleetJob job;
                    job.scenario = cfg_.scenarios[si];
                    job.processor = cfg_.processors[pi];
                    job.base_seed = cfg_.base_seed;
                    job.duration_s = cfg_.duration_s;
                    job.seeds_per_job = cfg_.seeds_per_cell;
                    // The fault axis is always present — a zero-intensity
                    // cell is an exact control (bitwise the un-faulted
                    // run), which is what lets the report separate the
                    // monitor's baseline false-alarm rate from its
                    // fault response.
                    job.fault = FleetFault{cfg_.faults[fi],
                                           cfg_.intensities[ii],
                                           cfg_.burst_frames};
                    job.validate();
                    FaultCampaignCell cell;
                    cell.scenario_index = si;
                    cell.fault_index = fi;
                    cell.intensity_index = ii;
                    cell.processor_index = pi;
                    shape_.push_back(cell);
                    jobs_.push_back(std::move(job));
                }
            }
        }
    }
}

namespace {

/// Reduce one cell's seed ensemble, in seed-index order, to its outcome
/// tally and mean detection latency.
[[nodiscard]] FaultCellOutcomes reduce_cell(const FleetResult& r) {
    FaultCellOutcomes o;
    double latency_sum = 0.0;
    for (const auto& s : r.seeds) {
        ++o.seeds;
        switch (classify_fault_outcome(s)) {
            case FaultOutcome::kDetection:
                ++o.detections;
                if (s.final_status.residual_flagged) ++o.residual_detections;
                if (s.final_status.supervisor_alarmed) {
                    ++o.supervisor_detections;
                }
                latency_sum += fault_detection_time_s(s) -
                               s.trace.first_divergence_s;
                break;
            case FaultOutcome::kMiss: ++o.misses; break;
            case FaultOutcome::kFalseAlarm: ++o.false_alarms; break;
            case FaultOutcome::kTrueNegative: ++o.true_negatives; break;
        }
    }
    if (o.detections > 0) {
        o.mean_detection_latency_s =
            latency_sum / static_cast<double>(o.detections);
    }
    return o;
}

}  // namespace

FaultCampaignReport FaultCampaign::run(const FleetRunner& runner) const {
    FaultCampaignReport report;
    report.config = cfg_;
    auto results = runner.run(jobs_);
    report.cells = shape_;
    for (std::size_t i = 0; i < results.size(); ++i) {
        auto& cell = report.cells[i];
        cell.result = std::move(results[i]);
        cell.outcomes = reduce_cell(cell.result);
        report.detections += cell.outcomes.detections;
        report.misses += cell.outcomes.misses;
        report.false_alarms += cell.outcomes.false_alarms;
        report.true_negatives += cell.outcomes.true_negatives;
        report.residual_detections += cell.outcomes.residual_detections;
        report.supervisor_detections += cell.outcomes.supervisor_detections;
    }

    // Boundary scan per {scenario × fault × processor} group over the
    // (strictly increasing) intensity axis. Zero-intensity control cells
    // never count: a latched alarm there is baseline false-alarm behavior,
    // not a fault response, and an un-faulted divergence is a scenario
    // problem the intensity axis can't map.
    const std::size_t ni = cfg_.intensities.size();
    const std::size_t np = cfg_.processors.size();
    for (std::size_t si = 0; si < cfg_.scenarios.size(); ++si) {
        for (std::size_t fi = 0; fi < cfg_.faults.size(); ++fi) {
            for (std::size_t pi = 0; pi < np; ++pi) {
                FaultBoundary b;
                b.scenario_index = si;
                b.fault_index = fi;
                b.processor_index = pi;
                double lowest_miss = -1.0;
                double lowest_clean_detect = -1.0;
                double highest_clean_detect = -1.0;
                for (std::size_t ii = 0; ii < ni; ++ii) {
                    if (cfg_.intensities[ii] <= 0.0) continue;
                    const double intensity = cfg_.intensities[ii];
                    const std::size_t idx =
                        ((si * cfg_.faults.size() + fi) * ni + ii) * np + pi;
                    const auto& o = report.cells[idx].outcomes;
                    if (o.detections > 0 &&
                        b.lowest_detected_intensity < 0.0) {
                        b.lowest_detected_intensity = intensity;
                    }
                    if (o.misses > 0) {
                        b.highest_missed_intensity = intensity;
                        if (lowest_miss < 0.0) lowest_miss = intensity;
                    }
                    if (o.detections > 0 && o.misses == 0) {
                        if (lowest_clean_detect < 0.0) {
                            lowest_clean_detect = intensity;
                        }
                        highest_clean_detect = intensity;
                    }
                }
                // Demonstrated boundary: a miss-regime cell and a
                // clean-detection cell at different intensities in the
                // same group. The orientation records which side the
                // blind region sits on.
                if (lowest_miss >= 0.0 && highest_clean_detect >= 0.0) {
                    b.boundary_demonstrated = true;
                    b.miss_region_above =
                        lowest_miss > highest_clean_detect;
                }
                report.boundaries.push_back(b);
            }
        }
    }

    if (cfg_.boundary_tolerance > 0.0) refine_boundaries(report, runner);
    return report;
}

FleetJob FaultCampaign::probe_job(const std::size_t scenario_index,
                                  const std::size_t fault_index,
                                  const std::size_t processor_index,
                                  const double intensity) const {
    FleetJob job;
    job.scenario = cfg_.scenarios[scenario_index];
    job.processor = cfg_.processors[processor_index];
    job.base_seed = cfg_.base_seed;
    job.duration_s = cfg_.duration_s;
    job.seeds_per_job = cfg_.seeds_per_cell;
    job.fault = FleetFault{cfg_.faults[fault_index], intensity,
                           cfg_.burst_frames};
    job.validate();
    return job;
}

void FaultCampaign::refine_boundaries(FaultCampaignReport& report,
                                      const FleetRunner& runner) const {
    // Classification of a rung/probe ensemble along the search axis: any
    // missed divergence puts the intensity on the miss side; everything
    // else (clean detection, or no divergence at all) on the detect side.
    // The refined edge is therefore "where silent misses begin", whichever
    // orientation the group showed on the rung grid.
    const auto missed = [](const FaultCellOutcomes& o) {
        return o.misses > 0;
    };

    struct Search {
        FaultBoundaryRefinement out;
        bool active = true;
    };
    std::vector<Search> searches;

    const std::size_t ni = cfg_.intensities.size();
    const std::size_t np = cfg_.processors.size();
    for (const auto& b : report.boundaries) {
        if (!b.boundary_demonstrated) continue;
        // Bracket: the first adjacent pair of classified rungs (in axis
        // order) whose miss-side classification flips.
        Search s;
        s.out.scenario_index = b.scenario_index;
        s.out.fault_index = b.fault_index;
        s.out.processor_index = b.processor_index;
        s.out.miss_region_above = b.miss_region_above;
        bool have_prev = false;
        bool prev_missed = false;
        double prev_intensity = 0.0;
        bool bracketed = false;
        for (std::size_t ii = 0; ii < ni && !bracketed; ++ii) {
            if (cfg_.intensities[ii] <= 0.0) continue;
            const std::size_t idx =
                ((b.scenario_index * cfg_.faults.size() + b.fault_index) *
                     ni +
                 ii) *
                    np +
                b.processor_index;
            const auto& o = report.cells[idx].outcomes;
            // Rungs with neither a miss nor a detection carry no boundary
            // evidence (the fault never diverged the estimate); skip them
            // so the bracket ends on informative rungs.
            if (o.misses == 0 && o.detections == 0) continue;
            const bool m = missed(o);
            if (have_prev && m != prev_missed) {
                s.out.miss_edge = m ? cfg_.intensities[ii] : prev_intensity;
                s.out.detect_edge =
                    m ? prev_intensity : cfg_.intensities[ii];
                bracketed = true;
            }
            have_prev = true;
            prev_missed = m;
            prev_intensity = cfg_.intensities[ii];
        }
        if (bracketed) searches.push_back(std::move(s));
    }

    // Bisect all active groups in lockstep rounds: one fleet batch per
    // round, consumed in group order — the refinement is a pure function
    // of deterministic probe outcomes, so it is as thread-count-
    // independent as the rung grid.
    const auto width = [](const Search& s) {
        return std::abs(s.out.miss_edge - s.out.detect_edge);
    };
    for (;;) {
        std::vector<std::size_t> active;
        std::vector<FleetJob> batch;
        for (std::size_t k = 0; k < searches.size(); ++k) {
            auto& s = searches[k];
            if (!s.active) continue;
            if (width(s) <= cfg_.boundary_tolerance) {
                s.out.converged = true;
                s.active = false;
                continue;
            }
            if (s.out.probes.size() >= cfg_.boundary_max_probes) {
                s.active = false;
                continue;
            }
            const double mid =
                0.5 * (s.out.detect_edge + s.out.miss_edge);
            active.push_back(k);
            batch.push_back(probe_job(s.out.scenario_index,
                                      s.out.fault_index,
                                      s.out.processor_index, mid));
        }
        if (batch.empty()) break;
        auto results = runner.run(batch);
        for (std::size_t j = 0; j < active.size(); ++j) {
            auto& s = searches[active[j]];
            FaultBoundaryProbe probe;
            probe.intensity = batch[j].fault->intensity;
            probe.outcomes = reduce_cell(results[j]);
            for (const auto& seed : results[j].seeds) {
                probe.epochs += seed.trace.epochs;
            }
            if (missed(probe.outcomes)) {
                s.out.miss_edge = probe.intensity;
            } else {
                s.out.detect_edge = probe.intensity;
            }
            s.out.probes.push_back(std::move(probe));
        }
    }

    report.refinements.reserve(searches.size());
    for (auto& s : searches) {
        report.refinements.push_back(std::move(s.out));
    }
}

std::string FaultCampaignReport::to_json() const {
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("fault_campaign");
    w.key("campaign").value(config.label);
    w.key("base_seed").value(config.base_seed);
    w.key("duration_s").value(config.duration_s);
    w.key("seeds_per_cell").value(config.seeds_per_cell);
    w.key("burst_frames").value(config.burst_frames);

    w.key("axes").begin_object();
    w.key("scenarios").begin_array();
    for (const auto& s : config.scenarios) w.value(s);
    w.end_array();
    w.key("faults").begin_array();
    for (const auto t : config.faults) w.value(fault_type_name(t));
    w.end_array();
    w.key("intensities").begin_array();
    for (const auto i : config.intensities) w.value(i);
    w.end_array();
    w.key("processors").begin_array();
    for (const auto p : config.processors) w.value(processor_name(p));
    w.end_array();
    w.end_object();

    w.key("cells").begin_array();
    for (const auto& c : cells) {
        const auto& r = c.result;
        const auto& o = c.outcomes;
        w.begin_object();
        w.key("scenario").value(r.scenario);
        w.key("fault").value(fault_type_name(config.faults[c.fault_index]));
        w.key("intensity").value(config.intensities[c.intensity_index]);
        w.key("processor").value(processor_name(r.processor));
        w.key("indices").begin_array();
        w.value(c.scenario_index);
        w.value(c.fault_index);
        w.value(c.intensity_index);
        w.value(c.processor_index);
        w.end_array();
        w.key("seeds").value(o.seeds);
        w.key("detections").value(o.detections);
        w.key("misses").value(o.misses);
        w.key("false_alarms").value(o.false_alarms);
        w.key("true_negatives").value(o.true_negatives);
        w.key("residual_detections").value(o.residual_detections);
        w.key("supervisor_detections").value(o.supervisor_detections);
        w.key("mean_detection_latency_s").value(o.mean_detection_latency_s);
        w.key("epochs").value(r.primary().trace.epochs);
        w.key("realizations").begin_array();
        for (const auto& s : r.seeds) {
            w.begin_object();
            w.key("outcome").value(
                fault_outcome_name(classify_fault_outcome(s)));
            w.key("diverged").value(s.trace.first_divergence_s >= 0.0);
            w.key("first_divergence_s").value(s.trace.first_divergence_s);
            w.key("flagged").value(s.final_status.residual_flagged);
            w.key("flag_s").value(s.final_status.residual_flag_s);
            w.key("windowed_rate").value(s.final_status.residual_windowed_rate);
            w.key("exceedances").value(s.final_status.residual_exceedances);
            w.key("health").value(
                health_state_name(s.final_status.worst_health));
            w.key("supervisor_alarmed").value(
                s.final_status.supervisor_alarmed);
            w.key("supervisor_alarm_s").value(
                s.final_status.supervisor_alarm_s);
            w.key("delivery_rates").begin_array();
            w.value(s.final_status.dmu_delivery_rate);
            w.value(s.final_status.acc_delivery_rate);
            w.end_array();
            w.key("coast_s").value(s.final_status.coast_s);
            w.key("recoveries").value(s.final_status.recoveries);
            w.key("reconvergence_s").value(s.final_status.reconvergence_s);
            w.key("acc_implausible").value(s.final_status.acc_implausible);
            w.key("dmu_frames_lost").value(s.final_status.dmu_frames_lost);
            w.key("acc_packets_lost").value(s.final_status.acc_packets_lost);
            w.key("fault_window_s").begin_array();
            w.value(s.trace.fault_window_start_s);
            w.value(s.trace.fault_window_duration_s);
            w.end_array();
            w.key("worst_err_deg").begin_array();
            w.value(s.trace.worst_roll_err_deg);
            w.value(s.trace.worst_pitch_err_deg);
            w.value(s.trace.worst_yaw_err_deg);
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();

    w.key("boundaries").begin_array();
    for (const auto& b : boundaries) {
        w.begin_object();
        w.key("scenario").value(config.scenarios[b.scenario_index]);
        w.key("fault").value(fault_type_name(config.faults[b.fault_index]));
        w.key("processor").value(
            processor_name(config.processors[b.processor_index]));
        w.key("lowest_detected_intensity")
            .value(b.lowest_detected_intensity);
        w.key("highest_missed_intensity").value(b.highest_missed_intensity);
        w.key("boundary_demonstrated").value(b.boundary_demonstrated);
        w.key("miss_region_above").value(b.miss_region_above);
        w.end_object();
    }
    w.end_array();

    w.key("boundary_search").begin_object();
    w.key("tolerance").value(config.boundary_tolerance);
    w.key("max_probes").value(config.boundary_max_probes);
    w.key("refinements").begin_array();
    for (const auto& r : refinements) {
        w.begin_object();
        w.key("scenario").value(config.scenarios[r.scenario_index]);
        w.key("fault").value(fault_type_name(config.faults[r.fault_index]));
        w.key("processor").value(
            processor_name(config.processors[r.processor_index]));
        w.key("miss_region_above").value(r.miss_region_above);
        w.key("detect_edge").value(r.detect_edge);
        w.key("miss_edge").value(r.miss_edge);
        w.key("converged").value(r.converged);
        w.key("probes").begin_array();
        for (const auto& p : r.probes) {
            w.begin_object();
            w.key("intensity").value(p.intensity);
            w.key("detections").value(p.outcomes.detections);
            w.key("misses").value(p.outcomes.misses);
            w.key("false_alarms").value(p.outcomes.false_alarms);
            w.key("true_negatives").value(p.outcomes.true_negatives);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();

    std::size_t demonstrated = 0;
    for (const auto& b : boundaries) {
        if (b.boundary_demonstrated) ++demonstrated;
    }
    std::size_t probe_count = 0;
    for (const auto& r : refinements) probe_count += r.probes.size();
    w.key("summary").begin_object();
    w.key("cells").value(cells.size());
    w.key("realizations").value(cells.size() * config.seeds_per_cell);
    w.key("detections").value(detections);
    w.key("misses").value(misses);
    w.key("false_alarms").value(false_alarms);
    w.key("true_negatives").value(true_negatives);
    w.key("residual_detections").value(residual_detections);
    w.key("supervisor_detections").value(supervisor_detections);
    w.key("boundaries_demonstrated").value(demonstrated);
    w.key("boundaries_refined").value(refinements.size());
    w.key("boundary_probes").value(probe_count);
    w.end_object();
    w.end_object();
    return w.str();
}

}  // namespace ob::system
