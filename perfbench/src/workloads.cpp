#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "percentile.hpp"
#include "replay.hpp"
#include "sabre/firmware.hpp"
#include "sim/scenario_library.hpp"
#include "system/fault_campaign.hpp"
#include "system/fleet.hpp"
#include "system/fleet_client.hpp"
#include "system/fleet_serve.hpp"
#include "system/fleet_shard.hpp"
#include "util/alloc_counter.hpp"
#include "util/wire.hpp"

namespace perfbench {

namespace {

using namespace ob;
using Processor = system::BoresightSystem::Processor;
using system::FleetJob;
using system::FleetResult;

/// Every library scenario samples at 100 Hz, so a realization's fused
/// sensor time is its epoch count over this rate.
constexpr double kSampleRateHz = 100.0;

/// Output digests at kDefaultSeed. A change that moves any of them changes
/// what the program computes, not how fast.
constexpr std::uint64_t kPinnedLibraryRegression = 0xae6267f09a19566bull;
constexpr std::uint64_t kPinnedMonteCarlo = 0x41e3b591e482ebc2ull;
constexpr std::uint64_t kPinnedFaultCampaign = 0x83fbb5bd7f3057b9ull;
constexpr std::uint64_t kPinnedServeMixed = 0x216fb81583efd0d8ull;

/// bench/fault_campaign's outcome totals (base seed 2026), which the
/// fault-campaign workload reproduces at kDefaultSeed.
struct FaultTotals {
    std::size_t detections, misses, false_alarms, true_negatives,
        residual_detections, supervisor_detections, boundaries_demonstrated,
        probes;
};
constexpr FaultTotals kPinnedFaultTotals{61, 1, 87, 91, 35, 37, 1, 4};

/// The library's moving-vehicle scenarios.
const std::vector<std::string>& drive_scenarios() {
    static const std::vector<std::string> names = {
        "city-drive",      "highway-drive",    "banked-curve", "pothole-grid",
        "emergency-brake", "washboard-gravel", "trailer-sway", "stop-and-go"};
    return names;
}

double epochs_to_s(std::uint64_t epochs) {
    return static_cast<double>(epochs) / kSampleRateHz;
}

std::uint64_t seed_result_digest(const std::vector<system::FleetSeedResult>& seeds,
                                 std::size_t count) {
    Fnv64 h;
    for (std::size_t k = 0; k < count && k < seeds.size(); ++k) {
        util::ByteWriter w;
        system::encode_seed_result(w, seeds[k]);
        h.add(w.data());
    }
    return h.h;
}

// ---------------------------------------------------------------------------
// Attribution: the replay's per-epoch costs applied to the real work counts.
// ---------------------------------------------------------------------------

/// Realization epochs by the path the runner sends them down, plus the
/// epochs of the traces the runner builds for them.
struct WorkShape {
    double epochs[kPathClasses] = {0.0, 0.0, 0.0};
    double build_epochs = 0.0;
    std::uint64_t builds = 0;
    std::uint64_t realizations = 0;
    std::uint64_t batchable_realizations = 0;
};

/// The runner's lane cap for one ensemble unit (src/system/fleet.cpp).
constexpr std::size_t kMaxBatchLanes = 32;

[[nodiscard]] bool batchable(const FleetJob& job) {
    return job.processor == Processor::kNative &&
           (!job.fault || job.fault->intensity <= 0.0);
}

void add_job_work(const FleetJob& job, const std::vector<std::uint64_t>& seed_epochs,
                  WorkShape& w) {
    const std::size_t n = seed_epochs.size();
    w.realizations += n;
    for (std::size_t k = 0; k < n; ++k) {
        PathClass c = PathClass::kNativeScalar;
        if (job.processor == Processor::kSabre) {
            c = PathClass::kSabreScalar;
        } else if (batchable(job)) {
            // Consecutive seeds merge into units of up to 32 lanes; a unit
            // of one lane runs scalar.
            const std::size_t chunk_start = k - k % kMaxBatchLanes;
            const std::size_t chunk = std::min(kMaxBatchLanes, n - chunk_start);
            if (chunk > 1) {
                c = PathClass::kEnsemble;
                ++w.batchable_realizations;
            }
        }
        w.epochs[static_cast<std::size_t>(c)] +=
            static_cast<double>(seed_epochs[k]);
    }
}

/// Trace builds one FleetRunner::run over `jobs` performs: one per trace
/// identity (scenario, base seed, duration, calibration dwell).
void add_builds(const std::vector<FleetJob>& jobs,
                const std::vector<std::uint64_t>& primary_epochs, WorkShape& w) {
    using Key = std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>;
    std::set<Key> seen;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto& job = jobs[j];
        const auto& spec = sim::ScenarioLibrary::instance().at(job.scenario);
        const double duration = job.duration_s > 0.0 ? job.duration_s : spec.duration_s;
        const auto bits = std::bit_cast<std::uint64_t>(duration);
        if (seen.insert({job.scenario, job.base_seed, bits, 0}).second) {
            ++w.builds;
            w.build_epochs += static_cast<double>(primary_epochs[j]);
        }
        if (job.calibration) {
            const auto dwell = job.calibration->duration_s;
            if (seen.insert({job.scenario, job.base_seed, bits,
                             std::bit_cast<std::uint64_t>(dwell)})
                    .second) {
                ++w.builds;
                w.build_epochs += dwell * kSampleRateHz;
            }
        }
    }
}

struct Attribution {
    double trace = 0.0, realize = 0.0, comm = 0.0, feed = 0.0, ensemble = 0.0,
           ekf = 0.0, sabre = 0.0;
    [[nodiscard]] double total() const {
        return trace + realize + comm + feed + ensemble + ekf + sabre;
    }
};

Attribution attribute(const ReplayReport& rr, const WorkShape& w) {
    Attribution a;
    a.trace = w.build_epochs * rr.trace_s_per_epoch;
    for (std::size_t c = 0; c < kPathClasses; ++c) {
        const ClassCost& cost = rr.cls[c];
        const double e = w.epochs[c];
        a.realize += e * cost.realize;
        a.ekf += e * cost.ekf;
        a.sabre += e * cost.sabre;
        if (c == static_cast<std::size_t>(PathClass::kEnsemble)) {
            a.ensemble += e * cost.feed_self();
        } else {
            a.comm += e * cost.comm;
            a.feed += e * cost.feed_self();
        }
    }
    return a;
}

/// Every per-layer metric, zero until measured: a layer a workload does not
/// cross reads 0 rather than going missing.
void init_layer_table(MetricTable& t) {
    const std::pair<const char*, const char*> names[] = {
        {"plan.us_per_batch", "us"},
        {"trace.us_per_epoch", "us"},
        {"trace.builds", "count"},
        {"trace.realizations_per_build", "count"},
        {"realize.ns_per_lane_epoch", "ns"},
        {"comm.encode_send_ns", "ns"},
        {"comm.can_advance_ns", "ns"},
        {"comm.uart_drain_ns", "ns"},
        {"comm.codec_ns", "ns"},
        {"comm.wire_bytes_per_epoch", "bytes"},
        {"comm.frames_lost", "count"},
        {"feed.ns_per_epoch", "ns"},
        {"feed.allocs_per_epoch", "count"},
        {"feed.updates_per_epoch", "count"},
        {"ensemble.ns_per_lane_epoch", "ns"},
        {"ensemble.allocs_per_epoch", "count"},
        {"ensemble.lanes_eligible_frac_computed", "frac"},
        {"ekf.ns_per_update", "ns"},
        {"ekf.ns_per_lane_update", "ns"},
        {"detectors.residual_exceedances", "count"},
        {"detectors.alarms", "count"},
        {"detectors.coast_s", "s"},
        {"sabre.us_per_epoch", "us"},
        {"sabre.instructions_per_epoch", "count"},
        {"sabre.cycles_per_epoch", "count"},
        {"sabre.fpu_ops_per_epoch", "count"},
        {"reduce.us_per_job", "us"},
        {"runner.thread_s", "s"},
        {"runner.scaling_eff", "frac"},
        {"runner.unexplained_frac", "frac"},
        {"serve.server_ms", "ms"},
        {"serve.overhead_ms", "ms"},
        {"serve.expand_us", "us"},
        {"serve.encode_us", "us"},
        {"serve.decode_us", "us"},
        {"serve.frames_per_request", "count"},
        {"serve.bytes_per_request", "bytes"},
        {"alloc.per_realization", "count"},
        {"share.system.plan", "frac"},
        {"share.sim.trace", "frac"},
        {"share.sim.realize", "frac"},
        {"share.comm", "frac"},
        {"share.system.feed", "frac"},
        {"share.system.ensemble", "frac"},
        {"share.core.ekf", "frac"},
        {"share.sabre", "frac"},
        {"share.system.reduce", "frac"},
        {"share.system.serve", "frac"},
        {"unattributed_frac", "frac"},
        {"tracing_overhead_frac", "frac"},
    };
    for (const auto& [name, unit] : names) t.set(name, 0.0, unit);
}

void set_replay_metrics(MetricTable& t, const ReplayReport& rr) {
    t.set("trace.us_per_epoch", 1e6 * rr.trace_s_per_epoch, "us");
    t.set("realize.ns_per_lane_epoch", 1e9 * rr.realize_s_per_lane_epoch, "ns");
    t.set("comm.encode_send_ns", 1e9 * rr.comm_encode_send_s, "ns");
    t.set("comm.can_advance_ns", 1e9 * rr.comm_can_advance_s, "ns");
    t.set("comm.uart_drain_ns", 1e9 * rr.comm_uart_drain_s, "ns");
    t.set("comm.codec_ns", 1e9 * rr.comm_codec_s, "ns");
    t.set("comm.wire_bytes_per_epoch", rr.wire_bytes_per_epoch, "bytes");
    t.set("feed.ns_per_epoch", 1e9 * rr.feed_s_per_epoch, "ns");
    t.set("feed.allocs_per_epoch", rr.feed_allocs_per_epoch, "count");
    t.set("feed.updates_per_epoch", rr.feed_updates_per_epoch, "count");
    t.set("ensemble.ns_per_lane_epoch", 1e9 * rr.ensemble_s_per_lane_epoch, "ns");
    t.set("ensemble.allocs_per_epoch", rr.ensemble_allocs_per_epoch, "count");
    t.set("ekf.ns_per_update", 1e9 * rr.ekf_s_per_update, "ns");
    t.set("ekf.ns_per_lane_update", 1e9 * rr.ekf_s_per_lane_update, "ns");
    t.set("sabre.us_per_epoch", 1e6 * rr.sabre_s_per_epoch, "us");
    t.set("sabre.instructions_per_epoch", rr.sabre_instructions_per_epoch, "count");
    t.set("sabre.cycles_per_epoch", rr.sabre_cycles_per_epoch, "count");
    t.set("sabre.fpu_ops_per_epoch", rr.sabre_fpu_ops_per_epoch, "count");
    t.set("unattributed_frac",
          rr.wall_s > 0.0 ? 1.0 - rr.spans_s / rr.wall_s : 0.0, "frac");
}

/// Layer shares of the measured thread time `total_s`, and the runner's
/// unexplained remainder against its own thread time.
void set_shares(MetricTable& t, const Attribution& a, double plan_s,
                double reduce_s, double serve_s, double total_s) {
    const auto share = [&](const char* name, double s) {
        t.set(name, total_s > 0.0 ? s / total_s : 0.0, "frac");
    };
    share("share.system.plan", plan_s);
    share("share.sim.trace", a.trace);
    share("share.sim.realize", a.realize);
    share("share.comm", a.comm);
    share("share.system.feed", a.feed);
    share("share.system.ensemble", a.ensemble);
    share("share.core.ekf", a.ekf);
    share("share.sabre", a.sabre);
    share("share.system.reduce", reduce_s);
    share("share.system.serve", serve_s);
}

// ---------------------------------------------------------------------------
// Batch workloads: library-regression, monte-carlo, fault-campaign.
// ---------------------------------------------------------------------------

/// One timed unit: a FleetRunner::run call, or a FaultCampaign::run call.
struct BatchUnit {
    std::string label;
    std::vector<FleetJob> jobs;  ///< the run() batch, or the campaign's cells
    std::optional<system::FaultCampaignConfig> campaign;
};

struct BatchSpec {
    std::vector<BatchUnit> units;  ///< one pass over the workload, in order
    std::vector<Shape> shapes;     ///< the component replay's sample
    std::uint64_t pinned_digest = 0;
    /// Per unit, the jobs the reference check re-runs through
    /// run_fleet_job, and how many of each job's seeds (0 = all).
    std::vector<std::vector<std::size_t>> reference_jobs;
    std::uint64_t reference_seeds = 0;
    bool fault_totals = false;
};

BatchSpec library_regression(std::uint64_t seed) {
    BatchSpec spec;
    for (std::uint64_t k = 0; k < 4; ++k) {
        const std::uint64_t base = fold_base_seed(seed, k);
        auto jobs = system::full_library_jobs(Processor::kNative, base);
        const auto sabre = system::full_library_jobs(Processor::kSabre, base);
        jobs.insert(jobs.end(), sabre.begin(), sabre.end());
        spec.reference_jobs.push_back({(7 * k + 3) % jobs.size()});
        spec.units.push_back({"base-" + std::to_string(base), std::move(jobs), {}});
    }
    for (const auto& s : sim::ScenarioLibrary::instance().all()) {
        for (const auto p : {Processor::kNative, Processor::kSabre}) {
            spec.shapes.push_back({s.name, p, {}, 1, 30.0, fold_base_seed(seed, 0), {}});
        }
    }
    spec.pinned_digest = kPinnedLibraryRegression;
    return spec;
}

BatchSpec monte_carlo(std::uint64_t seed) {
    BatchSpec spec;
    const std::uint64_t base = fold_base_seed(seed, 0);
    const auto& names = drive_scenarios();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<FleetJob> jobs;
        for (const double meas_noise : {0.0, 0.015}) {  // spec, §11 retuned
            FleetJob job;
            job.scenario = names[i];
            job.base_seed = base;
            job.duration_s = 60.0;
            job.seeds_per_job = 128;
            if (meas_noise > 0.0) job.meas_noise_mps2 = meas_noise;
            jobs.push_back(std::move(job));
        }
        spec.reference_jobs.push_back({i % 2});
        spec.units.push_back({names[i], std::move(jobs), {}});
        spec.shapes.push_back({names[i], Processor::kNative, {}, kMaxBatchLanes, 20.0,
                               base, i % 2 == 1 ? std::optional<double>(0.015)
                                                : std::nullopt});
    }
    spec.reference_seeds = 3;
    spec.pinned_digest = kPinnedMonteCarlo;
    return spec;
}

/// bench/fault_campaign's grid, one unit per fault type. Bisection refines
/// each {scenario x fault x processor} group on its own, so the units
/// together run exactly the cells and probes of the full campaign.
BatchSpec fault_campaign(std::uint64_t seed) {
    BatchSpec spec;
    system::FaultCampaignConfig cfg;
    cfg.label = "fault-envelope";
    cfg.scenarios = {"static-level", "city-drive"};
    cfg.intensities = {0.0, 0.02, 0.14, 0.4};
    cfg.processors = {Processor::kNative, Processor::kSabre};
    cfg.seeds_per_cell = 3;
    cfg.duration_s = 150.0;
    cfg.boundary_tolerance = 0.02;
    cfg.boundary_max_probes = 8;
    cfg.base_seed = fold_base_seed(seed, 0);
    const system::FaultType faults[] = {
        system::FaultType::kUartDropout, system::FaultType::kUartCorruption,
        system::FaultType::kCanBurstLoss, system::FaultType::kAccStuck,
        system::FaultType::kImuFrozen};
    for (std::size_t f = 0; f < std::size(faults); ++f) {
        auto unit_cfg = cfg;
        unit_cfg.faults = {faults[f]};
        const system::FaultCampaign campaign(unit_cfg);
        spec.reference_jobs.push_back({(5 + 3 * f) % campaign.jobs().size()});
        spec.units.push_back({system::fault_type_name(faults[f]), campaign.jobs(), unit_cfg});
        const char* scenario = f % 2 == 0 ? "city-drive" : "static-level";
        for (const auto p : {Processor::kNative, Processor::kSabre}) {
            spec.shapes.push_back({scenario, p, system::FleetFault{faults[f], 0.14, 8},
                                   1, 150.0, cfg.base_seed, {}});
        }
    }
    // Control cells: the native one batches (3 lanes), the Sabre one not.
    spec.shapes.push_back({"static-level", Processor::kNative, {}, 3, 150.0, cfg.base_seed, {}});
    spec.shapes.push_back({"city-drive", Processor::kSabre, {}, 1, 150.0, cfg.base_seed, {}});
    spec.pinned_digest = kPinnedFaultCampaign;
    spec.fault_totals = true;
    return spec;
}

struct UnitRun {
    double wall_s = 0.0;
    double runner_wall_s = 0.0;
    double runner_cpu_s = 0.0;
    double plan_s = 0.0;
    double reduce_s = 0.0;
    std::size_t reduces = 0;
    std::uint64_t epochs = 0;
    std::uint64_t realizations = 0;
    std::uint64_t allocations = 0;
    std::uint64_t digest = 0;
    bool failed = false;
    bool traced = false;  ///< traced units allocate for their extra calls
    double speed_factor = 1.0;  ///< host speed read just before the unit
    std::string error;
    std::vector<FleetResult> results;
    std::optional<system::FaultCampaignReport> report;
};

UnitRun run_unit(const BatchUnit& u, const system::FleetRunner& runner,
                 SpanLog* log) {
    UnitRun r;
    r.traced = log != nullptr;
    const std::uint64_t allocs0 = util::alloc_count();
    const auto t0 = Clock::now();
    try {
        SpanScope unit(log, "unit");
        const auto timed = [&](const char* layer, auto&& fn) {
            const auto s0 = Clock::now();
            SpanScope span(log, layer, unit.id());
            fn();
            return since(s0);
        };
        if (u.campaign) {
            const system::FaultCampaign campaign(*u.campaign);
            if (log) {
                r.plan_s = timed("system.plan",
                                 [&] { (void)system::make_fleet_plan(campaign.jobs()); });
            }
            const double c0 = cpu_seconds();
            r.runner_wall_s = timed("system.runner", [&] { r.report = campaign.run(runner); });
            r.runner_cpu_s = cpu_seconds() - c0;
        } else if (!log) {
            const double c0 = cpu_seconds();
            r.results = runner.run(u.jobs);
            r.runner_cpu_s = cpu_seconds() - c0;
        } else {
            system::FleetPlan plan;
            r.plan_s = timed("system.plan", [&] { plan = system::make_fleet_plan(u.jobs); });
            std::vector<system::FleetSeedResult> flat;
            const double c0 = cpu_seconds();
            r.runner_wall_s = timed("system.runner", [&] {
                flat = runner.run_items(u.jobs, 0, plan.items.size());
            });
            r.runner_cpu_s = cpu_seconds() - c0;
            std::size_t pos = 0;
            for (const auto& job : u.jobs) {
                const auto n = static_cast<std::ptrdiff_t>(job.seeds_per_job);
                std::vector<system::FleetSeedResult> seeds(
                    std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos)),
                    std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos) + n));
                pos += static_cast<std::size_t>(n);
                r.reduce_s += timed("system.reduce", [&] {
                    r.results.push_back(system::reduce_fleet_job(job, std::move(seeds)));
                });
                ++r.reduces;
            }
        }
    } catch (const std::exception& e) {
        r.failed = true;
        r.error = u.label + ": " + e.what();
    }
    r.wall_s = since(t0);
    r.allocations = util::alloc_count() - allocs0;

    Fnv64 h;
    const auto add_result = [&](const FleetResult& fr) {
        h.add_u64(seed_result_digest(fr.seeds, fr.seeds.size()));
        for (const auto& s : fr.seeds) {
            r.epochs += s.trace.epochs;
            ++r.realizations;
        }
    };
    for (const auto& fr : r.results) add_result(fr);
    if (r.report) {
        for (const auto& c : r.report->cells) add_result(c.result);
        for (const auto& ref : r.report->refinements) {
            for (const auto& p : ref.probes) {
                r.epochs += p.epochs;
                r.realizations += p.outcomes.seeds;
            }
        }
        h.add(r.report->to_json());
    }
    r.digest = h.h;
    if (r.failed) {
        for (const auto& job : u.jobs) r.realizations += job.seeds_per_job;
    }
    return r;
}

/// The work one pass over the units performs, from the first pass's
/// results.
WorkShape work_of(const BatchSpec& spec, const std::vector<UnitRun>& pass) {
    WorkShape w;
    for (std::size_t u = 0; u < spec.units.size(); ++u) {
        const auto& run = pass[u];
        const std::vector<FleetJob>& jobs = spec.units[u].jobs;
        std::vector<const FleetResult*> results;
        if (run.report) {
            for (const auto& c : run.report->cells) results.push_back(&c.result);
        } else {
            for (const auto& r : run.results) results.push_back(&r);
        }
        if (results.size() != jobs.size()) continue;  // the unit failed
        std::vector<std::uint64_t> primary;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            std::vector<std::uint64_t> seed_epochs;
            for (const auto& s : results[j]->seeds) seed_epochs.push_back(s.trace.epochs);
            add_job_work(jobs[j], seed_epochs, w);
            primary.push_back(seed_epochs.empty() ? 0 : seed_epochs.front());
        }
        add_builds(jobs, primary, w);
        if (!run.report) continue;
        // Bisection probes: one FleetRunner::run per round over the active
        // groups, one job (and one trace per scenario) each.
        const auto& cfg = run.report->config;
        std::size_t rounds = 0;
        for (const auto& ref : run.report->refinements) rounds = std::max(rounds, ref.probes.size());
        for (std::size_t q = 0; q < rounds; ++q) {
            std::set<std::size_t> scenarios;
            for (const auto& ref : run.report->refinements) {
                if (q >= ref.probes.size()) continue;
                const auto& p = ref.probes[q];
                const std::uint64_t seeds = std::max<std::uint64_t>(1, p.outcomes.seeds);
                FleetJob probe;
                probe.processor = cfg.processors[ref.processor_index];
                probe.fault = system::FleetFault{cfg.faults[ref.fault_index], p.intensity,
                                                 cfg.burst_frames};
                add_job_work(probe, std::vector<std::uint64_t>(seeds, p.epochs / seeds), w);
                if (scenarios.insert(ref.scenario_index).second) {
                    ++w.builds;
                    w.build_epochs += static_cast<double>(p.epochs / seeds);
                }
            }
        }
    }
    return w;
}

/// Re-run a deterministic sample of the pass through run_fleet_job, the
/// serial reference, and require bitwise-equal seed results.
void reference_check(const BatchSpec& spec, const std::vector<UnitRun>& pass,
                     RunOutcome& out) {
    for (std::size_t u = 0; u < spec.units.size(); ++u) {
        const auto& run = pass[u];
        if (run.failed) continue;  // already counted as a failure
        for (const std::size_t j : spec.reference_jobs[u]) {
            FleetJob job = spec.units[u].jobs[j];
            const FleetResult& got =
                run.report ? run.report->cells[j].result : run.results[j];
            std::size_t count = got.seeds.size();
            if (spec.reference_seeds != 0) {
                count = std::min<std::size_t>(count, spec.reference_seeds);
                job.seeds_per_job = count;
            }
            const FleetResult want = system::run_fleet_job(job);
            if (seed_result_digest(want.seeds, count) != seed_result_digest(got.seeds, count)) {
                out.problems.push_back(spec.units[u].label + " job " + std::to_string(j) +
                                       " differs from run_fleet_job");
            }
        }
    }
}

void fault_totals_check(const std::vector<UnitRun>& pass, RunOutcome& out) {
    FaultTotals t{0, 0, 0, 0, 0, 0, 0, 0};
    for (const auto& run : pass) {
        if (!run.report) return;
        const auto& r = *run.report;
        t.detections += r.detections;
        t.misses += r.misses;
        t.false_alarms += r.false_alarms;
        t.true_negatives += r.true_negatives;
        t.residual_detections += r.residual_detections;
        t.supervisor_detections += r.supervisor_detections;
        for (const auto& b : r.boundaries) t.boundaries_demonstrated += b.boundary_demonstrated ? 1 : 0;
        for (const auto& ref : r.refinements) t.probes += ref.probes.size();
    }
    const auto& p = kPinnedFaultTotals;
    if (t.detections != p.detections || t.misses != p.misses ||
        t.false_alarms != p.false_alarms || t.true_negatives != p.true_negatives ||
        t.residual_detections != p.residual_detections ||
        t.supervisor_detections != p.supervisor_detections ||
        t.boundaries_demonstrated != p.boundaries_demonstrated || t.probes != p.probes) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "fault totals %zu/%zu/%zu/%zu det/miss/fa/tn, %zu/%zu residual/"
                      "supervisor, %zu boundaries, %zu probes differ from the pinned ones",
                      t.detections, t.misses, t.false_alarms, t.true_negatives,
                      t.residual_detections, t.supervisor_detections,
                      t.boundaries_demonstrated, t.probes);
        out.problems.push_back(buf);
    }
}

RunOutcome run_batch(const Options& opts, const BatchSpec& spec,
                     const std::function<void()>& ready) {
    RunOutcome out;
    const system::FleetRunner runner({.threads = opts.threads});
    for (const auto& u : spec.units) (void)system::make_fleet_plan(u.jobs);
    (void)sabre::boresight_firmware_image();
    ready();
    if (opts.setup_only) return out;

    // Whole passes until the time is up, so every run measures the same mix
    // of units. A traced run alternates untraced and traced passes.
    std::vector<std::vector<UnitRun>> passes;
    const auto t0 = Clock::now();
    while (passes.empty() || since(t0) < opts.seconds ||
           (opts.trace && passes.size() < 2)) {
        const bool traced = opts.trace && passes.size() % 2 == 1;
        std::vector<UnitRun> pass;
        for (const auto& u : spec.units) {
            const double factor = speed_factor(opts.threads);
            pass.push_back(run_unit(u, runner, traced ? &out.spans : nullptr));
            pass.back().speed_factor = factor;
            if (!passes.empty()) {  // keep results of the first pass only
                pass.back().results.clear();
                pass.back().report.reset();
            }
        }
        passes.push_back(std::move(pass));
    }
    const double peak_rss = peak_rss_mb();

    // ---- correctness and exact counters -----------------------------------
    const auto& first = passes.front();
    Fnv64 pass_digest;
    std::uint64_t epochs = 0, realizations = 0, allocations = 0;
    for (const auto& r : first) {
        pass_digest.add_u64(r.digest);
        epochs += r.epochs;
        realizations += r.realizations;
        allocations += r.allocations;
    }
    out.digest = pass_digest.h;
    for (const auto& pass : passes) {
        for (std::size_t u = 0; u < pass.size(); ++u) {
            out.attempted += pass[u].realizations;
            if (pass[u].failed) {
                out.failed += pass[u].realizations;
                out.problems.push_back(pass[u].error);
            } else if (pass[u].digest != first[u].digest ||
                       pass[u].epochs != first[u].epochs ||
                       (!pass[u].traced && pass[u].allocations != first[u].allocations)) {
                out.problems.push_back(spec.units[u].label +
                                       ": a repeat pass computed different outputs "
                                       "or work counts than the first");
            }
        }
    }
    if (opts.seed == kDefaultSeed) {
        if (out.digest != spec.pinned_digest) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "output digest %016llx != pinned %016llx",
                          static_cast<unsigned long long>(out.digest),
                          static_cast<unsigned long long>(spec.pinned_digest));
            out.problems.push_back(buf);
        }
        if (spec.fault_totals) fault_totals_check(first, out);
    }
    reference_check(spec, first, out);
    const WorkShape work = work_of(spec, first);
    out.counters["epochs"] = epochs;
    out.counters["realizations"] = realizations;
    out.counters["trace_builds"] = work.builds;
    out.counters["allocations"] = allocations;

    // ---- end-to-end --------------------------------------------------------
    // Per unit, the median over passes of its wall time at the reference
    // speed; a pass's time is their sum.
    std::vector<double> unit_walls, raw_walls, factors;
    double sensor_s = 0.0;
    for (std::size_t u = 0; u < spec.units.size(); ++u) {
        std::vector<double> walls, raw;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            if (opts.trace && p % 2 == 1) continue;  // traced passes
            const UnitRun& r = passes[p][u];
            walls.push_back(r.wall_s * r.speed_factor);
            raw.push_back(r.wall_s);
            factors.push_back(r.speed_factor);
        }
        unit_walls.push_back(median(walls));
        raw_walls.push_back(median(raw));
        sensor_s += epochs_to_s(first[u].epochs);
    }
    double pass_s = 0.0, raw_pass_s = 0.0;
    for (std::size_t u = 0; u < unit_walls.size(); ++u) {
        pass_s += unit_walls[u];
        raw_pass_s += raw_walls[u];
    }
    out.e2e.set("realtime_factor", sensor_s / pass_s, "s/s");
    out.e2e.set("peak_rss_mb", peak_rss, "MB");
    out.e2e.set("request_p50_ms", 1e3 * median(unit_walls), "ms");
    out.extra.set("speed_factor", median(factors), "x");
    out.extra.set("realtime_factor_raw", sensor_s / raw_pass_s, "s/s");
    out.extra.set("request_p50_ms_raw", 1e3 * median(raw_walls), "ms");
    std::vector<double> pass_cpu;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        if (opts.trace && p % 2 == 1) continue;
        double c = 0.0;
        for (const auto& r : passes[p]) c += r.runner_cpu_s;
        pass_cpu.push_back(c);
    }
    out.extra.set("thread_s_per_pass", median(pass_cpu), "s");
    out.extra.set("passes", static_cast<double>(passes.size()), "count");

    if (!opts.trace) return out;

    // ---- traced run: spans on the real workload + component replay --------
    MetricTable& t = out.layers;
    init_layer_table(t);
    std::size_t traced_passes = 0;
    double runner_cpu = 0.0, runner_wall = 0.0, plan_s = 0.0, reduce_s = 0.0,
           traced_wall = 0.0, untraced_wall = 0.0;
    std::size_t plans = 0, reduces = 0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        double wall = 0.0;
        for (const auto& r : passes[p]) wall += r.wall_s * r.speed_factor;
        if (p % 2 == 0) {
            untraced_wall += wall;
            continue;
        }
        traced_wall += wall;
        ++traced_passes;
        for (const auto& r : passes[p]) {
            runner_cpu += r.runner_cpu_s;
            runner_wall += r.runner_wall_s;
            plan_s += r.plan_s;
            reduce_s += r.reduce_s;
            ++plans;
            reduces += r.reduces;
        }
    }
    const double tp = static_cast<double>(traced_passes);
    const double up = static_cast<double>(passes.size() - traced_passes);
    t.set("tracing_overhead_frac", (traced_wall / tp) / (untraced_wall / up) - 1.0, "frac");

    const ReplayReport rr = replay_shapes(spec.shapes, out.spans);
    out.extra.set("replay_s", rr.wall_s, "s");
    set_replay_metrics(t, rr);
    const Attribution a = attribute(rr, work);
    t.set("plan.us_per_batch", 1e6 * plan_s / static_cast<double>(plans), "us");
    t.set("reduce.us_per_job", reduces ? 1e6 * reduce_s / static_cast<double>(reduces) : 0.0, "us");
    runner_cpu /= tp;  // per pass from here on
    runner_wall /= tp;
    plan_s /= tp;
    reduce_s /= tp;
    t.set("trace.builds", static_cast<double>(work.builds), "count");
    t.set("trace.realizations_per_build",
          work.builds ? static_cast<double>(work.realizations) / static_cast<double>(work.builds) : 0.0,
          "count");
    t.set("ensemble.lanes_eligible_frac_computed",
          work.realizations ? static_cast<double>(work.batchable_realizations) /
                                  static_cast<double>(work.realizations)
                            : 0.0,
          "frac");
    t.set("runner.thread_s", runner_cpu, "s");
    t.set("runner.scaling_eff",
          a.total() / (static_cast<double>(opts.threads) * runner_wall), "frac");
    t.set("runner.unexplained_frac", 1.0 - a.total() / runner_cpu, "frac");
    t.set("alloc.per_realization",
          static_cast<double>(allocations) / static_cast<double>(realizations), "count");

    // Exact detector and loss counts of the first pass's realizations.
    std::uint64_t exceed = 0, alarms = 0, lost = 0;
    double coast = 0.0;
    const auto tally = [&](const FleetResult& fr) {
        for (const auto& s : fr.seeds) {
            const auto& st = s.final_status;
            exceed += st.residual_exceedances;
            alarms += (st.residual_flagged || st.supervisor_alarmed) ? 1 : 0;
            lost += st.dmu_frames_lost + st.acc_packets_lost;
            coast += st.coast_s;
        }
    };
    for (const auto& r : first) {
        for (const auto& fr : r.results) tally(fr);
        if (r.report) {
            for (const auto& c : r.report->cells) tally(c.result);
        }
    }
    t.set("detectors.residual_exceedances", static_cast<double>(exceed), "count");
    t.set("detectors.alarms", static_cast<double>(alarms), "count");
    t.set("detectors.coast_s", coast, "s");
    t.set("comm.frames_lost", static_cast<double>(lost), "count");
    set_shares(t, a, plan_s, reduce_s, 0.0, runner_cpu + plan_s + reduce_s);
    return out;
}

// ---------------------------------------------------------------------------
// serve-mixed: a closed loop of client sessions against an in-process daemon.
// ---------------------------------------------------------------------------

enum class RequestKind { kLight, kLibrary, kStudy };

struct ServeRequest {
    RequestKind kind = RequestKind::kLight;
    system::FleetRequest fleet;
    system::StudyRequest study;
};

/// Requests in one pass of the schedule.
constexpr std::size_t kSchedulePass = 200;

/// One pass holds the same requests whatever the seed (every library
/// scenario as a light request about equally often, one §11 study per
/// 180 s drive, four library requests); the seed picks their order and
/// their base seeds, all of them distinct ("cold").
std::vector<ServeRequest> serve_schedule(std::uint64_t seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5E12E);
    const auto shuffled = [&rng](std::vector<std::string> v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
        return v;
    };
    const auto names = sim::ScenarioLibrary::instance().names();
    std::vector<std::string> light;
    for (std::size_t k = 0; k < kSchedulePass - 8; ++k) light.push_back(names[k % names.size()]);
    light = shuffled(light);
    const auto studies =
        shuffled({"city-drive", "highway-drive", "emergency-brake", "trailer-sway"});
    std::vector<ServeRequest> out(kSchedulePass);
    std::size_t next_light = 0;
    for (std::size_t i = 0; i < kSchedulePass; ++i) {
        ServeRequest& r = out[i];
        const std::uint64_t base = fold_base_seed(seed, 1000 + i);
        if (i % 50 == 24) {
            r.kind = RequestKind::kLibrary;
            r.fleet.scenario = "*";
            r.fleet.base_seed = base;
            r.fleet.duration_s = 60.0;
        } else if (i % 50 == 49) {
            r.kind = RequestKind::kStudy;
            r.study.scenario = studies[i / 50];
            r.study.base_seed = base;
        } else {
            r.fleet.scenario = light[next_light++];
            r.fleet.base_seed = base;
            r.fleet.duration_s = 10.0;
        }
    }
    return out;
}

/// Jobs and stream labels the daemon expands a request into.
system::StudyExpansion expand(const ServeRequest& r) {
    if (r.kind == RequestKind::kStudy) return system::expand_study_request(r.study);
    system::StudyExpansion e;
    e.jobs = system::expand_fleet_request(r.fleet);
    for (const auto& j : e.jobs) e.labels.push_back(j.scenario);
    return e;
}

struct RequestRecord {
    std::size_t claim = 0;  ///< global claim number; claim % pass = entry
    RequestKind kind = RequestKind::kLight;
    double latency_s = 0.0;
    double server_s = 0.0;
    double sensor_s = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t digest = 0;
    bool failed = false;
    bool traced = false;
    std::vector<std::vector<std::uint8_t>> payloads;  ///< first pass only
};

RequestRecord issue(system::FleetServeClient& client, const ServeRequest& req,
                    std::size_t claim) {
    RequestRecord rec;
    rec.claim = claim;
    rec.kind = req.kind;
    const auto t0 = Clock::now();
    const auto outcome = req.kind == RequestKind::kStudy
                             ? client.run_study(req.study)
                             : client.run_fleet(req.fleet);
    rec.latency_s = since(t0);
    rec.server_s = outcome.done.wall_s;
    Fnv64 h;
    for (const auto& m : outcome.results) {
        const auto bytes = system::encode_job_result(m);
        h.add(bytes);
        rec.sensor_s += m.duration_s * static_cast<double>(m.seeds);
        if (claim < kSchedulePass) rec.payloads.push_back(bytes);
    }
    h.add_u64(outcome.done.jobs);
    h.add_u64(outcome.done.within_envelope);
    rec.digest = h.h;
    const std::size_t request_payload = req.kind == RequestKind::kStudy
                                            ? system::kStudyRequestSize
                                            : system::kFleetRequestSize;
    rec.frames = 1 + outcome.results.size() + 1;
    rec.bytes = (system::kFrameHeaderSize + request_payload) +
                outcome.results.size() * (system::kFrameHeaderSize + system::kJobResultSize) +
                (system::kFrameHeaderSize + system::kDoneSize);
    return rec;
}

/// Per-request cost of the daemon's own code (decode, expand, plan, reduce,
/// encode), one thread, over the schedule's first pass.
struct ServeCosts {
    double decode_s = 0.0, expand_s = 0.0, encode_s = 0.0, plan_s = 0.0,
           reduce_s = 0.0;  ///< per request; plan/reduce per job
};

ServeCosts replay_serve(const std::vector<ServeRequest>& schedule, SpanLog& log) {
    constexpr int kReps = 5;
    ServeCosts c;
    double jobs = 0.0;
    std::vector<std::vector<std::uint8_t>> wire;
    for (const auto& r : schedule) {
        wire.push_back(r.kind == RequestKind::kStudy ? system::encode_study_request(r.study)
                                                     : system::encode_fleet_request(r.fleet));
    }
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const auto& r = schedule[i];
            auto t0 = Clock::now();
            util::ByteReader reader(wire[i].data(), wire[i].size());
            if (r.kind == RequestKind::kStudy) {
                (void)system::decode_study_request(reader);
            } else {
                (void)system::decode_fleet_request(reader);
            }
            c.decode_s += since(t0);
            t0 = Clock::now();
            const auto e = expand(r);
            c.expand_s += since(t0);
            for (std::size_t j = 0; j < e.jobs.size(); ++j) {
                t0 = Clock::now();
                (void)system::make_fleet_plan({e.jobs[j]});
                c.plan_s += since(t0);
                t0 = Clock::now();
                const FleetResult fr = system::reduce_fleet_job(
                    e.jobs[j], std::vector<system::FleetSeedResult>(e.jobs[j].seeds_per_job));
                c.reduce_s += since(t0);
                t0 = Clock::now();
                const auto m = system::make_job_result(static_cast<std::uint32_t>(j),
                                                       static_cast<std::uint32_t>(e.jobs.size()),
                                                       e.labels[j], e.jobs[j], fr);
                (void)system::encode_job_result(m);
                c.encode_s += since(t0);
                jobs += 1.0;
            }
            t0 = Clock::now();
            (void)system::encode_done(system::DoneMessage{});
            c.encode_s += since(t0);
        }
    }
    const double n = static_cast<double>(kReps * schedule.size());
    log.add_total("system.serve", c.decode_s + c.expand_s + c.encode_s,
                  static_cast<std::uint64_t>(n));
    log.add_total("system.plan", c.plan_s, static_cast<std::uint64_t>(jobs));
    log.add_total("system.reduce", c.reduce_s, static_cast<std::uint64_t>(jobs));
    c.decode_s /= n;
    c.expand_s /= n;
    c.encode_s /= n;
    c.plan_s /= jobs;
    c.reduce_s /= jobs;
    return c;
}

RunOutcome run_serve(const Options& opts, const std::function<void()>& ready) {
    RunOutcome out;
    const auto schedule = serve_schedule(opts.seed);
    (void)sabre::boresight_firmware_image();

    system::FleetServer::Config cfg;
    cfg.socket_path = opts.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
    cfg.runner.threads = opts.threads;
    cfg.accept_poll_ms = 20;
    system::FleetServer server(cfg);
    std::exception_ptr server_error;
    std::atomic<bool> server_failed{false};
    std::thread server_thread([&] {
        try {
            server.serve();
        } catch (...) {
            server_error = std::current_exception();
            server_failed.store(true, std::memory_order_release);
        }
    });
    // Stops the daemon the way an operator does (a Shutdown frame) and joins
    // it, on every path out of this function. Declared before the clients so
    // their connections close first: the daemon joins its connection threads.
    const auto stop_server = [&] {
        if (!server_thread.joinable()) return;
        try {
            auto admin = system::FleetServeClient::connect(cfg.socket_path);
            admin.shutdown_server();
        } catch (const std::exception&) {
            server.request_stop();
        }
        server_thread.join();
    };
    struct Stopper {
        const decltype(stop_server)& stop;
        ~Stopper() { stop(); }
    } stopper{stop_server};
    while (!server.listening() && !server_failed.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (server_failed.load(std::memory_order_acquire)) {
        server_thread.join();
        std::rethrow_exception(server_error);
    }

    std::vector<std::optional<system::FleetServeClient>> clients(opts.threads);
    for (auto& c : clients) {
        c.emplace(system::FleetServeClient::connect(cfg.socket_path));
        (void)c->ping(1);
    }
    system::FleetRequest warm;
    warm.scenario = "static-level";
    warm.duration_s = 2.0;
    (void)clients.front()->run_fleet(warm);
    ready();
    if (opts.setup_only) {
        for (auto& c : clients) c->goodbye();
        clients.clear();
        stop_server();
        return out;
    }

    std::vector<std::vector<RequestRecord>> per_client(opts.threads);
    std::vector<SpanLog> logs(opts.threads);
    const double cpu0 = cpu_seconds();
    const std::uint64_t allocs0 = util::alloc_count();
    const auto t0 = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < opts.threads; ++c) {
            // Session c runs entries c, c + n, c + 2n, ... of the schedule
            // (n sessions), cycling, so each daemon connection sees the
            // same request sequence in every run.
            threads.emplace_back([&, c] {
                for (std::size_t k = 0;; ++k) {
                    const std::size_t claim = k * opts.threads + c;
                    if (claim >= kSchedulePass && since(t0) >= opts.seconds) return;
                    const ServeRequest& req = schedule[claim % kSchedulePass];
                    const bool traced = opts.trace && k % 2 == 1;
                    SpanScope span(traced ? &logs[c] : nullptr, "client.request");
                    try {
                        per_client[c].push_back(issue(*clients[c], req, claim));
                        per_client[c].back().traced = traced;
                    } catch (const std::exception& e) {
                        RequestRecord rec;
                        rec.claim = claim;
                        rec.kind = req.kind;
                        rec.failed = true;
                        per_client[c].push_back(std::move(rec));
                        // A kError reply leaves the session usable; a broken
                        // stream does not.
                        if (dynamic_cast<const system::FleetServeError*>(&e) == nullptr) {
                            try {
                                clients[c].emplace(
                                    system::FleetServeClient::connect(cfg.socket_path));
                            } catch (const std::exception&) {
                                return;
                            }
                        }
                    }
                }
            });
        }
        for (auto& th : threads) th.join();
    }
    const double window_s = since(t0);
    const double window_cpu = cpu_seconds() - cpu0;
    const std::uint64_t window_allocs = util::alloc_count() - allocs0;
    const double peak_rss = peak_rss_mb();
    for (auto& c : clients) {
        try {
            c->goodbye();
        } catch (const std::exception&) {
        }  // a session that broke already counts as failed
    }
    clients.clear();
    stop_server();
    for (const auto& l : logs) out.spans.merge(l);

    std::vector<RequestRecord> recs;
    for (auto& v : per_client) {
        for (auto& r : v) recs.push_back(std::move(r));
    }
    std::sort(recs.begin(), recs.end(),
              [](const RequestRecord& a, const RequestRecord& b) { return a.claim < b.claim; });

    // ---- correctness and exact counters -----------------------------------
    std::vector<const RequestRecord*> first(kSchedulePass, nullptr);
    for (const auto& r : recs) {
        ++out.attempted;
        if (r.failed) {
            ++out.failed;
            continue;
        }
        const std::size_t entry = r.claim % kSchedulePass;
        if (r.claim < kSchedulePass) {
            first[entry] = &r;
        } else if (first[entry] && first[entry]->digest != r.digest) {
            out.problems.push_back("request " + std::to_string(entry) +
                                   " streamed different results on a repeat");
        }
    }
    if (out.failed > 0) {
        out.problems.push_back(std::to_string(out.failed) + " request(s) failed");
    }
    Fnv64 digest;
    std::uint64_t frames = 0, bytes = 0, answered = 0;
    for (const auto* r : first) {
        if (!r) continue;
        digest.add_u64(r->digest);
        frames += r->frames;
        bytes += r->bytes;
        ++answered;
    }
    out.digest = digest.h;
    out.counters["requests_per_pass"] = kSchedulePass;
    out.counters["frames_per_pass"] = frames;
    out.counters["bytes_per_pass"] = bytes;
    if (answered != kSchedulePass) {
        out.problems.push_back("the first schedule pass was not fully answered");
    } else {
        if (opts.seed == kDefaultSeed && out.digest != kPinnedServeMixed) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "output digest %016llx != pinned %016llx",
                          static_cast<unsigned long long>(out.digest),
                          static_cast<unsigned long long>(kPinnedServeMixed));
            out.problems.push_back(buf);
        }
        // The daemon adds transport, never arithmetic: its frames must be
        // the serial reference's, byte for byte.
        for (const std::size_t entry : {0, 1, 2, 24, 49}) {
            const auto e = expand(schedule[entry]);
            std::vector<std::vector<std::uint8_t>> want;
            for (std::size_t j = 0; j < e.jobs.size(); ++j) {
                const auto m = system::make_job_result(
                    static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(e.jobs.size()),
                    e.labels[j], e.jobs[j], system::run_fleet_job(e.jobs[j]));
                want.push_back(system::encode_job_result(m));
            }
            if (want != first[entry]->payloads) {
                out.problems.push_back("request " + std::to_string(entry) +
                                       " differs from run_fleet_job");
            }
        }
    }

    // ---- end-to-end --------------------------------------------------------
    std::vector<double> light, heavy, light_traced, light_untraced;
    double sensor_s = 0.0;
    for (const auto& r : recs) {
        if (r.failed) continue;
        sensor_s += r.sensor_s;
        const double ms = 1e3 * r.latency_s;
        if (r.kind == RequestKind::kLight) {
            light.push_back(ms);
            (r.traced ? light_traced : light_untraced).push_back(ms);
        } else {
            heavy.push_back(ms);
        }
    }
    std::sort(light.begin(), light.end());
    std::sort(heavy.begin(), heavy.end());
    const auto light_p50 = nearest_rank(light, 50, 100);
    const auto light_p99 = nearest_rank(light, 99, 100);
    const auto heavy_p50 = nearest_rank(heavy, 50, 100);
    if (!light_p50 || !light_p99 || !heavy_p50) {
        out.problems.push_back("too few samples for the reported percentiles (" +
                               std::to_string(light.size()) + " light, " +
                               std::to_string(heavy.size()) + " heavy)");
    }
    // Raw wall times: a continuous closed loop leaves no gap next to each
    // request for a speed reading, and one read before and after the window
    // was measured to add spread rather than remove it.
    out.e2e.set("realtime_factor", sensor_s / window_s, "s/s");
    out.e2e.set("peak_rss_mb", peak_rss, "MB");
    out.e2e.set("request_p50_ms", light_p50.value_or(0.0), "ms");
    out.extra.set("requests_per_s", static_cast<double>(recs.size()) / window_s, "1/s");
    out.extra.set("light_p50_ms", light_p50.value_or(0.0), "ms");
    out.extra.set("light_p99_ms", light_p99.value_or(0.0), "ms");
    out.extra.set("heavy_p50_ms", heavy_p50.value_or(0.0), "ms");
    out.extra.set("light_requests", static_cast<double>(light.size()), "count");
    out.extra.set("heavy_requests", static_cast<double>(heavy.size()), "count");

    if (!opts.trace) return out;

    // ---- traced run ----------------------------------------------------------
    MetricTable& t = out.layers;
    init_layer_table(t);
    t.set("tracing_overhead_frac", median(light_traced) / median(light_untraced) - 1.0, "frac");
    std::vector<double> server_ms, overhead_ms;
    for (const auto& r : recs) {
        if (r.failed || r.kind != RequestKind::kLight) continue;
        server_ms.push_back(1e3 * r.server_s);
        overhead_ms.push_back(1e3 * (r.latency_s - r.server_s));
    }
    t.set("serve.server_ms", median(server_ms), "ms");
    t.set("serve.overhead_ms", median(overhead_ms), "ms");
    t.set("serve.frames_per_request",
          static_cast<double>(frames) / static_cast<double>(kSchedulePass), "count");
    t.set("serve.bytes_per_request",
          static_cast<double>(bytes) / static_cast<double>(kSchedulePass), "bytes");

    // The work the window ran: the daemon runs each expanded job as its own
    // one-job batch (one trace build, scalar realizations).
    WorkShape work;
    std::vector<Shape> shapes;
    std::size_t requests = 0;
    std::uint64_t batches = 0;
    for (const auto& r : recs) {
        if (r.failed) continue;
        ++requests;
        const auto e = expand(schedule[r.claim % kSchedulePass]);
        for (const auto& job : e.jobs) {
            const auto& spec = sim::ScenarioLibrary::instance().at(job.scenario);
            const double duration = job.duration_s > 0.0 ? job.duration_s : spec.duration_s;
            const auto epochs = static_cast<std::uint64_t>(duration * kSampleRateHz);
            add_job_work(job, std::vector<std::uint64_t>(job.seeds_per_job, epochs), work);
            add_builds({job}, {epochs}, work);
            ++batches;
        }
    }
    for (std::size_t entry : {0, 1, 2, 3, 4, 5}) {
        const auto& f = schedule[entry].fleet;
        shapes.push_back({f.scenario, Processor::kNative, {}, 1, f.duration_s, f.base_seed, {}});
    }
    for (const char* name : {"static-level", "city-drive", "trailer-sway"}) {
        shapes.push_back({name, Processor::kNative, {}, 1, 60.0, schedule[24].fleet.base_seed, {}});
    }
    shapes.push_back({schedule[49].study.scenario, Processor::kNative, {}, 1, 0.0,
                      schedule[49].study.base_seed, 0.015});

    const ReplayReport rr = replay_shapes(shapes, out.spans);
    const ServeCosts sc = replay_serve(schedule, out.spans);
    out.extra.set("replay_s", rr.wall_s, "s");
    set_replay_metrics(t, rr);
    const Attribution a = attribute(rr, work);
    const double n_req = static_cast<double>(requests);
    const double n_jobs = static_cast<double>(batches);
    const double serve_s = n_req * (sc.decode_s + sc.expand_s + sc.encode_s);
    t.set("serve.expand_us", 1e6 * sc.expand_s, "us");
    t.set("serve.encode_us", 1e6 * sc.encode_s, "us");
    t.set("serve.decode_us", 1e6 * sc.decode_s, "us");
    t.set("plan.us_per_batch", 1e6 * sc.plan_s, "us");
    t.set("reduce.us_per_job", 1e6 * sc.reduce_s, "us");
    t.set("trace.builds", static_cast<double>(work.builds), "count");
    t.set("trace.realizations_per_build",
          work.builds ? static_cast<double>(work.realizations) / static_cast<double>(work.builds) : 0.0,
          "count");
    t.set("ensemble.lanes_eligible_frac_computed",
          work.realizations ? static_cast<double>(work.batchable_realizations) /
                                  static_cast<double>(work.realizations)
                            : 0.0,
          "frac");
    t.set("runner.thread_s", window_cpu, "s");
    t.set("alloc.per_realization",
          static_cast<double>(window_allocs) / static_cast<double>(work.realizations), "count");
    const double predicted = a.total() + n_jobs * (sc.plan_s + sc.reduce_s) + serve_s;
    t.set("runner.scaling_eff", predicted / (static_cast<double>(opts.threads) * window_s), "frac");
    t.set("runner.unexplained_frac", 1.0 - predicted / window_cpu, "frac");
    t.set("detectors.residual_exceedances", static_cast<double>(rr.residual_exceedances), "count");
    t.set("detectors.alarms", static_cast<double>(rr.alarms), "count");
    t.set("detectors.coast_s", rr.coast_s, "s");
    t.set("comm.frames_lost", static_cast<double>(rr.frames_lost), "count");
    set_shares(t, a, n_jobs * sc.plan_s, n_jobs * sc.reduce_s, serve_s, window_cpu);
    return out;
}

}  // namespace

std::uint64_t fold_base_seed(std::uint64_t workload_seed, std::uint64_t k) {
    const std::uint64_t base =
        2026 + 104729 * (workload_seed - kDefaultSeed) + 7919 * k;
    return base == 0 ? 1 : base;  // 0 would mean "the default" on the wire
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "library-regression", "monte-carlo", "fault-campaign", "serve-mixed"};
    return names;
}

RunOutcome run_workload(const Options& opts, const std::function<void()>& ready) {
    if (opts.workload == "library-regression") {
        return run_batch(opts, library_regression(opts.seed), ready);
    }
    if (opts.workload == "monte-carlo") {
        return run_batch(opts, monte_carlo(opts.seed), ready);
    }
    if (opts.workload == "fault-campaign") {
        return run_batch(opts, fault_campaign(opts.seed), ready);
    }
    if (opts.workload == "serve-mixed") return run_serve(opts, ready);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
