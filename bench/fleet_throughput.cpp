// Fleet-scale scenario sweep: every library scenario end to end through the
// full-transport BoresightSystem, on the native EKF and on the Sabre
// firmware, dispatched across a thread pool. Reports wall-clock throughput
// (scenarios/sec, epochs/sec), the Monte Carlo seed-axis sweep (shared vs
// per-run trace synthesis) and the envelope verdict per run — and writes
// the whole thing to BENCH_fleet.json so the perf trajectory of the fleet
// path is machine-trackable (bench/compare_bench.py gates regressions
// against bench/baselines/BENCH_fleet.baseline.json). Per-layer costs come
// from perfbench's traced run (`perfbench/run.py --trace 1`).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scenario_library.hpp"
#include "system/boresight_system.hpp"
#include "system/fleet.hpp"
#include "util/artifacts.hpp"
#include "util/json.hpp"

namespace {

using namespace ob;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The Monte Carlo seed axis under both trace-cost models: 8 instrument
/// realizations of 4 drive scenarios under 2 tuner variants (the spec
/// tuning and the §11 retuned 0.015), once as 8 eight-seed jobs — one
/// shared ScenarioTrace per scenario across every {tuner × seed} variant,
/// realized in SoA ensemble lanes — and once as 64 one-seed jobs with
/// distinct base seeds. A distinct base seed is a distinct trace identity,
/// so there every realization synthesizes its own trace and realizes
/// scalar: the per-run synthesis cost model. Both go through the same
/// default runner; only the job shapes differ.
struct MultiSeedSweep {
    std::size_t scenarios = 0;
    std::size_t variants = 0;
    std::size_t seeds_per_job = 0;
    std::size_t runs = 0;  ///< realizations = scenarios * variants * seeds
    std::size_t epochs = 0;
    double shared_elapsed_s = 0.0;
    double unshared_elapsed_s = 0.0;
    [[nodiscard]] double shared_runs_per_sec() const {
        return static_cast<double>(runs) / shared_elapsed_s;
    }
    [[nodiscard]] double unshared_runs_per_sec() const {
        return static_cast<double>(runs) / unshared_elapsed_s;
    }
    [[nodiscard]] double speedup() const {
        return unshared_elapsed_s / shared_elapsed_s;
    }
};

MultiSeedSweep measure_multi_seed(const system::FleetRunner& runner) {
    constexpr std::size_t kSeeds = 8;
    MultiSeedSweep out;
    const char* scenarios[] = {"city-drive", "highway-drive",
                               "emergency-brake", "trailer-sway"};
    std::vector<system::FleetJob> shared_jobs;
    std::vector<system::FleetJob> unshared_jobs;
    for (const char* name : scenarios) {
        for (const double meas_noise : {0.0, 0.015}) {  // spec, §11 retuned
            system::FleetJob job;
            job.scenario = name;
            job.duration_s = 60.0;
            if (meas_noise > 0.0) job.meas_noise_mps2 = meas_noise;
            for (std::size_t k = 0; k < kSeeds; ++k) {
                unshared_jobs.push_back(job);
                unshared_jobs.back().base_seed += unshared_jobs.size();
            }
            job.seeds_per_job = kSeeds;
            shared_jobs.push_back(std::move(job));
        }
    }
    out.scenarios = 4;
    out.variants = 2;
    out.seeds_per_job = kSeeds;
    out.runs = unshared_jobs.size();

    // Two repetitions per mode, fastest kept: a single short sweep is at
    // the mercy of scheduler noise, and the min is the standard estimator
    // for the actual cost.
    constexpr int kReps = 2;
    const auto time_min = [&](const std::vector<system::FleetJob>& jobs) {
        double best = 0.0;
        std::size_t epochs = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            const auto t0 = Clock::now();
            const auto results = runner.run(jobs);
            const double elapsed = seconds_since(t0);
            best = rep == 0 ? elapsed : std::min(best, elapsed);
            if (rep == 0) {
                for (const auto& r : results) {
                    for (const auto& s : r.seeds) epochs += s.trace.epochs;
                }
            }
        }
        return std::pair{best, epochs};
    };
    std::tie(out.shared_elapsed_s, out.epochs) = time_min(shared_jobs);
    out.unshared_elapsed_s = time_min(unshared_jobs).first;
    return out;
}

}  // namespace

int main() {
    const system::FleetRunner runner;
    std::printf("fleet runner: %zu worker thread(s)\n\n", runner.threads());

    auto jobs =
        system::full_library_jobs(system::BoresightSystem::Processor::kNative);
    const auto sabre_jobs =
        system::full_library_jobs(system::BoresightSystem::Processor::kSabre);
    jobs.insert(jobs.end(), sabre_jobs.begin(), sabre_jobs.end());

    const auto t0 = Clock::now();
    const auto results = runner.run(jobs);
    const double elapsed = seconds_since(t0);

    std::size_t total_epochs = 0;
    int failures = 0;
    std::printf("%-20s %-7s %7s | %7s %7s %7s | %9s | %s\n", "scenario",
                "proc", "epochs", "roll", "pitch", "yaw", "resid", "verdict");
    std::printf("%-20s %-7s %7s | %21s | %9s |\n", "", "", "",
                "worst post-settle err (deg)", "rms m/s^2");
    for (const auto& r : results) {
        const auto& p = r.primary();
        total_epochs += p.trace.epochs;
        if (!p.within_envelope) ++failures;
        std::printf("%-20s %-7s %7zu | %7.3f %7.3f %7.3f | %9.4f | %s\n",
                    r.scenario.c_str(), system::processor_name(r.processor),
                    p.trace.epochs, p.trace.worst_roll_err_deg,
                    p.trace.worst_pitch_err_deg, p.trace.worst_yaw_err_deg,
                    p.result.residual_rms,
                    p.within_envelope ? "ok" : "OUTSIDE ENVELOPE");
    }

    const auto multi_seed = measure_multi_seed(runner);
    const double scen_per_s = static_cast<double>(results.size()) / elapsed;
    std::printf("\n%zu scenario runs in %.2f s: %.2f scenarios/s, "
                "%.0f epochs/s\n",
                results.size(), elapsed, scen_per_s,
                static_cast<double>(total_epochs) / elapsed);
    std::printf("multi-seed sweep (%zu scenarios x %zu tunings x %zu seeds): "
                "shared trace %.2f runs/s, per-run synthesis %.2f runs/s "
                "-> %.2fx\n",
                multi_seed.scenarios, multi_seed.variants,
                multi_seed.seeds_per_job, multi_seed.shared_runs_per_sec(),
                multi_seed.unshared_runs_per_sec(), multi_seed.speedup());

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("fleet");
    w.key("threads").value(runner.threads());
    w.key("scenarios").value(sim::ScenarioLibrary::instance().all().size());
    w.key("jobs").value(results.size());
    w.key("elapsed_s").value(elapsed);
    w.key("scenarios_per_sec").value(scen_per_s);
    w.key("epochs_per_sec").value(static_cast<double>(total_epochs) / elapsed);
    w.key("multi_seed").begin_object();
    w.key("scenarios").value(multi_seed.scenarios);
    w.key("variants").value(multi_seed.variants);
    w.key("seeds_per_job").value(multi_seed.seeds_per_job);
    w.key("runs").value(multi_seed.runs);
    w.key("epochs").value(multi_seed.epochs);
    // "runs" = scenario realizations (scenario x tuning x seed), the unit
    // the sweep schedules — deliberately NOT named scenarios_per_sec,
    // which at top level counts whole jobs.
    w.key("shared_runs_per_sec").value(multi_seed.shared_runs_per_sec());
    w.key("unshared_runs_per_sec").value(multi_seed.unshared_runs_per_sec());
    w.key("speedup").value(multi_seed.speedup());
    w.end_object();
    w.key("runs").begin_array();
    for (const auto& r : results) {
        w.begin_object();
        w.key("scenario").value(r.scenario);
        w.key("processor").value(system::processor_name(r.processor));
        const auto& p = r.primary();
        w.key("epochs").value(p.trace.epochs);
        w.key("updates").value(p.final_status.updates);
        w.key("worst_roll_err_deg").value(p.trace.worst_roll_err_deg);
        w.key("worst_pitch_err_deg").value(p.trace.worst_pitch_err_deg);
        w.key("worst_yaw_err_deg").value(p.trace.worst_yaw_err_deg);
        w.key("residual_rms").value(p.result.residual_rms);
        w.key("within_envelope").value(p.within_envelope);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    const std::string bench_path = util::artifact_path("BENCH_fleet.json");
    util::write_file(bench_path, w.str());
    std::printf("wrote %s\n", bench_path.c_str());

    if (failures != 0) {
        std::printf("FAIL: %d run(s) outside their envelope\n", failures);
        return 1;
    }
    std::printf("PASS: every library scenario inside its envelope on both "
                "processors\n");
    return 0;
}
