#include "system/fleet.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "core/calibration.hpp"
#include "sim/ensemble_realizer.hpp"
#include "sim/scenario_trace.hpp"
#include "sim/sensor_fault.hpp"
#include "system/ensemble_runner.hpp"
#include "util/rng.hpp"

namespace ob::system {

using math::EulerAngles;
using math::rad2deg;

namespace {

/// Salt separating the sensor-instrument RNG stream from the drive-layout
/// stream that `spec.build` consumes directly.
constexpr std::uint64_t kSensorStreamSalt = 0xA5A55A5AF00DBEEFull;

/// Requested run length (the spec default unless the job overrides it).
/// The trajectory profile may overshoot this — drives append whole
/// maneuver blocks — and the run itself follows the profile's duration.
[[nodiscard]] double job_duration(const FleetJob& job,
                                  const sim::ScenarioSpec& spec) {
    return job.duration_s > 0.0 ? job.duration_s : spec.duration_s;
}

[[nodiscard]] EulerAngles job_truth(const FleetJob& job,
                                    const sim::ScenarioSpec& spec) {
    return job.misalignment ? *job.misalignment : spec.misalignment;
}

/// Seed of the job's sensor stream at realization index 0 (the historical
/// single-seed stream the shared trace's vibration timelines derive from).
[[nodiscard]] std::uint64_t job_sensor_stream(const FleetJob& job) {
    return sim::scenario_seed(job.scenario, job.base_seed) ^ kSensorStreamSalt;
}

[[nodiscard]] sim::ScenarioConfig main_scenario_config(
    const FleetJob& job, const sim::ScenarioSpec& spec) {
    return spec.build(job_duration(job, spec), job_truth(job, spec),
                      sim::scenario_seed(job.scenario, job.base_seed));
}

/// §11.1 calibration scenario: the same instruments (identical error
/// magnitudes) dwell on a level platform at known zero alignment. The
/// error fields come from the already-built main trace, so the drive
/// profile is never integrated a second time just to read them.
[[nodiscard]] sim::ScenarioConfig calibration_scenario_config(
    const sim::ScenarioTrace& main_trace, double dwell_s) {
    auto cal_cfg = sim::ScenarioConfig::static_level(dwell_s, EulerAngles{});
    cal_cfg.imu_errors = main_trace.imu_errors();
    cal_cfg.acc_errors = main_trace.acc_errors();
    cal_cfg.vibration = main_trace.vibration();
    cal_cfg.adxl = main_trace.adxl();
    return cal_cfg;
}

[[nodiscard]] sim::ScenarioEnvelope job_envelope(
    const FleetJob& job, const sim::ScenarioSpec& spec) {
    sim::ScenarioEnvelope env = spec.envelope;
    if (job.processor == BoresightSystem::Processor::kSabre) {
        env.roll_deg *= spec.sabre_envelope_scale;
        env.pitch_deg *= spec.sabre_envelope_scale;
        env.yaw_deg *= spec.sabre_envelope_scale;
        env.residual_rms_max *= spec.sabre_envelope_scale;
    }
    return env;
}

/// The fusion config every realization of a job starts from: the job's
/// (or the spec's) measurement noise and tuner on the spec's process noise.
[[nodiscard]] BoresightSystem::Config system_config(
    const FleetJob& job, const sim::ScenarioSpec& spec) {
    const double meas_noise =
        job.meas_noise_mps2 ? *job.meas_noise_mps2 : spec.meas_noise_mps2;
    BoresightSystem::Config cfg;
    cfg.processor = job.processor;
    cfg.filter.meas_noise_mps2 = meas_noise;
    cfg.filter.angle_process_noise = spec.angle_process_noise;
    cfg.sabre.r_sigma = meas_noise;
    cfg.sabre.q_variance =
        spec.angle_process_noise * spec.angle_process_noise;
    cfg.use_adaptive_tuner = job.use_adaptive_tuner;
    if (job.tuner) cfg.tuner = *job.tuner;
    return cfg;
}

/// §11.1 calibration phase of one realization: its instruments (same
/// sensor-seed draws and error magnitudes) against the shared
/// level-platform trace. A separate Scenario instance keeps the main run's
/// RNG draws untouched, so calibration-free jobs are bitwise unaffected by
/// this not running. The measured bias lands in `out`; the caller
/// subtracts it from every ACC reading of the main run.
void calibrate(const std::shared_ptr<const sim::ScenarioTrace>& cal_trace,
               std::uint64_t sensor_seed, FleetSeedResult& out) {
    sim::Scenario cal(cal_trace, EulerAngles{}, sensor_seed);
    core::CalibrationAccumulator accum;
    sim::Scenario::Step step;
    while (cal.next_into(step)) {
        const auto d = sim::decode_step(cal, step);
        accum.add(d.f_body, d.acc_xy);
    }
    out.calibrated_bias = accum.bias();
    out.calibration_noise = accum.noise_sigma();
    out.calibration_samples = accum.samples();
}

/// The one envelope scorer both Realize paths drive. It owns the job's
/// envelope, the bump time and the checked windows, the per-axis worst
/// errors and first-divergence instant of each realization, the bump
/// trigger, and the final verdict. The lanes of a batch share one trace,
/// hence one bump and one scorer; each lane's figures go into its own
/// FleetSeedResult.
class RunScorer {
public:
    RunScorer(const FleetJob& job, const sim::ScenarioSpec& spec)
        : job_(job),
          envelope_(job_envelope(job, spec)),
          // The bump time tracks a shortened duration override
          // proportionally so truncated fleet runs still exercise the
          // disturbance path.
          bump_at_(spec.bump.enabled()
                       ? spec.bump.at_s *
                             (job_duration(job, spec) / spec.duration_s)
                       : -1.0) {}

    [[nodiscard]] const sim::ScenarioEnvelope& envelope() const {
        return envelope_;
    }

    /// Envelope windows: post-settle, and for bump scenarios both the
    /// pre-bump stretch and the re-settled post-bump stretch.
    [[nodiscard]] bool checked(double t) const {
        if (bump_at_ >= 0.0 && t >= bump_at_) {
            return t >= bump_at_ + envelope_.settle_s;
        }
        return t >= envelope_.settle_s && (bump_at_ < 0.0 || t < bump_at_);
    }

    /// Score one checked epoch's estimate against the truth.
    void score(FleetSeedResult& out, double t, const EulerAngles& est,
               const EulerAngles& truth) const {
        FleetTraceSummary& tr = out.trace;
        ++tr.checked_points;
        const double roll_err = std::abs(rad2deg(est.roll - truth.roll));
        const double pitch_err = std::abs(rad2deg(est.pitch - truth.pitch));
        const double yaw_err = std::abs(rad2deg(est.yaw - truth.yaw));
        tr.worst_roll_err_deg = std::max(tr.worst_roll_err_deg, roll_err);
        tr.worst_pitch_err_deg = std::max(tr.worst_pitch_err_deg, pitch_err);
        tr.worst_yaw_err_deg = std::max(tr.worst_yaw_err_deg, yaw_err);
        // Divergence instant: the first checked sample whose error leaves
        // the envelope — the truth the ResidualMonitor's flag time is
        // scored against in fault campaigns.
        if (tr.first_divergence_s < 0.0 &&
            (roll_err > envelope_.roll_deg ||
             pitch_err > envelope_.pitch_deg ||
             (envelope_.check_yaw && yaw_err > envelope_.yaw_deg))) {
            tr.first_divergence_s = t;
        }
    }

    /// True once, after the epoch at which the spec's bump fires. Asked
    /// after the epoch is consumed and scored: no sample generated under
    /// the old alignment is ever judged against the new truth.
    [[nodiscard]] bool bump_due(double t) {
        if (bump_at_ < 0.0 || bumped_ || t < bump_at_) return false;
        bumped_ = true;
        return true;
    }

    /// Label, AlignmentResult and envelope verdict of a finished run.
    void finalize(FleetSeedResult& out, std::uint64_t seed_index,
                  std::size_t epochs, const BoresightSystem::Status& st,
                  const EulerAngles& truth, double duration_s) const {
        out.trace.epochs = epochs;
        out.final_status = st;
        out.result.label =
            job_.scenario + "/" + processor_name(job_.processor);
        if (seed_index > 0) {
            out.result.label += "#seed" + std::to_string(seed_index);
        }
        out.result.truth = truth;
        out.result.estimate = st.estimate;
        out.result.sigma3_rad = st.sigma3;
        out.result.residual_rms = st.residual_rms;
        out.result.meas_noise = st.measurement_noise;
        out.result.duration_s = duration_s;
        const FleetTraceSummary& tr = out.trace;
        out.within_envelope =
            tr.checked_points > 0 &&
            tr.worst_roll_err_deg <= envelope_.roll_deg &&
            tr.worst_pitch_err_deg <= envelope_.pitch_deg &&
            (!envelope_.check_yaw ||
             tr.worst_yaw_err_deg <= envelope_.yaw_deg) &&
            st.residual_rms <= envelope_.residual_rms_max;
    }

private:
    const FleetJob& job_;
    sim::ScenarioEnvelope envelope_;
    double bump_at_;  ///< -1 when the scenario has no bump
    bool bumped_ = false;
};

/// The epoch observer of every run without one: compiles to nothing, so
/// the runner's epoch loop carries no per-epoch hook.
constexpr auto kNoObserver = [](double, const BoresightSystem&) {};

/// Execute one Monte Carlo realization of a job over the shared traces.
/// This is the Realize layer: per-seed instrument realization + transport
/// + fusion + envelope scoring, consuming (never mutating) the trace.
/// `observe(t, sys)` runs after every feed.
template <class Observe = decltype(kNoObserver)>
[[nodiscard]] FleetSeedResult run_fleet_seed(
    const FleetJob& job, const sim::ScenarioSpec& spec,
    const std::shared_ptr<const sim::ScenarioTrace>& trace,
    const std::shared_ptr<const sim::ScenarioTrace>& cal_trace,
    std::uint64_t seed_index, const Observe& observe = kNoObserver) {
    const std::uint64_t sensor_seed =
        fleet_sub_seed(job_sensor_stream(job), seed_index);
    sim::Scenario sc(trace, job_truth(job, spec), sensor_seed);
    RunScorer scorer(job, spec);
    BoresightSystem::Config cfg = system_config(job, spec);

    FleetSeedResult out;
    out.sensor_seed = sensor_seed;

    // Fault-injection axis. Zero intensity takes the un-faulted path
    // wholesale — no config change, no extra draw anywhere — so control
    // cells are bitwise the reference runs. Fault draws live on their own
    // per-realization stream (kFleetFaultStreamSalt), never touching the
    // instrument-noise stream the sensor realization consumes.
    if (job.fault && job.fault->intensity > 0.0) {
        const double intensity = job.fault->intensity;
        const std::uint64_t fault_seed = fleet_sub_seed(
            job_sensor_stream(job) ^ kFleetFaultStreamSalt, seed_index);
        switch (job.fault->type) {
            case FaultType::kUartDropout:
                cfg.dmu_link_faults.drop_probability = intensity;
                cfg.acc_link_faults.drop_probability = intensity;
                cfg.link_fault_seed = fault_seed;
                break;
            case FaultType::kUartCorruption:
                cfg.dmu_link_faults.bit_flip_probability = intensity;
                cfg.acc_link_faults.bit_flip_probability = intensity;
                cfg.link_fault_seed = fault_seed;
                break;
            case FaultType::kCanBurstLoss:
                cfg.can_faults.burst_probability = intensity;
                cfg.can_faults.burst_frames = job.fault->burst_frames;
                cfg.can_faults.seed = fault_seed;
                break;
            case FaultType::kAccStuck:
            case FaultType::kImuFrozen: {
                // Freeze `intensity` of the run; the window starts at a
                // fault-stream-drawn point inside the post-settle stretch
                // so divergence is attributable to the fault, not to the
                // filter still converging.
                const double run_s = sc.duration();
                sim::SensorFault fault;
                fault.duration_s = intensity * run_s;
                const double lo = std::min(scorer.envelope().settle_s, run_s);
                const double hi = std::max(lo, run_s - fault.duration_s);
                fault.start_s =
                    lo + util::CounterRng(fault_seed, 0).u01() * (hi - lo);
                if (job.fault->type == FaultType::kAccStuck) {
                    sc.inject_acc_fault(fault);
                } else {
                    sc.inject_imu_fault(fault);
                }
                out.trace.fault_window_start_s = fault.start_s;
                out.trace.fault_window_duration_s = fault.duration_s;
                break;
            }
        }
    }

    if (job.calibration) {
        calibrate(cal_trace, sensor_seed, out);
        cfg.calibrated_bias = out.calibrated_bias;
    }

    BoresightSystem sys(cfg);
    std::size_t epochs = 0;
    double t = 0.0;
    comm::DmuSample dmu;
    comm::AdxlTiming adxl;
    while (sc.next_wire(t, dmu, adxl)) {
        sys.feed(sc.trace(), t, dmu, adxl);
        observe(t, std::as_const(sys));
        ++epochs;
        if (scorer.checked(t)) {
            scorer.score(out, t, sys.estimate(), sc.true_misalignment());
        }
        if (scorer.bump_due(t)) sc.bump(spec.bump.delta);
    }
    scorer.finalize(out, seed_index, epochs, sys.status(),
                    sc.true_misalignment(), sc.duration());
    return out;
}

/// Lane cap of one batched ensemble: bounds the batch's working set (32
/// EKF lanes plus detector state still fit L1/L2 comfortably) and the
/// stack-side seed scratch below.
constexpr std::size_t kMaxBatchLanes = 32;

/// Whether a job's realizations may take the batched ensemble path at all:
/// native fusion, no active fault (the fault hooks live in the scalar
/// transport stack). Zero-intensity faults bypass the fault machinery in
/// run_fleet_seed, so they batch like un-faulted jobs — keeping campaign
/// control cells on the same code path as the runs they control for.
[[nodiscard]] bool job_batchable(const FleetJob& job) {
    return job.processor == BoresightSystem::Processor::kNative &&
           (!job.fault || job.fault->intensity <= 0.0);
}

/// Batched Realize: `lane_count` consecutive realizations (seed indices
/// first_seed .. first_seed + lane_count - 1) of one job step the shared
/// trace together through EnsembleRealizer + EnsembleNominalSystem,
/// writing results into out[0 .. lane_count). Every lane is bitwise
/// run_fleet_seed's result for the same index; a lane the ensemble cannot
/// carry nominally (transport ran past the epoch horizon) is re-run
/// through run_fleet_seed itself, so the fallback is the identity.
void run_fleet_seed_batch(
    const FleetJob& job, const sim::ScenarioSpec& spec,
    const std::shared_ptr<const sim::ScenarioTrace>& trace,
    const std::shared_ptr<const sim::ScenarioTrace>& cal_trace,
    std::uint64_t first_seed, std::size_t lane_count, FleetSeedResult* out) {
    std::array<std::uint64_t, kMaxBatchLanes> seeds{};
    for (std::size_t l = 0; l < lane_count; ++l) {
        seeds[l] = fleet_sub_seed(job_sensor_stream(job), first_seed + l);
    }
    sim::EnsembleRealizer ens(trace, job_truth(job, spec),
                              {seeds.data(), lane_count});
    EnsembleNominalSystem sys(system_config(job, spec), lane_count);
    RunScorer scorer(job, spec);

    for (std::size_t l = 0; l < lane_count; ++l) {
        out[l] = FleetSeedResult{};
        out[l].sensor_seed = seeds[l];
        // §11.1 calibration stays scalar per lane: the dwell is a fraction
        // of the run and its transport-free decode path has no batched
        // variant.
        if (job.calibration) {
            calibrate(cal_trace, seeds[l], out[l]);
            sys.set_calibrated_bias(l, out[l].calibrated_bias);
        }
    }

    std::size_t epochs = 0;
    double t = 0.0;
    while (ens.step(t)) {
        sys.feed(ens.trace(), t, ens.dmu(), ens.adxl());
        ++epochs;
        if (scorer.checked(t)) {
            const EulerAngles truth = ens.true_misalignment();
            for (std::size_t l = 0; l < lane_count; ++l) {
                if (sys.lane_ok(l)) {
                    scorer.score(out[l], t, sys.estimate(l), truth);
                }
            }
        }
        if (scorer.bump_due(t)) ens.bump(spec.bump.delta);
    }

    for (std::size_t l = 0; l < lane_count; ++l) {
        if (sys.lane_ok(l)) {
            scorer.finalize(out[l], first_seed + l, epochs, sys.status(l),
                            ens.true_misalignment(), ens.duration());
        } else {
            // The lane left the nominal transport envelope mid-run; its
            // batched state is stale. Realize it scalar from scratch — the
            // always-correct reference — overwriting everything above.
            out[l] = run_fleet_seed(job, spec, trace, cal_trace,
                                    first_seed + l);
        }
    }
}

/// Mean / sample standard deviation in seed-index order (two fixed-order
/// passes, so the doubles are scheduling-independent).
template <class Get>
[[nodiscard]] FleetMetricStats metric_stats(
    const std::vector<FleetSeedResult>& seeds, Get get) {
    FleetMetricStats out;
    const auto n = static_cast<double>(seeds.size());
    double sum = 0.0;
    for (const auto& s : seeds) sum += get(s);
    out.mean = sum / n;
    if (seeds.size() > 1) {
        double sq = 0.0;
        for (const auto& s : seeds) {
            const double d = get(s) - out.mean;
            sq += d * d;
        }
        out.stddev = std::sqrt(sq / (n - 1.0));
    }
    return out;
}

}  // namespace

FleetResult reduce_fleet_job(const FleetJob& job,
                             std::vector<FleetSeedResult> seeds) {
    if (seeds.size() != job.seeds_per_job) {
        throw std::invalid_argument(
            "reduce_fleet_job: " + std::to_string(seeds.size()) +
            " seed result(s) for a job with seeds_per_job " +
            std::to_string(job.seeds_per_job));
    }
    const auto& spec = sim::ScenarioLibrary::instance().at(job.scenario);
    FleetResult out;
    out.scenario = job.scenario;
    out.processor = job.processor;
    out.envelope = job_envelope(job, spec);

    out.seed_stats.seeds = seeds.size();
    for (const auto& s : seeds) {
        if (s.within_envelope) ++out.seed_stats.within_envelope;
    }
    out.seed_stats.roll_err_deg = metric_stats(
        seeds, [](const FleetSeedResult& s) { return s.trace.worst_roll_err_deg; });
    out.seed_stats.pitch_err_deg = metric_stats(
        seeds, [](const FleetSeedResult& s) { return s.trace.worst_pitch_err_deg; });
    out.seed_stats.yaw_err_deg = metric_stats(
        seeds, [](const FleetSeedResult& s) { return s.trace.worst_yaw_err_deg; });
    out.seed_stats.residual_rms = metric_stats(
        seeds, [](const FleetSeedResult& s) { return s.result.residual_rms; });

    out.seeds = std::move(seeds);
    return out;
}

void encode_fleet_job(util::ByteWriter& w, const FleetJob& job) {
    w.str(job.scenario);
    w.u8(job.processor == BoresightSystem::Processor::kNative ? 0 : 1);
    w.u64(job.base_seed);
    w.f64(job.duration_s);
    w.boolean(job.misalignment.has_value());
    if (job.misalignment) {
        w.f64(job.misalignment->roll);
        w.f64(job.misalignment->pitch);
        w.f64(job.misalignment->yaw);
    }
    w.boolean(job.calibration.has_value());
    if (job.calibration) w.f64(job.calibration->duration_s);
    w.boolean(job.use_adaptive_tuner);
    w.boolean(job.tuner.has_value());
    if (job.tuner) {
        w.f64(job.tuner->floor_mps2);
        w.f64(job.tuner->ceiling_mps2);
        w.f64(job.tuner->raise_threshold);
        w.f64(job.tuner->lower_threshold);
        w.f64(job.tuner->raise_factor);
        w.f64(job.tuner->lower_factor);
        w.u64(job.tuner->window);
        w.u64(job.tuner->min_samples);
    }
    w.boolean(job.meas_noise_mps2.has_value());
    if (job.meas_noise_mps2) w.f64(*job.meas_noise_mps2);
    w.u64(job.seeds_per_job);
    w.boolean(job.fault.has_value());
    if (job.fault) {
        w.u8(static_cast<std::uint8_t>(job.fault->type));
        w.f64(job.fault->intensity);
        w.u64(job.fault->burst_frames);
    }
}

FleetJob decode_fleet_job(util::ByteReader& r) {
    FleetJob job;
    job.scenario = r.str();
    const std::uint8_t proc = r.u8();
    if (proc > 1) {
        throw util::WireError("fleet job: processor byte " +
                              std::to_string(proc) + " is not 0 or 1");
    }
    job.processor = proc == 0 ? BoresightSystem::Processor::kNative
                              : BoresightSystem::Processor::kSabre;
    job.base_seed = r.u64();
    job.duration_s = r.f64();
    if (r.boolean()) {
        math::EulerAngles mis;
        mis.roll = r.f64();
        mis.pitch = r.f64();
        mis.yaw = r.f64();
        job.misalignment = mis;
    }
    if (r.boolean()) {
        FleetCalibration cal;
        cal.duration_s = r.f64();
        job.calibration = cal;
    }
    job.use_adaptive_tuner = r.boolean();
    if (r.boolean()) {
        core::AdaptiveTunerConfig tuner;
        tuner.floor_mps2 = r.f64();
        tuner.ceiling_mps2 = r.f64();
        tuner.raise_threshold = r.f64();
        tuner.lower_threshold = r.f64();
        tuner.raise_factor = r.f64();
        tuner.lower_factor = r.f64();
        tuner.window = static_cast<std::size_t>(r.u64());
        tuner.min_samples = static_cast<std::size_t>(r.u64());
        job.tuner = tuner;
    }
    if (r.boolean()) job.meas_noise_mps2 = r.f64();
    job.seeds_per_job = r.u64();
    if (r.boolean()) {
        FleetFault fault;
        const std::uint8_t type = r.u8();
        if (type > static_cast<std::uint8_t>(FaultType::kImuFrozen)) {
            throw util::WireError("fleet job: fault type byte " +
                                  std::to_string(type) + " is out of range");
        }
        fault.type = static_cast<FaultType>(type);
        fault.intensity = r.f64();
        fault.burst_frames = static_cast<std::size_t>(r.u64());
        job.fault = fault;
    }
    return job;
}

FleetPlan make_fleet_plan(const std::vector<FleetJob>& jobs) {
    FleetPlan plan;
    util::ByteWriter bytes;
    bytes.u64(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].validate();
        encode_fleet_job(bytes, jobs[j]);
        for (std::uint64_t k = 0; k < jobs[j].seeds_per_job; ++k) {
            plan.items.push_back({j, k});
        }
    }
    // FNV-1a over the canonical job encodings: the digest pins the batch
    // identity a shard artifact claims membership of.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes.data()) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    plan.digest = h;
    return plan;
}

double FleetMetricStats::ci95(std::size_t n) const {
    if (n < 2) return 0.0;
    return 1.96 * stddev / std::sqrt(static_cast<double>(n));
}

std::uint64_t fleet_sub_seed(std::uint64_t sensor_seed, std::uint64_t index) {
    if (index == 0) return sensor_seed;
    // FNV-1a over the four index bytes folded into the stream seed, with
    // the same finalizing avalanche scenario_seed uses.
    std::uint64_t h = sensor_seed ^ 0xcbf29ce484222325ull;
    for (int shift = 0; shift < 32; shift += 8) {
        h ^= (index >> shift) & 0xFFull;
        h *= 0x100000001b3ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

const char* processor_name(BoresightSystem::Processor p) {
    return p == BoresightSystem::Processor::kNative ? "native" : "sabre";
}

const char* fault_type_name(FaultType t) {
    switch (t) {
        case FaultType::kUartDropout:
            return "uart-dropout";
        case FaultType::kUartCorruption:
            return "uart-corruption";
        case FaultType::kCanBurstLoss:
            return "can-burst-loss";
        case FaultType::kAccStuck:
            return "acc-stuck";
        case FaultType::kImuFrozen:
            return "imu-frozen";
    }
    return "unknown";
}

void FleetFault::validate() const {
    if (!(intensity >= 0.0 && intensity <= 1.0)) {
        throw std::invalid_argument(
            "FleetFault: intensity must be in [0, 1]");
    }
    if (burst_frames == 0) {
        throw std::invalid_argument(
            "FleetFault: burst length must be at least one frame");
    }
}

void FleetCalibration::validate() const {
    if (!std::isfinite(duration_s) || duration_s <= 0.0) {
        throw std::invalid_argument(
            "FleetCalibration: level-platform dwell must be positive and "
            "finite");
    }
}

void FleetJob::validate() const {
    if (scenario.empty()) {
        throw std::invalid_argument("FleetJob: scenario name must not be empty");
    }
    if (!sim::ScenarioLibrary::instance().find(scenario)) {
        throw std::invalid_argument("FleetJob: unknown scenario '" + scenario +
                                    "'");
    }
    if (!std::isfinite(duration_s) || duration_s < 0.0) {
        throw std::invalid_argument(
            "FleetJob: duration override must be non-negative and finite");
    }
    if (misalignment) {
        // Per axis first: std::max below would drop a NaN operand.
        if (!std::isfinite(misalignment->roll) ||
            !std::isfinite(misalignment->pitch) ||
            !std::isfinite(misalignment->yaw)) {
            throw std::invalid_argument(
                "FleetJob: misalignment override must be finite");
        }
        const double worst =
            std::max({std::abs(misalignment->roll), std::abs(misalignment->pitch),
                      std::abs(misalignment->yaw)});
        if (worst > kFleetSmallAngleLimitRad) {
            throw std::invalid_argument(
                "FleetJob: misalignment override of " +
                std::to_string(rad2deg(worst)) +
                " deg is outside the EKF's small-angle regime (limit " +
                std::to_string(rad2deg(kFleetSmallAngleLimitRad)) + " deg)");
        }
    }
    if (calibration) calibration->validate();
    if (tuner) {
        if (!use_adaptive_tuner) {
            throw std::invalid_argument(
                "FleetJob: tuner config override requires use_adaptive_tuner");
        }
        tuner->validate();
    }
    if (meas_noise_mps2 &&
        (!std::isfinite(*meas_noise_mps2) || *meas_noise_mps2 <= 0.0)) {
        throw std::invalid_argument(
            "FleetJob: measurement-noise override must be positive and finite");
    }
    if (fault) fault->validate();
    if (seeds_per_job == 0) {
        throw std::invalid_argument(
            "FleetJob: seeds_per_job must be at least 1");
    }
    if (seeds_per_job > kFleetMaxSeedsPerJob) {
        throw std::invalid_argument(
            "FleetJob: seeds_per_job of " + std::to_string(seeds_per_job) +
            " would overflow the 32-bit FNV-1a sub-seed derivation (limit " +
            std::to_string(kFleetMaxSeedsPerJob) + ")");
    }
}

FleetResult run_fleet_job(const FleetJob& job,
                          const FleetEpochObserver& observe) {
    job.validate();
    const auto& spec = sim::ScenarioLibrary::instance().at(job.scenario);

    // Reference semantics for the whole stack: synthesize this job's traces
    // locally, realize every seed in order, reduce. FleetRunner must match
    // this bit for bit however it schedules and shares.
    const auto trace = sim::ScenarioTrace::build(
        main_scenario_config(job, spec), job_sensor_stream(job));
    std::shared_ptr<const sim::ScenarioTrace> cal_trace;
    if (job.calibration) {
        cal_trace = sim::ScenarioTrace::build(
            calibration_scenario_config(*trace, job.calibration->duration_s),
            job_sensor_stream(job));
    }

    std::vector<FleetSeedResult> seeds;
    seeds.reserve(job.seeds_per_job);
    for (std::uint64_t k = 0; k < job.seeds_per_job; ++k) {
        seeds.push_back(
            observe ? run_fleet_seed(job, spec, trace, cal_trace, k, observe)
                    : run_fleet_seed(job, spec, trace, cal_trace, k));
    }
    return reduce_fleet_job(job, std::move(seeds));
}

FleetRunner::FleetRunner() : FleetRunner(Config{}) {}

FleetRunner::FleetRunner(Config cfg)
    : threads_(cfg.threads != 0
                   ? cfg.threads
                   : std::max(1u, std::thread::hardware_concurrency())) {}

std::vector<FleetResult> FleetRunner::run(
    const std::vector<FleetJob>& jobs) const {
    std::size_t total = 0;
    for (const auto& j : jobs) {
        j.validate();
        total += static_cast<std::size_t>(j.seeds_per_job);
    }
    // Realize the full plan, then slice the flat plan-order results back
    // into per-job ensembles and reduce. fleet_shard runs the same
    // run_items over a subrange and fleet_merge applies the same reduce,
    // which is what makes a merged shard set bitwise this call.
    std::vector<FleetSeedResult> flat = run_items(jobs, 0, total);
    std::vector<FleetResult> results;
    results.reserve(jobs.size());
    std::size_t pos = 0;
    for (const auto& job : jobs) {
        const auto n = static_cast<std::size_t>(job.seeds_per_job);
        std::vector<FleetSeedResult> seeds(
            std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos)),
            std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos + n)));
        pos += n;
        results.push_back(reduce_fleet_job(job, std::move(seeds)));
    }
    return results;
}

std::vector<FleetSeedResult> FleetRunner::run_items(
    const std::vector<FleetJob>& jobs, std::size_t first,
    std::size_t count) const {
    for (const auto& j : jobs) j.validate();

    // ---- Plan: group realizations by trace identity. ---------------------
    // Key: everything ScenarioTrace::build consumes — scenario, base seed,
    // requested duration and, for calibration traces, the dwell. The
    // injected misalignment is deliberately NOT part of the identity: a
    // spec builder affects nothing but `true_misalignment` with it (the
    // ScenarioSpec::build contract), and the rotation is applied per
    // realization — so a misalignment sweep shares one trace per scenario.
    using TraceKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                                bool, std::uint64_t>;
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const auto key_of = [&](const FleetJob& job, const sim::ScenarioSpec& spec,
                            bool calibration) {
        return TraceKey{job.scenario,
                        job.base_seed,
                        bits(job_duration(job, spec)),
                        calibration,
                        calibration ? bits(job.calibration->duration_s) : 0};
    };

    constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    struct TraceSlot {
        const FleetJob* job = nullptr;  ///< representative for the build
        bool calibration = false;
        /// For a calibration slot: the main slot whose built trace supplies
        /// the instrument error fields (cal slots build in a second wave).
        std::size_t main_slot_for_cal = kNoSlot;
        std::shared_ptr<const sim::ScenarioTrace> trace;
        std::exception_ptr error;
        std::atomic<std::size_t> remaining{0};
    };

    std::deque<TraceSlot> slots;  // deque: grows without moving slots
    std::map<TraceKey, std::size_t> slot_index;
    std::vector<const sim::ScenarioSpec*> specs(jobs.size());
    std::vector<std::size_t> main_slot(jobs.size(), kNoSlot);
    std::vector<std::size_t> cal_slot(jobs.size(), kNoSlot);

    struct Item {
        std::size_t job = 0;
        std::uint64_t seed = 0;
    };
    std::vector<Item> items;
    items.reserve(count);
    std::vector<FleetSeedResult> outcomes(count);

    // Walk the jobs in plan order (job-major, seed-minor), keeping only
    // the items whose global plan index lands in [first, first + count).
    // Traces are interned only for jobs the slice actually touches, so a
    // shard never synthesizes a trace it has no work for.
    const std::size_t slice_end = first + count;
    std::size_t base = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        specs[j] = &sim::ScenarioLibrary::instance().at(jobs[j].scenario);
        const std::size_t seeds =
            static_cast<std::size_t>(jobs[j].seeds_per_job);
        const std::size_t lo = std::max(first, base);
        const std::size_t hi = std::min(slice_end, base + seeds);
        if (lo < hi) {
            const auto intern = [&](bool calibration) {
                const TraceKey key = key_of(jobs[j], *specs[j], calibration);
                auto [it, inserted] = slot_index.try_emplace(key, slots.size());
                if (inserted) {
                    slots.emplace_back();
                    slots.back().job = &jobs[j];
                    slots.back().calibration = calibration;
                }
                return it->second;
            };
            main_slot[j] = intern(false);
            if (jobs[j].calibration) {
                cal_slot[j] = intern(true);
                slots[cal_slot[j]].main_slot_for_cal = main_slot[j];
            }
            for (std::size_t g = lo; g < hi; ++g) {
                items.push_back({j, static_cast<std::uint64_t>(g - base)});
            }
        }
        base += seeds;
    }
    if (slice_end > base || first > base) {
        throw std::out_of_range(
            "FleetRunner::run_items: slice [" + std::to_string(first) +
            ", " + std::to_string(slice_end) + ") overruns the " +
            std::to_string(base) + "-item plan");
    }
    for (const auto& item : items) {
        ++slots[main_slot[item.job]].remaining;
        if (cal_slot[item.job] != kNoSlot) {
            ++slots[cal_slot[item.job]].remaining;
        }
    }

    // ---- Trace: synthesize each unique trace exactly once. Main traces
    // build in a first wave; calibration traces in a second, reading their
    // instrument error fields off the built main trace.
    const auto build_slot = [&](TraceSlot& slot) {
        try {
            const auto& job = *slot.job;
            if (slot.calibration) {
                const TraceSlot& main = slots[slot.main_slot_for_cal];
                if (main.error) std::rethrow_exception(main.error);
                slot.trace = sim::ScenarioTrace::build(
                    calibration_scenario_config(*main.trace,
                                                job.calibration->duration_s),
                    job_sensor_stream(job));
            } else {
                const auto& spec =
                    sim::ScenarioLibrary::instance().at(job.scenario);
                slot.trace = sim::ScenarioTrace::build(
                    main_scenario_config(job, spec), job_sensor_stream(job));
            }
        } catch (...) {
            slot.error = std::current_exception();
        }
    };
    std::vector<std::size_t> main_wave, cal_wave;
    for (std::size_t s = 0; s < slots.size(); ++s) {
        (slots[s].calibration ? cal_wave : main_wave).push_back(s);
    }

    // ---- Realize: per-seed realization over the shared traces. -----------
    // Work units: contiguous plan-order runs of one batchable job's items
    // (consecutive seed indices by construction of the plan walk) merge
    // into ensemble units of up to kMaxBatchLanes lanes; every other item
    // is a unit of its own. A unit is still one scheduling quantum — which
    // thread runs it never changes what it computes.
    struct Unit {
        std::size_t first = 0;  ///< index into items/outcomes/errors
        std::size_t count = 1;  ///< lanes; 1 => scalar run_fleet_seed
    };
    std::vector<Unit> units;
    units.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!units.empty()) {
            Unit& u = units.back();
            const Item& prev = items[i - 1];
            const Item& cur = items[i];
            if (cur.job == prev.job && cur.seed == prev.seed + 1 &&
                u.count < kMaxBatchLanes && job_batchable(jobs[cur.job])) {
                ++u.count;
                continue;
            }
        }
        units.push_back({i, 1});
    }

    std::vector<std::exception_ptr> errors(items.size());
    const auto run_unit = [&](std::size_t u) {
        const Unit& unit = units[u];
        const Item& head = items[unit.first];
        const FleetJob& job = jobs[head.job];
        const sim::ScenarioSpec& spec = *specs[head.job];
        try {
            const TraceSlot& ms = slots[main_slot[head.job]];
            if (ms.error) std::rethrow_exception(ms.error);
            const auto& trace = ms.trace;
            std::shared_ptr<const sim::ScenarioTrace> cal_trace;
            if (cal_slot[head.job] != kNoSlot) {
                const TraceSlot& cs = slots[cal_slot[head.job]];
                if (cs.error) std::rethrow_exception(cs.error);
                cal_trace = cs.trace;
            }
            if (unit.count == 1) {
                outcomes[unit.first] =
                    run_fleet_seed(job, spec, trace, cal_trace, head.seed);
            } else {
                run_fleet_seed_batch(job, spec, trace, cal_trace, head.seed,
                                     unit.count, &outcomes[unit.first]);
            }
        } catch (...) {
            errors[unit.first] = std::current_exception();
        }
        // Release each trace as its last realization drains so a long
        // sweep's memory high-water mark follows the active scenarios, not
        // the batch.
        for (const std::size_t s : {main_slot[head.job], cal_slot[head.job]}) {
            if (s != kNoSlot &&
                slots[s].remaining.fetch_sub(unit.count) == unit.count) {
                slots[s].trace.reset();
            }
        }
    };

    const std::size_t workers =
        std::min(threads_, std::max(units.size(), slots.size()));
    if (workers <= 1) {
        for (const std::size_t s : main_wave) build_slot(slots[s]);
        for (const std::size_t s : cal_wave) build_slot(slots[s]);
        for (std::size_t u = 0; u < units.size(); ++u) run_unit(u);
    } else {
        // Work-stealing off shared indices, with barriers between the
        // Trace waves and the Realize phase: scheduling decides only WHICH
        // thread runs a unit, never what it computes.
        const auto run_phase = [&](std::size_t n_work, auto&& work) {
            if (n_work == 0) return;
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w) {
                pool.emplace_back([&] {
                    for (;;) {
                        const std::size_t u = next.fetch_add(1);
                        if (u >= n_work) return;
                        work(u);
                    }
                });
            }
            for (auto& th : pool) th.join();
        };
        run_phase(main_wave.size(),
                  [&](std::size_t u) { build_slot(slots[main_wave[u]]); });
        run_phase(cal_wave.size(),
                  [&](std::size_t u) { build_slot(slots[cal_wave[u]]); });
        run_phase(units.size(), [&](std::size_t u) { run_unit(u); });
    }

    // Rethrow the lowest-index failure so the surfaced error is as
    // deterministic as the results.
    for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }

    return outcomes;
}

std::vector<FleetJob> full_library_jobs(BoresightSystem::Processor processor,
                                        std::uint64_t base_seed) {
    std::vector<FleetJob> jobs;
    for (const auto& spec : sim::ScenarioLibrary::instance().all()) {
        FleetJob job;
        job.scenario = spec.name;
        job.processor = processor;
        job.base_seed = base_seed;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

}  // namespace ob::system
