#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/alignment_report.hpp"
#include "math/rotation.hpp"
#include "sim/scenario_library.hpp"
#include "system/boresight_system.hpp"
#include "util/wire.hpp"

namespace ob::system {

/// Largest per-axis misalignment override a fleet job accepts (radians).
/// The boresight EKF linearizes the mounting rotation as a small-angle DCM,
/// so beyond roughly this bound the linearization error dominates the
/// estimate and a sweep cell would be measuring the model, not the tuning.
inline constexpr double kFleetSmallAngleLimitRad = math::deg2rad(15.0);

/// Upper bound on FleetJob::seeds_per_job: the Monte Carlo sub-seed folds
/// the realization index into the sensor stream as a 32-bit FNV-1a value,
/// so indices must fit in 32 bits or distinct seeds would alias.
inline constexpr std::uint64_t kFleetMaxSeedsPerJob = 1ull << 32;

/// Sensor-stream seed of Monte Carlo realization `index` of a job.
/// Index 0 returns the seed unchanged — the single-seed (scenario,
/// base_seed) contract, and the golden corpus pinned to it, is preserved
/// bit for bit. Higher indices FNV-1a-fold the index into the stream with
/// a final avalanche so neighboring realizations are uncorrelated.
[[nodiscard]] std::uint64_t fleet_sub_seed(std::uint64_t sensor_seed,
                                           std::uint64_t index);

/// Salt separating a realization's fault-draw stream from its
/// instrument-noise stream: the fault seed is
/// fleet_sub_seed(sensor_stream ^ salt, index), so arming a fault draws
/// nothing from the instrument stream (samples stay bitwise identical)
/// and each Monte Carlo realization faults differently.
inline constexpr std::uint64_t kFleetFaultStreamSalt = 0xFA17517EC7EDull;

/// Fault taxonomy of the injection campaigns: which first-class hook a
/// FleetFault drives.
enum class FaultType {
    kUartDropout,     ///< per-byte loss on both serial links
    kUartCorruption,  ///< per-byte bit flips on both serial links
    kCanBurstLoss,    ///< bursty frame erasure on the DMU CAN bus
    kAccStuck,        ///< ACC duty-cycle outputs frozen at last value
    kImuFrozen,       ///< DMU accel/gyro registers frozen at last value
};

[[nodiscard]] const char* fault_type_name(FaultType t);

/// Fault axis of a fleet job. Intensity is a single [0, 1] severity knob
/// whose meaning follows the type: the per-byte probability for link
/// faults, the per-frame burst-start probability for CAN burst loss, and
/// the frozen fraction of the run for stuck-sensor faults (the window's
/// start is drawn from the fault stream, inside the post-settle stretch).
/// Intensity 0 bypasses the fault machinery entirely — the realization is
/// bitwise the un-faulted run, which is what makes zero-intensity campaign
/// cells exact controls.
struct FleetFault {
    FaultType type = FaultType::kUartDropout;
    double intensity = 0.0;
    std::size_t burst_frames = 8;  ///< burst length for kCanBurstLoss

    /// Throws std::invalid_argument on an intensity outside [0, 1] or a
    /// zero burst length.
    void validate() const;
};

/// The paper's §11.1 pre-run procedure as a fleet phase: before the
/// scenario starts, the job's instruments (same sensor-seed realization)
/// sit on a level platform for `duration_s` of static epochs, a
/// CalibrationAccumulator measures the combined ACC-vs-IMU bias, and that
/// bias is subtracted from every subsequent ACC reading inside the
/// BoresightSystem.
struct FleetCalibration {
    double duration_s = 30.0;  ///< level-platform dwell before the run

    /// Throws std::invalid_argument on a non-positive dwell.
    void validate() const;
};

/// One unit of fleet work: a library scenario driven end to end through the
/// full-transport BoresightSystem on the chosen fusion processor. A job is
/// a pure value — every RNG stream it uses derives from (scenario name,
/// base_seed), so the result is a function of the job alone and batches can
/// be executed in any order on any number of threads. The calibration pass
/// keeps that contract: its scenario derives from the same (name, seed)
/// sensor stream, so a calibrated job is still a pure value.
struct FleetJob {
    std::string scenario;  ///< ScenarioLibrary name
    BoresightSystem::Processor processor =
        BoresightSystem::Processor::kNative;
    std::uint64_t base_seed = 2026;  ///< folded with the scenario name
    double duration_s = 0.0;         ///< 0 => the spec's default duration
    /// Override the spec's injected truth (fleet sweeps over misalignment).
    std::optional<math::EulerAngles> misalignment{};
    /// Run the §11.1 level-platform calibration before the scenario.
    std::optional<FleetCalibration> calibration{};
    bool use_adaptive_tuner = false;
    /// Tuner knobs; requires use_adaptive_tuner (a silent override on a
    /// disabled tuner is always a config mistake). Absent => defaults.
    std::optional<core::AdaptiveTunerConfig> tuner{};
    /// Initial measurement noise override, 1-sigma m/s² (tuning sweeps);
    /// absent => the spec's recommended value. Applies to both processors.
    std::optional<double> meas_noise_mps2{};
    /// Monte Carlo axis: number of instrument-seed realizations of this
    /// job. All realizations share one ScenarioTrace (same road, same
    /// vibration timeline) and differ only in their sensor draws, derived
    /// via fleet_sub_seed. 1 (the default) is bitwise the pre-seed-axis
    /// behavior.
    std::uint64_t seeds_per_job = 1;
    /// Fault-injection axis: when set with a positive intensity, the
    /// realization runs with the fault armed, its draws on a dedicated
    /// per-realization stream (kFleetFaultStreamSalt) independent of the
    /// instrument-noise stream. Absent or zero-intensity is bitwise the
    /// un-faulted run.
    std::optional<FleetFault> fault{};

    /// Throws std::invalid_argument on an empty/unknown scenario, a
    /// negative duration override, a misalignment override outside the
    /// small-angle regime, bad calibration/tuner specs, a non-positive
    /// measurement-noise override, or a seed count of zero / beyond
    /// kFleetMaxSeedsPerJob.
    void validate() const;
};

/// Envelope verdict and error-trace summary for one completed job. All
/// fields are deterministic functions of the job — no wall-clock ever lands
/// here, so two runs of the same job compare bitwise equal.
struct FleetTraceSummary {
    std::size_t epochs = 0;  ///< scenario steps fed into the transport
    /// Worst estimate-vs-truth excursion per axis over the envelope's
    /// checked windows (post-settle; for bump scenarios both the pre-bump
    /// and re-settled post-bump windows).
    double worst_roll_err_deg = 0.0;
    double worst_pitch_err_deg = 0.0;
    double worst_yaw_err_deg = 0.0;
    std::size_t checked_points = 0;  ///< samples inside the windows
    /// First checked-window time the estimate left the envelope (the
    /// ground-truth divergence instant fault campaigns compare the
    /// ResidualMonitor's flag against); -1 when it never did.
    double first_divergence_s = -1.0;
    /// Start/length of the stuck-sensor window realized for this seed
    /// (zero length for other fault types and un-faulted runs).
    double fault_window_start_s = 0.0;
    double fault_window_duration_s = 0.0;
};

/// One Monte Carlo realization of a job — the Realize layer's unit of
/// output. Realization 0 is the historical single-seed run.
struct FleetSeedResult {
    std::uint64_t sensor_seed = 0;  ///< fleet_sub_seed(stream, index)
    core::AlignmentResult result;   ///< Table 1 row shape for this run
    FleetTraceSummary trace;
    BoresightSystem::Status final_status{};
    bool within_envelope = false;
    // §11.1 calibration-phase outputs (all zero for uncalibrated jobs).
    math::Vec2 calibrated_bias{};    ///< bias subtracted during the run
    double calibration_noise = 0.0;  ///< per-sample noise at calibration
    std::size_t calibration_samples = 0;
};

/// Mean and sample standard deviation (n-1; zero when n == 1) of one
/// metric across a job's seed ensemble, accumulated in seed-index order so
/// the values are bitwise scheduling-independent.
struct FleetMetricStats {
    double mean = 0.0;
    double stddev = 0.0;

    /// 95% normal confidence half-width of the mean (1.96·σ/√n); zero for
    /// ensembles of fewer than two realizations. Every CI a study report
    /// or example prints funnels through this one definition.
    [[nodiscard]] double ci95(std::size_t n) const;
};

/// Cross-seed ensemble summary of a job: the Monte Carlo evidence behind a
/// single-realization envelope verdict (Zhong et al., arXiv:2109.06404).
struct FleetSeedStats {
    std::size_t seeds = 0;
    std::size_t within_envelope = 0;  ///< realizations inside the envelope
    FleetMetricStats roll_err_deg;    ///< worst post-settle excursions
    FleetMetricStats pitch_err_deg;
    FleetMetricStats yaw_err_deg;
    FleetMetricStats residual_rms;
};

struct FleetResult {
    std::string scenario;
    BoresightSystem::Processor processor =
        BoresightSystem::Processor::kNative;
    /// Envelope applied to this run (spec envelope, Sabre-scaled when the
    /// job ran on the firmware processor).
    sim::ScenarioEnvelope envelope{};
    /// All realizations in seed-index order (size == job.seeds_per_job)
    /// plus their ensemble summary.
    std::vector<FleetSeedResult> seeds;
    FleetSeedStats seed_stats;

    /// Realization 0 — bitwise the single-seed (scenario, base_seed) run,
    /// whatever seeds_per_job is. reduce_fleet_job guarantees
    /// seeds.size() == seeds_per_job >= 1, so this is always valid on a
    /// result it produced.
    [[nodiscard]] const FleetSeedResult& primary() const {
        return seeds.front();
    }
};

/// Execute one job serially. This is the reference semantics: FleetRunner
/// must produce, for every job, a result bitwise identical to this call.
[[nodiscard]] FleetResult run_fleet_job(const FleetJob& job);

/// Fold a job's seed ensemble (seed-index order, size == seeds_per_job)
/// into its FleetResult; the ensemble summary accumulates in seed order.
/// This is the Reduce step FleetRunner and run_fleet_job share —
/// fleet_merge applies it to seed results recombined from shard artifacts,
/// which is why a merged batch is bitwise the single-process run.
[[nodiscard]] FleetResult reduce_fleet_job(const FleetJob& job,
                                           std::vector<FleetSeedResult> seeds);

/// Canonical byte encoding of a FleetJob (little-endian, every field,
/// optionals as presence flags). Two uses, which must never diverge: the
/// fleet plan digest hashes these bytes, and the shard artifact embeds
/// them so `fleet_merge` is self-describing (docs/ARCHITECTURE.md §
/// "Sharding"). decode_fleet_job(encode_fleet_job(j)) == j field for field.
void encode_fleet_job(util::ByteWriter& w, const FleetJob& job);
[[nodiscard]] FleetJob decode_fleet_job(util::ByteReader& r);

/// One realization work item of the deterministic (job × seed) plan.
struct FleetPlanItem {
    std::size_t job = 0;        ///< index into the batch's job vector
    std::uint64_t seed = 0;     ///< realization index within the job
};

/// The expanded plan of a batch: work items in plan order (job-major,
/// seed-minor — exactly the order FleetRunner realizes and reduces), plus
/// a digest over the canonical job encodings. The digest is the identity
/// two shard artifacts must share before their ranges may be merged: equal
/// digests mean equal jobs, equal plan, equal item indices.
struct FleetPlan {
    std::vector<FleetPlanItem> items;
    std::uint64_t digest = 0;
};

/// Expand and digest the plan for a batch. Validates every job first, so
/// a plan (and therefore a shard artifact) can only exist for a runnable
/// batch.
[[nodiscard]] FleetPlan make_fleet_plan(const std::vector<FleetJob>& jobs);

/// Batch executor over the Plan/Trace/Realize stack.
///
///   Plan:    expand jobs × seeds_per_job into realization work items and
///            group them by trace identity (scenario, duration, base_seed,
///            calibration dwell — misalignment is applied per realization,
///            so a misalignment sweep shares one trace);
///   Trace:   synthesize each unique ScenarioTrace exactly once, in
///            parallel (immutable, shared across every realization that
///            consumes it — all {processor × tuner × seed} variants of a
///            scenario);
///   Realize: a fixed pool of worker threads pulls work units off a
///            shared index. Contiguous seed runs of one native, un-faulted
///            job step their shared trace together in SoA lanes
///            (sim::EnsembleRealizer + system::EnsembleNominalSystem);
///            Sabre jobs, jobs with an active fault and lanes that leave
///            the nominal transport envelope run the scalar path, which is
///            run_fleet_job's. Traces are released as their last
///            realization drains.
///
/// Scheduling decides only WHICH thread runs a work unit, never what it
/// computes, so the results vector — indexed by job position, seeds in
/// index order inside each result — is bitwise identical whatever the
/// thread count, including 1.
class FleetRunner {
public:
    struct Config {
        std::size_t threads = 0;  ///< 0 => std::thread::hardware_concurrency
    };

    FleetRunner();  ///< default Config (all hardware threads)
    explicit FleetRunner(Config cfg);

    /// Runs all jobs, returning results in job order. Validates every job
    /// before any work starts; a failure mid-batch (e.g. a Sabre cycle
    /// budget trap) is rethrown after all workers drain, lowest work-item
    /// index first, so the error surfaced is also deterministic.
    [[nodiscard]] std::vector<FleetResult> run(
        const std::vector<FleetJob>& jobs) const;

    /// Realize a contiguous plan-order slice [first, first + count) of
    /// make_fleet_plan(jobs).items, returning the seed results in plan
    /// order. This is the shard substrate: what a work item computes is a
    /// function of (job, seed index) alone, so a slice realized here is
    /// bitwise the same items realized by run() — whatever the partition,
    /// whatever the thread count. run() itself is run_items over the full
    /// range followed by reduce_fleet_job per job. Throws
    /// std::out_of_range when the slice overruns the plan.
    [[nodiscard]] std::vector<FleetSeedResult> run_items(
        const std::vector<FleetJob>& jobs, std::size_t first,
        std::size_t count) const;

    [[nodiscard]] std::size_t threads() const { return threads_; }

private:
    std::size_t threads_;
};

/// One job per library scenario on the given processor — the standard
/// regression batch.
[[nodiscard]] std::vector<FleetJob> full_library_jobs(
    BoresightSystem::Processor processor, std::uint64_t base_seed = 2026);

[[nodiscard]] const char* processor_name(BoresightSystem::Processor p);

}  // namespace ob::system
