#pragma once

#include <cstddef>
#include <vector>

#include "comm/codec.hpp"
#include "core/ensemble_ekf.hpp"
#include "math/matrix.hpp"
#include "math/rotation.hpp"
#include "sim/scenario_trace.hpp"
#include "system/boresight_system.hpp"
#include "system/fusion_tail.hpp"

namespace ob::system {

/// Batched nominal-transport counterpart of `BoresightSystem` for the
/// native EKF: N lanes of one shared trace step through the Figure 2
/// pipeline together, one epoch at a time. Each lane drives its own
/// `FusionTail` (the scalar system's detector, tuner and supervisor
/// stage); the filters are an `core::EnsembleEkf`.
///
/// Instead of instantiating N CAN bus / UART / SLIP object stacks, the
/// nominal transport is advanced analytically with bitwise the FP
/// operations the event-driven models perform on a fault-free run:
///
///   - CAN: both frames are requested at the epoch time, the gyro frame
///     (id 0x100) wins arbitration, so `t_start = max(busy, t)` and each
///     delivery adds `wire_bits / bitrate`; max-latency updates happen in
///     delivery order, exactly as `CanBus::advance_to`.
///   - Bridge/SLIP/UART: each frame becomes a 2+5+dlc+escapes byte SLIP
///     stream requested at its CAN delivery time; the line chains
///     `busy = max(t_request, busy) + 10/baud` PER BYTE (the per-byte loop
///     is kept — folding it into one multiply would change FP results).
///   - The decoded DMU sample equals the sent one with `.t` = arrival time
///     of the accel stream's trailing END byte; the decoded ACC timing
///     equals the sent one. Both identities hold on the fault-free wire
///     and are pinned by the ensemble differential test.
///
/// Any epoch that violates the nominal-delivery envelope (a frame or byte
/// chain running past the half-epoch horizon, an implausible ACC timing)
/// marks the lane failed (`lane_ok`); the caller reruns such lanes through
/// the scalar `BoresightSystem`, which remains the reference semantics.
/// Invariant: for every lane that stays ok, status(lane) is bit-identical
/// to the scalar system fed the same per-lane samples.
class EnsembleNominalSystem {
public:
    /// `cfg` must select the native processor and a fault-free transport
    /// (throws std::invalid_argument otherwise); all lanes share it.
    EnsembleNominalSystem(const BoresightSystem::Config& cfg,
                          std::size_t lanes);

    [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

    /// Per-lane §11.1 calibration result (run_fleet_seed calibrates each
    /// seed independently; the config's bias is only the shared default).
    void set_calibrated_bias(std::size_t lane, const math::Vec2& bias);

    /// Feed one epoch for every lane: `dmu`/`adxl` are lane-indexed arrays
    /// (the EnsembleRealizer's SoA outputs). Lanes already failed are
    /// skipped entirely.
    void feed(const sim::ScenarioTrace& trace, double t,
              const comm::DmuSample* dmu, const comm::AdxlTiming* adxl);

    /// False once the lane left the nominal-delivery envelope; its state
    /// is then stale and the caller must fall back to the scalar path.
    [[nodiscard]] bool lane_ok(std::size_t lane) const {
        return lanes_[lane].ok;
    }

    /// Scoring accessors (cheaper than a full status() per check epoch).
    [[nodiscard]] math::EulerAngles estimate(std::size_t lane) const {
        return ekf_.misalignment(lane);
    }

    /// Bit-identical to BoresightSystem::status() of a scalar system fed
    /// this lane's samples (nominal run: all loss counters zero).
    [[nodiscard]] BoresightSystem::Status status(std::size_t lane) const;

private:
    struct Lane {
        double can_busy = 0.0;         ///< CanBus::busy_until_
        double can_max_latency = 0.0;  ///< CanBus::max_latency_
        double dmu_busy = 0.0;         ///< DMU UART line_busy_until_
        double acc_busy = 0.0;         ///< ACC UART line_busy_until_
        math::Vec2 calibrated_bias{};
        std::size_t updates = 0;
        bool ok = true;
    };

    BoresightSystem::Config cfg_;
    const comm::DmuScale dmu_scale_{};
    double byte_time_;  ///< UartLink::byte_time() = 10 / baud
    core::EnsembleEkf ekf_;
    std::vector<Lane> lanes_;
    std::vector<FusionTail> tails_;
};

}  // namespace ob::system
