#pragma once

#include <array>
#include <memory>
#include <optional>

#include "comm/bridge.hpp"
#include "comm/can.hpp"
#include "comm/codec.hpp"
#include "comm/uart.hpp"
#include "core/boresight_ekf.hpp"
#include "math/rotation.hpp"
#include "sim/scenario.hpp"
#include "system/fusion_tail.hpp"
#include "system/sabre_runner.hpp"

namespace ob::system {

/// The complete Figure 2 system with real transport:
///
///   IMU --CAN frames--> CanBus --bridge--> RS232 --deframe--> DmuCodec
///   ACC ----------------duty-cycle packets over RS232--------> Adxl
///                                 |
///                                 v
///            fusion processor (native EKF or Sabre firmware)
///                                 |
///                     roll/pitch/yaw + 3-sigma out
///
/// Every sensor sample crosses the byte-level links with realistic
/// latency, and the fusion step runs only when both halves of an epoch
/// have fully arrived — exactly the situation the deployed prototype
/// faced. The paper's Table 1 and Figures 8–9 run through this system
/// (via run_fleet_job), on either fusion processor.
class BoresightSystem {
public:
    enum class Processor {
        kNative,  ///< double-precision EKF on the host (fabric reference)
        kSabre,   ///< generated firmware on the Sabre ISS + softfloat FPU
    };

    struct Config {
        Processor processor = Processor::kNative;
        core::BoresightConfig filter{};
        SabreFusionSystem::Config sabre{};
        double can_bitrate = 500000.0;
        double uart_baud = 115200.0;
        comm::UartFaults dmu_link_faults{};
        comm::UartFaults acc_link_faults{};
        comm::CanFaults can_faults{};  ///< burst loss on the DMU CAN bus
        /// Seed base for the serial links' counter-keyed fault streams.
        /// 0 keeps the legacy fixed per-link seeds, preserving every
        /// pre-campaign run bit for bit; fault campaigns derive a nonzero
        /// base per realization so fault draws vary across the seed axis.
        std::uint64_t link_fault_seed = 0;
        bool use_adaptive_tuner = false;
        core::AdaptiveTunerConfig tuner{};
        math::Vec2 calibrated_bias{};  ///< subtracted from ACC readings
        /// Residual-health monitor (always on; the campaign's detector):
        /// sliding window per axis, latched-alarm rate and the minimum
        /// axis-sample count before the alarm may trip.
        std::size_t monitor_window = 2000;
        double monitor_alarm_rate = core::ResidualMonitor::kDefaultAlarmRate;
        std::size_t monitor_min_samples = 200;
        /// Liveness watchdogs + latched health state machine + coast-mode
        /// covariance growth (always on; the residual monitor's complement
        /// for the starvation regimes where no residuals arrive at all).
        /// The defaults never trip on an un-faulted run, so arming the
        /// supervisor perturbs nothing.
        HealthSupervisorConfig supervisor{};

        /// Throws std::invalid_argument naming the first bad field. Called
        /// by the BoresightSystem constructor: a zero bitrate or a
        /// non-positive filter noise would otherwise only show up as NaN
        /// estimates thousands of epochs later.
        void validate() const;
    };

    explicit BoresightSystem(const Config& cfg);

    /// Pinned in place: the CAN bus delivers straight into this object's
    /// bridge, and the bridge writes into this object's DMU link, so a
    /// copied or moved system would feed (or dangle into) the source.
    BoresightSystem(const BoresightSystem&) = delete;
    BoresightSystem& operator=(const BoresightSystem&) = delete;
    BoresightSystem(BoresightSystem&&) = delete;
    BoresightSystem& operator=(BoresightSystem&&) = delete;

    /// Feed one scenario epoch into the transport at its timestamp; runs
    /// the bus/links forward and the fusion for every completed pair. The
    /// trace supplies the wire-format constants (ADXL duty-cycle law,
    /// sample rate); the arguments carry one realization's sensor pair —
    /// the shape Scenario::next_wire produces.
    void feed(const sim::ScenarioTrace& trace, double t,
              const comm::DmuSample& dmu, const comm::AdxlTiming& adxl);

    /// Full-Step overloads (the truth fields ride along unused).
    void feed(const sim::ScenarioTrace& trace,
              const sim::Scenario::Step& step) {
        feed(trace, step.t, step.dmu, step.adxl);
    }
    void feed(const sim::Scenario& sc, const sim::Scenario::Step& step) {
        feed(sc.trace(), step.t, step.dmu, step.adxl);
    }

    using Status = BoresightStatus;
    [[nodiscard]] Status status() const;

    /// Current misalignment estimate (the native EKF's, or the Sabre
    /// firmware's registers): status().estimate without the rest of the
    /// status.
    [[nodiscard]] math::EulerAngles estimate() const;

    /// Residual and innovation 3σ of the latest fusion update — the pair
    /// FusionTail::update saw; zero before the first update.
    struct FusionUpdate {
        math::Vec2 residual{};  ///< m/s²
        math::Vec2 sigma3{};
    };
    [[nodiscard]] const FusionUpdate& last_update() const {
        return last_update_;
    }

    /// Swap both serial links' fault models mid-run (outage/recovery
    /// drills). The links' fault draws are counter-keyed on byte index, so
    /// the swap is position-independent: the same epochs fault whether the
    /// model was set at construction or here.
    void set_link_faults(const comm::UartFaults& dmu,
                         const comm::UartFaults& acc);

private:
    void process_pair(const comm::DmuSample& dmu, const comm::AdxlTiming& acc);

    Config cfg_;
    const comm::DmuScale dmu_scale_{};
    comm::AdxlConfig adxl_{};

    // Transport chain.
    comm::CanBus can_;
    comm::UartLink dmu_uart_;
    comm::UartLink acc_uart_;
    comm::CanSerialBridge bridge_;
    comm::CanSerialDeframer deframer_;
    comm::DmuCodec dmu_codec_;
    comm::AdxlDeserializer acc_deser_;

    /// Per-epoch scratch: encoded frames/packets are built in place here so
    /// steady-state `feed` touches no heap.
    struct Scratch {
        comm::CanFrame gyro_frame;
        comm::CanFrame accel_frame;
        std::array<std::uint8_t, comm::kAdxlPacketSize> acc_packet{};
    };
    Scratch scratch_;
    std::size_t implausible_acc_ = 0;
    std::optional<comm::DmuSample> pending_dmu_;
    std::optional<comm::AdxlTiming> pending_acc_;
    /// Per-epoch liveness flags the drain sinks raise for the supervisor:
    /// a decoded DMU sample / plausibility-clean ACC timing landed during
    /// this feed call.
    bool epoch_dmu_delivered_ = false;
    bool epoch_acc_delivered_ = false;

    // Fusion processors.
    std::unique_ptr<core::BoresightEkf> native_;
    std::unique_ptr<SabreFusionSystem> sabre_;
    FusionTail tail_;
    /// Host-side accumulated coast variance (rad²) folded into the
    /// reported 3σ on the Sabre path, where the covariance lives inside
    /// the firmware; cleared when the supervisor declares recovery. The
    /// native path grows the EKF covariance directly instead.
    double coast_var_ = 0.0;
    std::size_t updates_ = 0;
    FusionUpdate last_update_{};
    /// True when a nonzero calibrated bias must be folded into the raw ACC
    /// timings before the Sabre firmware sees them (the native EKF path
    /// subtracts the bias on the decoded measurement directly).
    bool apply_acc_bias_ = false;
};

}  // namespace ob::system
