#include "system/ensemble_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/slip.hpp"

namespace ob::system {

using math::Vec2;
using math::Vec3;

namespace {

/// On-wire byte count of one bridged CAN frame's SLIP stream: END +
/// escaped [id_hi, id_lo, dlc, data..., crc_hi, crc_lo] + END. Payload
/// bytes equal to the SLIP END/ESC codes expand to two bytes on the line.
[[nodiscard]] std::size_t slip_stream_bytes(const comm::CanFrame& f,
                                            std::uint16_t crc) {
    const auto escaped = [](std::uint8_t b) {
        return b == comm::slip::kEnd || b == comm::slip::kEsc;
    };
    std::size_t n = 2u + 5u + f.dlc;
    n += escaped(static_cast<std::uint8_t>(f.id >> 8));
    n += escaped(static_cast<std::uint8_t>(f.id & 0xFF));
    n += escaped(f.dlc);
    for (std::uint8_t i = 0; i < f.dlc; ++i) n += escaped(f.data[i]);
    n += escaped(static_cast<std::uint8_t>(crc >> 8));
    n += escaped(static_cast<std::uint8_t>(crc & 0xFF));
    return n;
}

/// Serialize `n` bytes requested at `t_request` onto a line whose previous
/// transmission ends at `busy`; returns the new line-busy time (= arrival
/// of the last byte). The per-byte loop is deliberate: it performs exactly
/// UartLink::send's FP operations, so the chained times are bitwise the
/// event-driven link's.
[[nodiscard]] double chain_bytes(double busy, double t_request, std::size_t n,
                                 double byte_time) {
    for (std::size_t i = 0; i < n; ++i) {
        busy = std::max(t_request, busy) + byte_time;
    }
    return busy;
}

}  // namespace

EnsembleNominalSystem::EnsembleNominalSystem(const BoresightSystem::Config& cfg,
                                             std::size_t lanes)
    : cfg_((cfg.validate(), cfg)),
      byte_time_(10.0 / cfg.uart_baud),
      ekf_(cfg.filter, lanes) {
    if (cfg.processor != BoresightSystem::Processor::kNative) {
        throw std::invalid_argument(
            "EnsembleNominalSystem: native processor only");
    }
    if (cfg.dmu_link_faults.any() || cfg.acc_link_faults.any() ||
        cfg.can_faults.any()) {
        throw std::invalid_argument(
            "EnsembleNominalSystem: fault-free transport only");
    }
    lanes_.resize(lanes);
    for (auto& lane : lanes_) lane.calibrated_bias = cfg.calibrated_bias;
    tails_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
        tails_.emplace_back(cfg.monitor_window, cfg.monitor_alarm_rate,
                            cfg.monitor_min_samples, cfg.use_adaptive_tuner,
                            cfg.tuner, cfg.supervisor);
    }
}

void EnsembleNominalSystem::set_calibrated_bias(std::size_t lane,
                                                const Vec2& bias) {
    lanes_[lane].calibrated_bias = bias;
}

void EnsembleNominalSystem::feed(const sim::ScenarioTrace& trace,
                                 const double t, const comm::DmuSample* dmu,
                                 const comm::AdxlTiming* adxl) {
    const comm::AdxlConfig adxl_cfg = trace.adxl();
    const double horizon = t + 0.5 / trace.sample_rate_hz();
    const double dt_s = 1.0 / trace.sample_rate_hz();
    comm::CanFrame gyro;
    comm::CanFrame accel;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        Lane& lane = lanes_[l];
        if (!lane.ok) continue;

        // CAN bus: both frames requested at t; the gyro frame's lower id
        // wins the first arbitration. Deliveries must land inside the
        // half-epoch horizon (`tdg` strictly: CanBus::advance_to returns
        // before the second arbitration once t_start reaches the horizon).
        comm::DmuCodec::encode_into(dmu[l], gyro, accel);
        const auto gi = comm::can_wire_info(gyro);
        const auto ai = comm::can_wire_info(accel);
        const double tsg = std::max(lane.can_busy, t);
        const double tdg =
            tsg + static_cast<double>(gi.wire_bits) / cfg_.can_bitrate;
        const double tsa = std::max(tdg, t);
        const double tda =
            tsa + static_cast<double>(ai.wire_bits) / cfg_.can_bitrate;
        if (!(tdg < horizon && tda <= horizon)) {
            lane.ok = false;
            continue;
        }
        lane.can_max_latency = std::max(lane.can_max_latency, tdg - t);
        lane.can_max_latency = std::max(lane.can_max_latency, tda - t);
        lane.can_busy = tda;

        // Bridge -> SLIP -> DMU UART: each frame's stream is requested at
        // its CAN delivery time; the decoded sample's timestamp is the
        // arrival of the accel stream's last byte. Every byte must clear
        // the horizon or the drain leaves a partial frame behind.
        lane.dmu_busy = chain_bytes(lane.dmu_busy, tdg,
                                    slip_stream_bytes(gyro, gi.crc15),
                                    byte_time_);
        lane.dmu_busy = chain_bytes(lane.dmu_busy, tda,
                                    slip_stream_bytes(accel, ai.crc15),
                                    byte_time_);
        if (lane.dmu_busy > horizon) {
            lane.ok = false;
            continue;
        }
        const double dmu_t = lane.dmu_busy;

        // ACC -> its own serial line, one fixed-size packet at t.
        lane.acc_busy =
            chain_bytes(lane.acc_busy, t, comm::kAdxlPacketSize, byte_time_);
        if (lane.acc_busy > horizon) {
            lane.ok = false;
            continue;
        }
        if (!comm::adxl_plausible(adxl[l], adxl_cfg)) {
            // The plausibility gate would hold the pair back; pairing
            // state beyond nominal belongs to the scalar path.
            lane.ok = false;
            continue;
        }

        // Fusion update — BoresightSystem::process_pair, native branch.
        ++lane.updates;
        Vec3 f_body;
        for (std::size_t i = 0; i < 3; ++i) {
            f_body[i] = dmu_scale_.raw_to_accel(dmu[l].accel[i]);
        }
        const auto [ax, ay] = comm::adxl_decode(adxl[l], adxl_cfg);
        const Vec2 z = Vec2{ax, ay} - lane.calibrated_bias;
        const auto up = ekf_.step(l, f_body, z);
        const double rec = tails_[l].update(up.residual, up.sigma3, dmu_t,
                                            ekf_.measurement_noise(l));
        if (rec > 0.0) ekf_.set_measurement_noise(l, rec);

        // Supervisor epoch: on the nominal envelope every channel
        // delivered and the pair fused, but the epoch still runs — its
        // windows and streaks are part of the reported status.
        const auto epoch = tails_[l].epoch({.t = t,
                                            .dt_s = dt_s,
                                            .dmu_delivered = true,
                                            .acc_delivered = true,
                                            .fused = true});
        if (epoch.coast_var > 0.0) {
            ekf_.grow_angle_covariance(l, epoch.coast_var);
        }
    }
}

BoresightSystem::Status EnsembleNominalSystem::status(std::size_t l) const {
    const Lane& lane = lanes_[l];
    BoresightSystem::Status s;
    s.estimate = ekf_.misalignment(l);
    s.sigma3 = ekf_.misalignment_sigma3(l);
    s.measurement_noise = ekf_.measurement_noise(l);
    s.updates = lane.updates;
    s.worst_transport_latency = lane.can_max_latency;
    tails_[l].fill(s);
    return s;
}

}  // namespace ob::system
