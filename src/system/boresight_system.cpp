#include "system/boresight_system.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ob::system {

using math::Vec2;
using math::Vec3;

namespace {

void require(bool ok, const char* what) {
    if (!ok) {
        throw std::invalid_argument(std::string("BoresightSystem: ") + what);
    }
}

void require_probability(double p, const char* what) {
    require(p >= 0.0 && p <= 1.0, what);
}

/// Legacy fixed fault seeds of the two serial links (the pre-campaign
/// behavior every golden run is pinned to), and the salts separating the
/// two links' counter-keyed streams when a campaign supplies a base seed.
constexpr std::uint64_t kLegacyDmuLinkSeed = 11;
constexpr std::uint64_t kLegacyAccLinkSeed = 12;
constexpr std::uint64_t kDmuLinkSalt = 0xD1115EEDull;
constexpr std::uint64_t kAccLinkSalt = 0xACC5EEDull;

[[nodiscard]] std::uint64_t link_seed(std::uint64_t base, std::uint64_t salt,
                                      std::uint64_t legacy) {
    return base != 0 ? base ^ salt : legacy;
}

}  // namespace

void BoresightSystem::Config::validate() const {
    require(can_bitrate > 0.0, "CAN bitrate must be positive");
    require(uart_baud > 0.0, "UART baud rate must be positive");
    require(filter.meas_noise_mps2 > 0.0,
            "filter measurement noise must be positive");
    require(filter.angle_process_noise >= 0.0,
            "filter angle process noise must be non-negative");
    require(filter.init_angle_sigma > 0.0,
            "filter initial angle sigma must be positive");
    require(filter.init_bias_sigma > 0.0,
            "filter initial bias sigma must be positive");
    require(filter.bias_process_noise >= 0.0,
            "filter bias process noise must be non-negative");
    require(filter.nis_gate >= 0.0, "filter NIS gate must be non-negative");
    require(sabre.r_sigma > 0.0, "Sabre measurement noise must be positive");
    require(sabre.q_variance >= 0.0,
            "Sabre process noise variance must be non-negative");
    require(sabre.p0_sigma > 0.0, "Sabre initial sigma must be positive");
    tuner.validate();
    for (const auto* faults : {&dmu_link_faults, &acc_link_faults}) {
        require_probability(faults->drop_probability,
                            "link drop probability must be in [0, 1]");
        require_probability(faults->bit_flip_probability,
                            "link bit-flip probability must be in [0, 1]");
        require_probability(faults->framing_error_probability,
                            "link framing-error probability must be in [0, 1]");
    }
    require_probability(can_faults.burst_probability,
                        "CAN burst probability must be in [0, 1]");
    require(can_faults.burst_frames >= 1,
            "CAN burst length must be at least one frame");
    require(monitor_window >= 1, "monitor window must be at least 1");
    require(monitor_alarm_rate > 0.0 && monitor_alarm_rate <= 1.0,
            "monitor alarm rate must be in (0, 1]");
    require(monitor_min_samples >= 1,
            "monitor minimum sample count must be at least 1");
    supervisor.validate();
}

BoresightSystem::BoresightSystem(const Config& cfg)
    : cfg_((cfg.validate(), cfg)),
      can_(cfg.can_bitrate, cfg.can_faults),
      dmu_uart_(cfg.uart_baud, cfg.dmu_link_faults,
                link_seed(cfg.link_fault_seed, kDmuLinkSalt,
                          kLegacyDmuLinkSeed)),
      acc_uart_(cfg.uart_baud, cfg.acc_link_faults,
                link_seed(cfg.link_fault_seed, kAccLinkSalt,
                          kLegacyAccLinkSeed)),
      bridge_(dmu_uart_),
      tail_(cfg.monitor_window, cfg.monitor_alarm_rate,
            cfg.monitor_min_samples, cfg.use_adaptive_tuner, cfg.tuner,
            cfg.supervisor),
      apply_acc_bias_(cfg.calibrated_bias[0] != 0.0 ||
                      cfg.calibrated_bias[1] != 0.0) {
    // Single-listener fast path: a raw trampoline instead of std::function.
    can_.set_direct_delivery(
        [](void* ctx, const comm::CanFrame& f, double t) {
            static_cast<comm::CanSerialBridge*>(ctx)->forward(f, t);
        },
        &bridge_);
    if (cfg_.processor == Processor::kNative) {
        native_ = std::make_unique<core::BoresightEkf>(cfg_.filter);
    } else {
        sabre_ = std::make_unique<SabreFusionSystem>(cfg_.sabre);
    }
}

void BoresightSystem::set_link_faults(const comm::UartFaults& dmu,
                                      const comm::UartFaults& acc) {
    dmu_uart_.set_faults(dmu);
    acc_uart_.set_faults(acc);
}

void BoresightSystem::feed(const sim::ScenarioTrace& trace, const double t,
                           const comm::DmuSample& dmu,
                           const comm::AdxlTiming& adxl) {
    adxl_ = trace.adxl();
    epoch_dmu_delivered_ = false;
    epoch_acc_delivered_ = false;

    // IMU -> two CAN frames onto the shared bus (encoded into scratch).
    comm::DmuCodec::encode_into(dmu, scratch_.gyro_frame,
                                scratch_.accel_frame);
    can_.send(scratch_.gyro_frame, t);
    can_.send(scratch_.accel_frame, t);

    // ACC -> duty-cycle packet straight onto its serial line.
    comm::adxl_serialize_into(adxl, scratch_.acc_packet);
    acc_uart_.send(scratch_.acc_packet, t);

    // Advance the transport slightly past this epoch and drain arrivals
    // straight into the decoders — no per-call byte vectors.
    const double horizon = t + 0.5 / trace.sample_rate_hz();
    can_.advance_to(horizon);
    dmu_uart_.drain_until(horizon, [this](const comm::UartByte& byte) {
        if (auto frame = deframer_.feed(byte)) {
            if (auto sample = dmu_codec_.feed(*frame, byte.t)) {
                pending_dmu_ = sample;
                epoch_dmu_delivered_ = true;
            }
        }
    });
    acc_uart_.drain_until(horizon, [this](const comm::UartByte& byte) {
        if (byte.framing_error) return;
        if (auto timing = acc_deser_.feed(byte.value, byte.t)) {
            // Fabric-side plausibility gate: a corrupted packet can pass
            // the additive checksum by accident; its timings cannot pass
            // the physical duty-cycle band.
            if (comm::adxl_plausible(*timing, adxl_)) {
                pending_acc_ = timing;
                epoch_acc_delivered_ = true;
            } else {
                ++implausible_acc_;
            }
        }
    });

    // Fuse whenever a synchronized pair is ready. (Pairs are matched by
    // arrival; sequence slips from lost frames simply drop an epoch.)
    bool fused = false;
    if (pending_dmu_ && pending_acc_) {
        process_pair(*pending_dmu_, *pending_acc_);
        pending_dmu_.reset();
        pending_acc_.reset();
        fused = true;
    }

    // Liveness watchdogs see every epoch, delivered or not — that is the
    // whole point: starvation regimes produce no residuals for the monitor,
    // but they still produce (empty) epochs here.
    const auto epoch = tail_.epoch({.t = t,
                                    .dt_s = 1.0 / trace.sample_rate_hz(),
                                    .dmu_delivered = epoch_dmu_delivered_,
                                    .acc_delivered = epoch_acc_delivered_,
                                    .fused = fused});

    // Coast growth: natively the EKF covariance itself grows (so
    // post-outage gains are honest too); on the Sabre path the covariance
    // lives inside the firmware, so the growth accumulates host-side and
    // is folded into the reported 3σ until the run recovers. The native
    // EKF needs nothing on recovery: its grown covariance contracts
    // through the resumed updates on its own.
    if (epoch.coast_var > 0.0) {
        if (native_) {
            native_->grow_angle_covariance(epoch.coast_var);
        } else {
            coast_var_ += epoch.coast_var;
        }
    }
    if (epoch.recovered) coast_var_ = 0.0;
}

void BoresightSystem::process_pair(const comm::DmuSample& dmu,
                                   const comm::AdxlTiming& acc) {
    ++updates_;
    if (sabre_) {
        if (apply_acc_bias_) {
            // The firmware decodes timings itself, so the §11.1 bias is
            // folded back into the duty-cycle domain at wire resolution —
            // exactly what a calibrated fabric front-end would present.
            const auto [ax, ay] = comm::adxl_decode(acc, adxl_);
            auto corrected = comm::adxl_encode(ax - cfg_.calibrated_bias[0],
                                               ay - cfg_.calibrated_bias[1],
                                               acc.seq, adxl_);
            corrected.t = acc.t;
            sabre_->push(dmu, corrected);
        } else {
            sabre_->push(dmu, acc);
        }
        const auto est = sabre_->run_pending();
        last_update_ = {est.residual, est.innov_sigma3};
        // A tuner recommendation lands in the firmware's writable R
        // register and takes effect from its next update.
        const double rec = tail_.update(est.residual, est.innov_sigma3, dmu.t,
                                        sabre_->measurement_noise());
        if (rec > 0.0) sabre_->set_measurement_noise(rec);
        return;
    }
    Vec3 f_body;
    for (std::size_t i = 0; i < 3; ++i)
        f_body[i] = dmu_scale_.raw_to_accel(dmu.accel[i]);
    const auto [ax, ay] = comm::adxl_decode(acc, adxl_);
    const Vec2 z = Vec2{ax, ay} - cfg_.calibrated_bias;
    const auto up = native_->step(f_body, z);
    last_update_ = {up.residual, up.sigma3};
    const double rec = tail_.update(up.residual, up.sigma3, dmu.t,
                                    native_->measurement_noise());
    if (rec > 0.0) native_->set_measurement_noise(rec);
}

math::EulerAngles BoresightSystem::estimate() const {
    return native_ ? native_->misalignment() : sabre_->estimate().angles;
}

BoresightSystem::Status BoresightSystem::status() const {
    Status s;
    s.estimate = estimate();
    if (native_) {
        s.sigma3 = native_->misalignment_sigma3();
        s.measurement_noise = native_->measurement_noise();
    } else {
        s.sigma3 = sabre_->estimate().sigma3;
        if (coast_var_ > 0.0) {
            // Fold the host-side coast variance into the firmware's
            // reported 3σ (guarded so a never-coasted run keeps the
            // register bits untouched).
            for (std::size_t i = 0; i < 3; ++i) {
                const double sigma = s.sigma3[i] / 3.0;
                s.sigma3[i] = 3.0 * std::sqrt(sigma * sigma + coast_var_);
            }
        }
        s.measurement_noise = sabre_->measurement_noise();
    }
    s.updates = updates_;
    s.dmu_frames_lost = dmu_codec_.seq_mismatches() + deframer_.malformed() +
                        dmu_codec_.bad_checksum();
    s.acc_packets_lost = acc_deser_.bad_checksum() + implausible_acc_;
    s.worst_transport_latency = can_.max_latency();
    tail_.fill(s);
    s.acc_implausible = implausible_acc_;
    return s;
}

}  // namespace ob::system
