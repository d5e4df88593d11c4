#include "replay.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "comm/bridge.hpp"
#include "comm/can.hpp"
#include "comm/codec.hpp"
#include "comm/uart.hpp"
#include "core/boresight_ekf.hpp"
#include "core/ensemble_ekf.hpp"
#include "sim/ensemble_realizer.hpp"
#include "sim/scenario_library.hpp"
#include "sim/scenario_trace.hpp"
#include "sim/sensor_fault.hpp"
#include "system/boresight_system.hpp"
#include "system/ensemble_runner.hpp"
#include "system/sabre_runner.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ob;
using Processor = system::BoresightSystem::Processor;

/// Salt between a job's drive-layout stream and its instrument stream; the
/// runner keeps it private (src/system/fleet.cpp), so it is restated here.
constexpr std::uint64_t kSensorStreamSalt = 0xA5A55A5AF00DBEEFull;

/// Epochs fed before allocations are counted: ring buffers and scratch
/// vectors reach their high-water capacity first.
constexpr std::size_t kWarmupEpochs = 200;

struct Wire {
    double t = 0.0;
    comm::DmuSample dmu;
    comm::AdxlTiming adxl;
};

struct Decoded {
    math::Vec3 f_body{};
    math::Vec2 z{};
};

Decoded decode(const comm::DmuSample& dmu, const comm::AdxlTiming& adxl,
               const comm::AdxlConfig& cfg) {
    static const comm::DmuScale scale;
    Decoded d;
    for (std::size_t i = 0; i < 3; ++i) d.f_body[i] = scale.raw_to_accel(dmu.accel[i]);
    const auto [ax, ay] = comm::adxl_decode(adxl, cfg);
    d.z = math::Vec2{ax, ay};
    return d;
}

/// The realization's system config and fault draws, as run_fleet_seed
/// derives them for realization 0 of the shape's job.
system::BoresightSystem::Config system_config(const Shape& s,
                                              const sim::ScenarioSpec& spec,
                                              std::uint64_t fault_seed) {
    const double meas_noise = s.meas_noise_mps2.value_or(spec.meas_noise_mps2);
    system::BoresightSystem::Config cfg;
    cfg.processor = s.processor;
    cfg.filter.meas_noise_mps2 = meas_noise;
    cfg.filter.angle_process_noise = spec.angle_process_noise;
    cfg.sabre.r_sigma = meas_noise;
    cfg.sabre.q_variance = spec.angle_process_noise * spec.angle_process_noise;
    if (!s.fault || s.fault->intensity <= 0.0) return cfg;
    const double p = s.fault->intensity;
    switch (s.fault->type) {
        case system::FaultType::kUartDropout:
            cfg.dmu_link_faults.drop_probability = p;
            cfg.acc_link_faults.drop_probability = p;
            cfg.link_fault_seed = fault_seed;
            break;
        case system::FaultType::kUartCorruption:
            cfg.dmu_link_faults.bit_flip_probability = p;
            cfg.acc_link_faults.bit_flip_probability = p;
            cfg.link_fault_seed = fault_seed;
            break;
        case system::FaultType::kCanBurstLoss:
            cfg.can_faults.burst_probability = p;
            cfg.can_faults.burst_frames = s.fault->burst_frames;
            cfg.can_faults.seed = fault_seed;
            break;
        case system::FaultType::kAccStuck:
        case system::FaultType::kImuFrozen:
            break;  // armed on the Scenario, see arm_sensor_fault
    }
    return cfg;
}

void arm_sensor_fault(const Shape& s, const sim::ScenarioSpec& spec,
                      std::uint64_t fault_seed, sim::Scenario& sc) {
    if (!s.fault || s.fault->intensity <= 0.0) return;
    const auto type = s.fault->type;
    if (type != system::FaultType::kAccStuck &&
        type != system::FaultType::kImuFrozen)
        return;
    const double run_s = sc.duration();
    sim::SensorFault fault;
    fault.duration_s = s.fault->intensity * run_s;
    const double lo = std::min(spec.envelope.settle_s, run_s);
    const double hi = std::max(lo, run_s - fault.duration_s);
    fault.start_s = lo + util::CounterRng(fault_seed, 0).u01() * (hi - lo);
    if (type == system::FaultType::kAccStuck) {
        sc.inject_acc_fault(fault);
    } else {
        sc.inject_imu_fault(fault);
    }
}

/// Phase times of the byte-level transport, on a component chain wired the
/// way BoresightSystem::feed wires it (CAN bus -> bridge -> DMU UART ->
/// deframer -> codec; ACC packets over their own UART), with the shape's
/// link faults armed.
struct ChainTimes {
    double encode_send = 0.0;
    double can_advance = 0.0;
    double uart_drain = 0.0;
    double codec = 0.0;
    std::uint64_t bytes = 0;
};

ChainTimes replay_chain(const std::vector<Wire>& wires,
                        const sim::ScenarioTrace& trace,
                        const system::BoresightSystem::Config& cfg,
                        double clock_s) {
    comm::CanBus can(cfg.can_bitrate, cfg.can_faults);
    comm::UartLink dmu_uart(cfg.uart_baud, cfg.dmu_link_faults,
                            cfg.link_fault_seed + 1);
    comm::UartLink acc_uart(cfg.uart_baud, cfg.acc_link_faults,
                            cfg.link_fault_seed + 2);
    comm::CanSerialBridge bridge(dmu_uart);
    comm::CanSerialDeframer deframer;
    comm::DmuCodec dmu_codec;
    comm::AdxlDeserializer acc_deser;
    can.set_direct_delivery(
        [](void* ctx, const comm::CanFrame& f, double t) {
            static_cast<comm::CanSerialBridge*>(ctx)->forward(f, t);
        },
        &bridge);

    comm::CanFrame gyro_frame, accel_frame;
    std::array<std::uint8_t, comm::kAdxlPacketSize> acc_packet{};
    std::vector<comm::UartByte> scratch;
    scratch.reserve(256);
    std::size_t decoded = 0;
    ChainTimes out;
    const double half_epoch = 0.5 / trace.sample_rate_hz();
    for (const auto& w : wires) {
        const double horizon = w.t + half_epoch;
        const auto t0 = Clock::now();
        comm::DmuCodec::encode_into(w.dmu, gyro_frame, accel_frame);
        can.send(gyro_frame, w.t);
        can.send(accel_frame, w.t);
        comm::adxl_serialize_into(w.adxl, acc_packet);
        acc_uart.send(acc_packet, w.t);
        const auto t1 = Clock::now();
        can.advance_to(horizon);
        const auto t2 = Clock::now();
        scratch.clear();
        dmu_uart.drain_until(horizon, [&](const comm::UartByte& b) {
            scratch.push_back(b);
        });
        const std::size_t dmu_end = scratch.size();
        acc_uart.drain_until(horizon, [&](const comm::UartByte& b) {
            scratch.push_back(b);
        });
        const auto t3 = Clock::now();
        for (std::size_t i = 0; i < dmu_end; ++i) {
            if (auto frame = deframer.feed(scratch[i])) {
                if (dmu_codec.feed(*frame, scratch[i].t)) ++decoded;
            }
        }
        for (std::size_t i = dmu_end; i < scratch.size(); ++i) {
            if (scratch[i].framing_error) continue;
            if (acc_deser.feed(scratch[i].value, scratch[i].t)) ++decoded;
        }
        const auto t4 = Clock::now();
        out.bytes += scratch.size();
        out.encode_send += std::chrono::duration<double>(t1 - t0).count();
        out.can_advance += std::chrono::duration<double>(t2 - t1).count();
        out.uart_drain += std::chrono::duration<double>(t3 - t2).count();
        out.codec += std::chrono::duration<double>(t4 - t3).count();
    }
    // Each phase time includes one clock read.
    const double reads = clock_s * static_cast<double>(wires.size());
    out.encode_send = std::max(0.0, out.encode_send - reads);
    out.can_advance = std::max(0.0, out.can_advance - reads);
    out.uart_drain = std::max(0.0, out.uart_drain - reads);
    out.codec = std::max(0.0, out.codec - reads);
    if (decoded == 0 && !wires.empty() && !cfg.dmu_link_faults.any() &&
        !cfg.acc_link_faults.any() && !cfg.can_faults.any()) {
        throw std::runtime_error("replay: fault-free transport chain decoded nothing");
    }
    return out;
}

/// Running sums the per-shape replays add into.
struct Sums {
    double clock_s = 0.0;  ///< cost of one steady_clock read
    ClassCost cls[kPathClasses];
    double trace_s = 0.0;
    std::uint64_t trace_epochs = 0;
    ChainTimes chain;
    std::uint64_t chain_epochs = 0;
    double ekf_s = 0.0;
    std::uint64_t ekf_updates = 0;
    double ekf_lane_s = 0.0;
    std::uint64_t ekf_lane_updates = 0;
    double sabre_s = 0.0;
    std::uint64_t sabre_epochs = 0;
    std::uint64_t sabre_instructions = 0;
    std::uint64_t sabre_cycles = 0;
    std::uint64_t sabre_fpu_ops = 0;
    std::uint64_t feed_allocs = 0;
    std::uint64_t feed_alloc_epochs = 0;
    std::uint64_t feed_updates = 0;
    std::uint64_t feed_epochs = 0;
    std::uint64_t ensemble_allocs = 0;
    std::uint64_t ensemble_alloc_epochs = 0;
    std::uint64_t frames_lost = 0;
    std::uint64_t residual_exceedances = 0;
    std::uint64_t alarms = 0;
    double coast_s = 0.0;
};

void add_status(Sums& sums, const system::BoresightSystem::Status& st) {
    sums.frames_lost += st.dmu_frames_lost + st.acc_packets_lost;
    sums.residual_exceedances += st.residual_exceedances;
    if (st.residual_flagged || st.supervisor_alarmed) ++sums.alarms;
    sums.coast_s += st.coast_s;
}

std::shared_ptr<const sim::ScenarioTrace> build_trace(
    const Shape& s, const sim::ScenarioSpec& spec, double duration,
    SpanLog& log, Sums& sums) {
    const auto t0 = Clock::now();
    auto trace = sim::ScenarioTrace::build(
        spec.build(duration, spec.misalignment,
                   sim::scenario_seed(s.scenario, s.base_seed)),
        job_sensor_stream(s.scenario, s.base_seed));
    const double dt = since(t0);
    log.add_total("sim.trace", dt, 1);
    sums.trace_s += dt;
    sums.trace_epochs += trace->epochs();
    return trace;
}

void replay_scalar(const Shape& s, SpanLog& log, Sums& sums) {
    const auto& spec = sim::ScenarioLibrary::instance().at(s.scenario);
    const double duration = s.duration_s > 0.0 ? s.duration_s : spec.duration_s;
    const std::uint64_t stream = job_sensor_stream(s.scenario, s.base_seed);
    const std::uint64_t fault_seed =
        system::fleet_sub_seed(stream ^ system::kFleetFaultStreamSalt, 0);
    const bool sabre = s.processor == Processor::kSabre;
    ClassCost& cls = sums.cls[static_cast<std::size_t>(
        sabre ? PathClass::kSabreScalar : PathClass::kNativeScalar)];

    const auto trace = build_trace(s, spec, duration, log, sums);

    sim::Scenario sc(trace, spec.misalignment, stream);
    arm_sensor_fault(s, spec, fault_seed, sc);
    std::vector<Wire> wires;
    wires.reserve(trace->epochs());
    {
        const auto t0 = Clock::now();
        Wire w;
        while (sc.next_wire(w.t, w.dmu, w.adxl)) wires.push_back(w);
        const double dt = since(t0);
        log.add_total("sim.realize", dt, wires.size());
        cls.realize += dt;
    }
    const std::uint64_t n = wires.size();
    cls.epochs += n;

    const auto cfg = system_config(s, spec, fault_seed);
    std::uint64_t updates = 0;
    {
        system::BoresightSystem sys(cfg);
        std::uint64_t allocs0 = util::alloc_count();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < wires.size(); ++i) {
            if (i == kWarmupEpochs) allocs0 = util::alloc_count();
            sys.feed(*trace, wires[i].t, wires[i].dmu, wires[i].adxl);
        }
        const double dt = since(t0);
        if (wires.size() > kWarmupEpochs) {
            sums.feed_allocs += util::alloc_count() - allocs0;
            sums.feed_alloc_epochs += wires.size() - kWarmupEpochs;
        }
        log.add_total("system.feed", dt, n);
        cls.feed += dt;
        const auto st = sys.status();
        updates = st.updates;
        sums.feed_updates += updates;
        sums.feed_epochs += n;
        add_status(sums, st);
    }
    {
        const ChainTimes c = replay_chain(wires, *trace, cfg, sums.clock_s);
        const double dt = c.encode_send + c.can_advance + c.uart_drain + c.codec;
        log.add_total("comm", dt, n);
        cls.comm += dt;
        sums.chain.encode_send += c.encode_send;
        sums.chain.can_advance += c.can_advance;
        sums.chain.uart_drain += c.uart_drain;
        sums.chain.codec += c.codec;
        sums.chain.bytes += c.bytes;
        sums.chain_epochs += n;
    }
    // The fusion step alone, once per epoch on the decoded pair; inside
    // feed it runs once per completed pair (`updates` times).
    const double update_share =
        n == 0 ? 0.0 : static_cast<double>(updates) / static_cast<double>(n);
    if (!sabre) {
        std::vector<Decoded> decoded;
        decoded.reserve(wires.size());
        for (const auto& w : wires) decoded.push_back(decode(w.dmu, w.adxl, trace->adxl()));
        core::BoresightEkf ekf(cfg.filter);
        const auto t0 = Clock::now();
        for (const auto& d : decoded) (void)ekf.step(d.f_body, d.z);
        const double dt = since(t0);
        log.add_total("core.ekf", dt, n);
        sums.ekf_s += dt;
        sums.ekf_updates += n;
        cls.ekf += dt * update_share;
    } else {
        system::SabreFusionSystem fw(cfg.sabre);
        const std::uint64_t i0 = fw.instructions();
        const std::uint64_t c0 = fw.cycles();
        const std::uint64_t f0 = fw.fpu_operations();
        const auto t0 = Clock::now();
        for (const auto& w : wires) {
            fw.push(w.dmu, w.adxl);
            (void)fw.run_pending();
        }
        const double dt = since(t0);
        log.add_total("sabre", dt, n);
        sums.sabre_s += dt;
        sums.sabre_epochs += n;
        sums.sabre_instructions += fw.instructions() - i0;
        sums.sabre_cycles += fw.cycles() - c0;
        sums.sabre_fpu_ops += fw.fpu_operations() - f0;
        cls.sabre += dt * update_share;
    }
}

void replay_ensemble(const Shape& s, SpanLog& log, Sums& sums) {
    const auto& spec = sim::ScenarioLibrary::instance().at(s.scenario);
    const double duration = s.duration_s > 0.0 ? s.duration_s : spec.duration_s;
    const std::uint64_t stream = job_sensor_stream(s.scenario, s.base_seed);
    ClassCost& cls = sums.cls[static_cast<std::size_t>(PathClass::kEnsemble)];
    const std::size_t lanes = s.lanes;

    const auto trace = build_trace(s, spec, duration, log, sums);

    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t l = 0; l < lanes; ++l) seeds[l] = system::fleet_sub_seed(stream, l);
    sim::EnsembleRealizer ens(trace, spec.misalignment, seeds);
    const auto cfg = system_config(s, spec, 0);
    system::EnsembleNominalSystem sys(cfg, lanes);
    std::vector<Decoded> lane0;
    lane0.reserve(trace->epochs());

    double realize_s = 0.0, feed_s = 0.0, t = 0.0;
    std::uint64_t n = 0;
    std::uint64_t allocs0 = util::alloc_count();
    for (;;) {
        const auto c0 = Clock::now();
        const bool more = ens.step(t);
        const auto c1 = Clock::now();
        if (!more) break;
        if (n == kWarmupEpochs) allocs0 = util::alloc_count();
        sys.feed(ens.trace(), t, ens.dmu(), ens.adxl());
        const auto c2 = Clock::now();
        realize_s += std::chrono::duration<double>(c1 - c0).count();
        feed_s += std::chrono::duration<double>(c2 - c1).count();
        lane0.push_back(decode(ens.dmu()[0], ens.adxl()[0], trace->adxl()));
        ++n;
    }
    if (n > kWarmupEpochs) {
        sums.ensemble_allocs += util::alloc_count() - allocs0;
        sums.ensemble_alloc_epochs += (n - kWarmupEpochs) * lanes;
    }
    // Each section time includes one clock read.
    realize_s = std::max(0.0, realize_s - sums.clock_s * static_cast<double>(n));
    feed_s = std::max(0.0, feed_s - sums.clock_s * static_cast<double>(n));
    const std::uint64_t lane_epochs = n * lanes;
    log.add_total("sim.realize", realize_s, lane_epochs);
    log.add_total("system.ensemble", feed_s, lane_epochs);
    cls.realize += realize_s;
    cls.feed += feed_s;
    cls.epochs += lane_epochs;

    std::uint64_t updates = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        const auto st = sys.status(l);
        updates += st.updates;
        add_status(sums, st);
    }

    // Lane-array filter step on lane 0's decoded stream in every lane (the
    // filter arithmetic does not branch on the values).
    core::EnsembleEkf ekf(cfg.filter, lanes);
    std::vector<math::Vec3> f_body(lanes);
    std::vector<math::Vec2> z(lanes);
    std::vector<core::BoresightEkf::Update> up(lanes);
    const auto t0 = Clock::now();
    for (const auto& d : lane0) {
        std::fill(f_body.begin(), f_body.end(), d.f_body);
        std::fill(z.begin(), z.end(), d.z);
        ekf.step_all(f_body.data(), z.data(), up.data());
    }
    const double dt = since(t0);
    log.add_total("core.ekf", dt, lane_epochs);
    sums.ekf_lane_s += dt;
    sums.ekf_lane_updates += lane_epochs;
    cls.ekf += lane_epochs == 0 ? 0.0
                                : dt * static_cast<double>(updates) /
                                      static_cast<double>(lane_epochs);
}

/// Median cost of one steady_clock read, subtracted from the per-epoch
/// sections so the layers they split add up to the whole.
double clock_read_cost() {
    constexpr int kReads = 100000;
    std::vector<double> trials;
    for (int trial = 0; trial < 5; ++trial) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kReads; ++i) (void)Clock::now();
        trials.push_back(since(t0) / kReads);
    }
    std::sort(trials.begin(), trials.end());
    return trials[trials.size() / 2];
}

double per(double total, std::uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

std::uint64_t job_sensor_stream(const std::string& scenario,
                                std::uint64_t base_seed) {
    return sim::scenario_seed(scenario, base_seed) ^ kSensorStreamSalt;
}

ReplayReport replay_shapes(const std::vector<Shape>& shapes, SpanLog& log) {
    Sums sums;
    sums.clock_s = clock_read_cost();
    const auto totals_before = log.totals();
    const auto t0 = Clock::now();
    for (const auto& s : shapes) {
        if (s.lanes > 1) {
            replay_ensemble(s, log, sums);
        } else {
            replay_scalar(s, log, sums);
        }
    }
    ReplayReport r;
    r.wall_s = since(t0);
    double spans_before = 0.0, spans_after = 0.0;
    for (const auto& [name, t] : totals_before) spans_before += t.total_s;
    for (const auto& [name, t] : log.totals()) spans_after += t.total_s;
    r.spans_s = spans_after - spans_before;

    for (std::size_t c = 0; c < kPathClasses; ++c) {
        const ClassCost& in = sums.cls[c];
        ClassCost& out = r.cls[c];
        out.epochs = in.epochs;
        out.realize = per(in.realize, in.epochs);
        out.feed = per(in.feed, in.epochs);
        out.comm = per(in.comm, in.epochs);
        out.ekf = per(in.ekf, in.epochs);
        out.sabre = per(in.sabre, in.epochs);
    }
    r.trace_s_per_epoch = per(sums.trace_s, sums.trace_epochs);
    r.comm_encode_send_s = per(sums.chain.encode_send, sums.chain_epochs);
    r.comm_can_advance_s = per(sums.chain.can_advance, sums.chain_epochs);
    r.comm_uart_drain_s = per(sums.chain.uart_drain, sums.chain_epochs);
    r.comm_codec_s = per(sums.chain.codec, sums.chain_epochs);
    r.wire_bytes_per_epoch =
        per(static_cast<double>(sums.chain.bytes), sums.chain_epochs);
    r.ekf_s_per_update = per(sums.ekf_s, sums.ekf_updates);
    r.ekf_s_per_lane_update = per(sums.ekf_lane_s, sums.ekf_lane_updates);
    const ClassCost& native = sums.cls[static_cast<std::size_t>(PathClass::kNativeScalar)];
    r.feed_s_per_epoch = per(native.feed, native.epochs);
    const ClassCost& ens = sums.cls[static_cast<std::size_t>(PathClass::kEnsemble)];
    r.ensemble_s_per_lane_epoch = per(ens.feed, ens.epochs);
    double realize_total = 0.0;
    std::uint64_t realize_epochs = 0;
    for (const auto& c : sums.cls) {
        realize_total += c.realize;
        realize_epochs += c.epochs;
    }
    r.realize_s_per_lane_epoch = per(realize_total, realize_epochs);
    r.sabre_s_per_epoch = per(sums.sabre_s, sums.sabre_epochs);
    r.feed_allocs_per_epoch =
        per(static_cast<double>(sums.feed_allocs), sums.feed_alloc_epochs);
    r.ensemble_allocs_per_epoch = per(static_cast<double>(sums.ensemble_allocs),
                                      sums.ensemble_alloc_epochs);
    r.feed_updates_per_epoch =
        per(static_cast<double>(sums.feed_updates), sums.feed_epochs);
    r.sabre_instructions_per_epoch =
        per(static_cast<double>(sums.sabre_instructions), sums.sabre_epochs);
    r.sabre_cycles_per_epoch =
        per(static_cast<double>(sums.sabre_cycles), sums.sabre_epochs);
    r.sabre_fpu_ops_per_epoch =
        per(static_cast<double>(sums.sabre_fpu_ops), sums.sabre_epochs);
    r.frames_lost = sums.frames_lost;
    r.residual_exceedances = sums.residual_exceedances;
    r.alarms = sums.alarms;
    r.coast_s = sums.coast_s;
    return r;
}

}  // namespace perfbench
