#include "system/fleet_serve.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/scenario_library.hpp"

namespace ob::system {

namespace {

/// Apply the request's override knobs to one expanded job.
void apply_overrides(FleetJob& job, const FleetRequest& req) {
    if (req.base_seed != 0) job.base_seed = req.base_seed;
    job.seeds_per_job = req.seeds_per_job == 0 ? 1 : req.seeds_per_job;
    job.use_adaptive_tuner = req.use_adaptive_tuner;
    // Only 0 means "the spec's value": anything else reaches
    // FleetJob::validate, so a negative or non-finite override is refused
    // with kBadRequest instead of silently running the default.
    if (req.duration_s != 0.0) job.duration_s = req.duration_s;
    if (req.meas_noise_mps2 != 0.0) job.meas_noise_mps2 = req.meas_noise_mps2;
}

[[nodiscard]] std::vector<BoresightSystem::Processor> processors_of(
    std::uint8_t selector) {
    switch (selector) {
        case kProcessorNative:
            return {BoresightSystem::Processor::kNative};
        case kProcessorSabre:
            return {BoresightSystem::Processor::kSabre};
        case kProcessorBoth:
            return {BoresightSystem::Processor::kNative,
                    BoresightSystem::Processor::kSabre};
        default:
            throw std::invalid_argument("processor selector " +
                                        std::to_string(selector) +
                                        " out of range");
    }
}

void require_known_scenario(const std::string& name) {
    if (sim::ScenarioLibrary::instance().find(name) == nullptr) {
        throw std::out_of_range("unknown scenario '" + name + "'");
    }
}

}  // namespace

std::vector<FleetJob> expand_fleet_request(const FleetRequest& req) {
    std::vector<FleetJob> jobs;
    for (const auto processor : processors_of(req.processor)) {
        if (req.scenario == "*") {
            auto batch = full_library_jobs(
                processor, req.base_seed == 0 ? 2026 : req.base_seed);
            for (auto& job : batch) {
                apply_overrides(job, req);
                jobs.push_back(std::move(job));
            }
        } else {
            require_known_scenario(req.scenario);
            FleetJob job;
            job.scenario = req.scenario;
            job.processor = processor;
            apply_overrides(job, req);
            jobs.push_back(std::move(job));
        }
    }
    for (const auto& job : jobs) job.validate();
    return jobs;
}

StudyExpansion expand_study_request(const StudyRequest& req) {
    require_known_scenario(req.scenario);
    // The built-in §11 retune panel (examples/retune_study.cpp is the long
    // form): the paper's quiet static tuning, its hand retune, and the
    // adaptive tuner that must rediscover the retune from the static start.
    // Level-platform calibration before every cell, like the original
    // procedure.
    struct Variant {
        const char* label;
        bool adaptive;
        double meas_noise;
    };
    static constexpr Variant kPanel[] = {
        {"static-0.003", false, 0.003},
        {"retuned-0.015", false, 0.015},
        {"adaptive", true, 0.003},
    };

    StudyExpansion out;
    for (const auto processor : processors_of(req.processor)) {
        for (const auto& v : kPanel) {
            FleetJob job;
            job.scenario = req.scenario;
            job.processor = processor;
            job.base_seed = req.base_seed == 0 ? 2026 : req.base_seed;
            job.seeds_per_job =
                req.seeds_per_cell == 0 ? 1 : req.seeds_per_cell;
            job.use_adaptive_tuner = v.adaptive;
            job.meas_noise_mps2 = v.meas_noise;
            job.calibration = FleetCalibration{};
            job.validate();
            // The streamed label names the cell; processor is its own
            // field in the frame. Must fit kScenarioFieldWidth - 1.
            std::string label = req.scenario + "/" + v.label;
            if (label.size() >= kScenarioFieldWidth) {
                label.resize(kScenarioFieldWidth - 1);
            }
            out.jobs.push_back(std::move(job));
            out.labels.push_back(std::move(label));
        }
    }
    return out;
}

JobResultMessage make_job_result(std::uint32_t index, std::uint32_t count,
                                 const std::string& label,
                                 const FleetJob& job, const FleetResult& r) {
    JobResultMessage m;
    const FleetSeedResult& p = r.primary();
    m.job_index = index;
    m.job_count = count;
    m.scenario = label;
    m.processor = job.processor == BoresightSystem::Processor::kSabre
                      ? kProcessorSabre
                      : kProcessorNative;
    m.within_envelope = p.within_envelope;
    m.seeds = static_cast<std::uint16_t>(job.seeds_per_job);
    m.seeds_within_envelope =
        static_cast<std::uint32_t>(r.seed_stats.within_envelope);
    m.estimate_rad[0] = p.result.estimate.roll;
    m.estimate_rad[1] = p.result.estimate.pitch;
    m.estimate_rad[2] = p.result.estimate.yaw;
    for (std::size_t i = 0; i < 3; ++i) m.sigma3_rad[i] = p.result.sigma3_rad[i];
    m.residual_rms = p.result.residual_rms;
    m.meas_noise = p.result.meas_noise;
    m.duration_s = p.result.duration_s;
    m.worst_err_deg[0] = p.trace.worst_roll_err_deg;
    m.worst_err_deg[1] = p.trace.worst_pitch_err_deg;
    m.worst_err_deg[2] = p.trace.worst_yaw_err_deg;
    m.tuner_adjustments = p.final_status.tuner_adjustments;
    return m;
}

FleetServer::FleetServer(Config cfg)
    : cfg_(std::move(cfg)), runner_(cfg_.runner) {
    if (cfg_.socket_path.empty()) {
        throw std::invalid_argument("FleetServer: empty socket path");
    }
}

FleetServer::~FleetServer() = default;

void FleetServer::serve() {
    auto listener = util::UnixListener::bind(cfg_.socket_path);
    listening_.store(true, std::memory_order_release);
    std::vector<std::thread> workers;
    while (!stopping()) {
        util::UnixSocket client = listener.accept(cfg_.accept_poll_ms);
        if (!client.valid()) continue;  // poll timeout: recheck stop flag
        workers.emplace_back(
            [this, sock = std::move(client)]() mutable {
                handle_connection(std::move(sock));
            });
    }
    listener.close();  // unlinks the socket path
    for (auto& w : workers) w.join();
    listening_.store(false, std::memory_order_release);
}

void FleetServer::send_error(util::UnixSocket& sock, std::uint32_t session,
                             ErrorCode code, const std::string& message) {
    ErrorMessage err;
    err.code = code;
    err.message = message;
    write_frame(sock, MessageType::kError, session, encode_error(err));
}

bool FleetServer::run_streaming(util::UnixSocket& sock, std::uint32_t session,
                                const std::vector<FleetJob>& jobs,
                                const std::vector<std::string>& labels) {
    const auto start = std::chrono::steady_clock::now();
    DoneMessage done;
    done.jobs = static_cast<std::uint32_t>(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (stopping()) {
            send_error(sock, session, ErrorCode::kShuttingDown,
                       "daemon stopping; request aborted after " +
                           std::to_string(i) + " job(s)");
            return false;
        }
        std::vector<FleetResult> result;
        try {
            result = runner_.run({jobs[i]});
        } catch (const std::exception& e) {
            send_error(sock, session, ErrorCode::kInternal, e.what());
            return true;  // session survives a failed request
        }
        const JobResultMessage frame = make_job_result(
            static_cast<std::uint32_t>(i),
            static_cast<std::uint32_t>(jobs.size()), labels[i], jobs[i],
            result.front());
        if (frame.within_envelope) ++done.within_envelope;
        write_frame(sock, MessageType::kJobResult, session,
                    encode_job_result(frame));
    }
    done.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    write_frame(sock, MessageType::kDone, session, encode_done(done));
    return true;
}

void FleetServer::handle_connection(util::UnixSocket sock) {
    std::uint32_t session = 0;
    try {
        Frame frame;
        while (read_frame(sock, frame)) {
            if (frame.header.version != kProtocolVersion) {
                send_error(sock, session, ErrorCode::kBadVersion,
                           "server speaks protocol version " +
                               std::to_string(kProtocolVersion) + ", not " +
                               std::to_string(frame.header.version));
                return;
            }
            if (session == 0) {
                // Session lifecycle: the first frame must be kHello.
                if (frame.type() != MessageType::kHello) {
                    send_error(sock, 0, ErrorCode::kBadSession,
                               "first frame must be Hello");
                    return;
                }
                auto r = frame.reader();
                const HelloRequest hello = decode_hello(r);
                if (hello.min_version > kProtocolVersion ||
                    hello.max_version < kProtocolVersion) {
                    send_error(sock, 0, ErrorCode::kBadVersion,
                               "no common protocol version");
                    return;
                }
                session = next_session_.fetch_add(
                    1, std::memory_order_relaxed);
                HelloOk ok;
                ok.version = kProtocolVersion;
                ok.session = session;
                write_frame(sock, MessageType::kHelloOk, session,
                            encode_hello_ok(ok));
                continue;
            }
            if (frame.header.session != session) {
                send_error(sock, session, ErrorCode::kBadSession,
                           "frame carries session " +
                               std::to_string(frame.header.session) +
                               ", this connection is session " +
                               std::to_string(session));
                continue;
            }
            switch (frame.type()) {
                case MessageType::kPing: {
                    auto r = frame.reader();
                    const PingMessage ping = decode_ping(r);
                    write_frame(sock, MessageType::kPong, session,
                                encode_ping(ping));
                    break;
                }
                case MessageType::kFleetRequest: {
                    std::vector<FleetJob> jobs;
                    std::vector<std::string> labels;
                    try {
                        auto r = frame.reader();
                        const FleetRequest req = decode_fleet_request(r);
                        jobs = expand_fleet_request(req);
                        labels.reserve(jobs.size());
                        for (const auto& j : jobs)
                            labels.push_back(j.scenario);
                    } catch (const std::out_of_range& e) {
                        send_error(sock, session,
                                   ErrorCode::kUnknownScenario, e.what());
                        break;
                    } catch (const std::invalid_argument& e) {
                        send_error(sock, session, ErrorCode::kBadRequest,
                                   e.what());
                        break;
                    }
                    if (!run_streaming(sock, session, jobs, labels)) return;
                    break;
                }
                case MessageType::kStudyRequest: {
                    StudyExpansion study;
                    try {
                        auto r = frame.reader();
                        study = expand_study_request(decode_study_request(r));
                    } catch (const std::out_of_range& e) {
                        send_error(sock, session,
                                   ErrorCode::kUnknownScenario, e.what());
                        break;
                    } catch (const std::invalid_argument& e) {
                        send_error(sock, session, ErrorCode::kBadRequest,
                                   e.what());
                        break;
                    }
                    if (!run_streaming(sock, session, study.jobs,
                                       study.labels))
                        return;
                    break;
                }
                case MessageType::kGoodbye:
                    return;  // client done; close the connection
                case MessageType::kShutdown:
                    write_frame(sock, MessageType::kShutdownAck, session);
                    request_stop();
                    return;
                default:
                    send_error(sock, session, ErrorCode::kBadFrame,
                               "unexpected message type " +
                                   std::to_string(frame.header.type));
                    break;
            }
        }
    } catch (const util::WireError& e) {
        // Malformed frame: tell the peer (best effort) and drop the
        // connection — after a framing error the stream position is gone.
        try {
            send_error(sock, session, ErrorCode::kBadFrame, e.what());
        } catch (const util::SocketError&) {
        }
    } catch (const util::SocketError&) {
        // Peer vanished mid-conversation; nothing to clean up.
    }
}

}  // namespace ob::system
