// fleet_serve wire-protocol and daemon contract (fleet_protocol.hpp,
// fleet_serve.hpp, fleet_client.hpp; normative spec in docs/PROTOCOL.md):
// payload codecs round-trip at their pinned sizes, framing rejects
// corruption, the handshake assigns sessions, streamed results are bitwise
// the local run of the same expansion, error paths answer with the right
// code, concurrent clients are served, and shutdown is clean.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "system/fleet.hpp"
#include "system/fleet_client.hpp"
#include "system/fleet_protocol.hpp"
#include "system/fleet_serve.hpp"

namespace {

using namespace ob;

// --- payload codecs ------------------------------------------------------

TEST(ServeProtocol, FleetRequestRoundTripsAtPinnedSize) {
    system::FleetRequest req;
    req.scenario = "city-drive";
    req.processor = system::kProcessorBoth;
    req.use_adaptive_tuner = true;
    req.seeds_per_job = 7;
    req.base_seed = 42;
    req.duration_s = 33.5;
    req.meas_noise_mps2 = 0.015;
    const auto bytes = system::encode_fleet_request(req);
    ASSERT_EQ(bytes.size(), system::kFleetRequestSize);
    util::ByteReader r(bytes.data(), bytes.size());
    const auto back = system::decode_fleet_request(r);
    EXPECT_EQ(back.scenario, req.scenario);
    EXPECT_EQ(back.processor, req.processor);
    EXPECT_EQ(back.use_adaptive_tuner, req.use_adaptive_tuner);
    EXPECT_EQ(back.seeds_per_job, req.seeds_per_job);
    EXPECT_EQ(back.base_seed, req.base_seed);
    EXPECT_EQ(back.duration_s, req.duration_s);
    EXPECT_EQ(back.meas_noise_mps2, req.meas_noise_mps2);
}

TEST(ServeProtocol, StudyRequestRoundTripsAtPinnedSize) {
    system::StudyRequest req;
    req.scenario = "washboard";
    req.processor = system::kProcessorSabre;
    req.seeds_per_cell = 3;
    req.base_seed = 99;
    const auto bytes = system::encode_study_request(req);
    ASSERT_EQ(bytes.size(), system::kStudyRequestSize);
    util::ByteReader r(bytes.data(), bytes.size());
    const auto back = system::decode_study_request(r);
    EXPECT_EQ(back.scenario, req.scenario);
    EXPECT_EQ(back.processor, req.processor);
    EXPECT_EQ(back.seeds_per_cell, req.seeds_per_cell);
    EXPECT_EQ(back.base_seed, req.base_seed);
}

TEST(ServeProtocol, JobResultRoundTripsBitwise) {
    system::JobResultMessage m;
    m.job_index = 3;
    m.job_count = 9;
    m.scenario = "pothole-bump";
    m.processor = system::kProcessorSabre;
    m.within_envelope = true;
    m.seeds = 5;
    m.seeds_within_envelope = 4;
    m.estimate_rad[0] = 0.017453292519943295;  // non-round bit patterns
    m.estimate_rad[1] = -0.0087;
    m.estimate_rad[2] = 0.1234567890123456789;
    m.sigma3_rad[0] = 1e-4;
    m.residual_rms = 0.0123;
    m.meas_noise = 0.015;
    m.duration_s = 180.0;
    m.worst_err_deg[2] = 0.42;
    m.tuner_adjustments = 6;
    const auto bytes = system::encode_job_result(m);
    ASSERT_EQ(bytes.size(), system::kJobResultSize);
    util::ByteReader r(bytes.data(), bytes.size());
    const auto back = system::decode_job_result(r);
    EXPECT_EQ(system::encode_job_result(back), bytes);
}

TEST(ServeProtocol, ErrorRoundTripsAndTruncatesLongMessages) {
    system::ErrorMessage err;
    err.code = system::ErrorCode::kUnknownScenario;
    err.message = std::string(300, 'x');  // longer than the field
    const auto bytes = system::encode_error(err);
    ASSERT_EQ(bytes.size(), system::kErrorSize);
    util::ByteReader r(bytes.data(), bytes.size());
    const auto back = system::decode_error(r);
    EXPECT_EQ(back.code, system::ErrorCode::kUnknownScenario);
    EXPECT_EQ(back.message, std::string(system::kErrorMessageWidth - 1, 'x'));
}

TEST(ServeProtocol, DecodeRejectsOutOfRangeFields) {
    {
        auto bytes = system::encode_fleet_request(system::FleetRequest{});
        bytes[system::kScenarioFieldWidth] = 17;  // processor byte
        util::ByteReader r(bytes.data(), bytes.size());
        EXPECT_THROW((void)system::decode_fleet_request(r), util::WireError);
    }
    {
        system::ErrorMessage err;
        err.code = system::ErrorCode::kBadFrame;
        auto bytes = system::encode_error(err);
        bytes[0] = 200;  // error code out of range
        util::ByteReader r(bytes.data(), bytes.size());
        EXPECT_THROW((void)system::decode_error(r), util::WireError);
    }
    {
        // Trailing garbage after a well-formed payload is a frame error.
        auto bytes = system::encode_ping(system::PingMessage{});
        bytes.push_back(0);
        util::ByteReader r(bytes.data(), bytes.size());
        EXPECT_THROW((void)system::decode_ping(r), util::WireError);
    }
}

// --- framing over a real socket pair -------------------------------------

struct SocketPair {
    util::UnixSocket a, b;
    SocketPair() {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            ADD_FAILURE() << "socketpair failed";
            return;
        }
        a = util::UnixSocket(fds[0]);
        b = util::UnixSocket(fds[1]);
    }
};

TEST(ServeProtocol, FrameRoundTripOverSocket) {
    SocketPair pair;
    system::PingMessage ping;
    ping.token = 0xDEADBEEFCAFEull;
    system::write_frame(pair.a, system::MessageType::kPing, 7,
                        system::encode_ping(ping));
    system::Frame frame;
    ASSERT_TRUE(system::read_frame(pair.b, frame));
    EXPECT_EQ(frame.type(), system::MessageType::kPing);
    EXPECT_EQ(frame.header.session, 7u);
    EXPECT_EQ(frame.header.version, system::kProtocolVersion);
    auto r = frame.reader();
    EXPECT_EQ(system::decode_ping(r).token, ping.token);

    pair.a.close();  // clean EOF between frames
    EXPECT_FALSE(system::read_frame(pair.b, frame));
}

TEST(ServeProtocol, ReadFrameRejectsBadMagicAndOversizedPayload) {
    {
        SocketPair pair;
        util::ByteWriter w;
        w.u32(0x12345678);  // wrong magic
        w.u16(system::kProtocolVersion);
        w.u16(2);
        w.u32(0);
        w.u32(0);
        pair.a.write_all(w.data().data(), w.size());
        system::Frame frame;
        EXPECT_THROW((void)system::read_frame(pair.b, frame),
                     util::WireError);
    }
    {
        SocketPair pair;
        util::ByteWriter w;
        w.u32(system::kProtocolMagic);
        w.u16(system::kProtocolVersion);
        w.u16(2);
        w.u32(0);
        w.u32(static_cast<std::uint32_t>(system::kMaxPayloadSize + 1));
        pair.a.write_all(w.data().data(), w.size());
        system::Frame frame;
        EXPECT_THROW((void)system::read_frame(pair.b, frame),
                     util::WireError);
    }
}

// --- daemon end to end ---------------------------------------------------

class ServeEndToEnd : public ::testing::Test {
protected:
    void SetUp() override {
        cfg_.socket_path = ::testing::TempDir() + "ob_serve_test_" +
                           std::to_string(::getpid()) + ".sock";
        cfg_.accept_poll_ms = 20;
        server_ = std::make_unique<system::FleetServer>(cfg_);
        thread_ = std::thread([this] { server_->serve(); });
        while (!server_->listening()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    void TearDown() override {
        server_->request_stop();
        thread_.join();
    }

    system::FleetServer::Config cfg_;
    std::unique_ptr<system::FleetServer> server_;
    std::thread thread_;
};

TEST_F(ServeEndToEnd, HandshakeGrantsDistinctSessions) {
    auto c1 = system::FleetServeClient::connect(cfg_.socket_path);
    auto c2 = system::FleetServeClient::connect(cfg_.socket_path);
    EXPECT_EQ(c1.version(), system::kProtocolVersion);
    EXPECT_NE(c1.session(), 0u);
    EXPECT_NE(c1.session(), c2.session());
    EXPECT_EQ(c1.ping(123u), 123u);
    c1.goodbye();
    c2.goodbye();
}

TEST_F(ServeEndToEnd, StreamedResultsAreBitwiseTheLocalRun) {
    system::FleetRequest req;
    req.scenario = "static-level";
    req.duration_s = 20.0;
    req.seeds_per_job = 2;

    auto client = system::FleetServeClient::connect(cfg_.socket_path);
    const auto outcome = client.run_fleet(req);
    client.goodbye();

    // The same expansion realized locally, reduced to the same wire frames.
    const auto jobs = system::expand_fleet_request(req);
    const auto local = system::FleetRunner{}.run(jobs);
    ASSERT_EQ(outcome.results.size(), jobs.size());
    ASSERT_EQ(outcome.done.jobs, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto expected = system::make_job_result(
            static_cast<std::uint32_t>(i),
            static_cast<std::uint32_t>(jobs.size()), jobs[i].scenario,
            jobs[i], local[i]);
        EXPECT_EQ(system::encode_job_result(outcome.results[i]),
                  system::encode_job_result(expected))
            << "job " << i << " diverged from the local run";
    }
}

TEST_F(ServeEndToEnd, StudyStreamsThePanelCells) {
    system::StudyRequest req;
    req.scenario = "static-level";

    auto client = system::FleetServeClient::connect(cfg_.socket_path);
    std::vector<std::string> labels;
    const auto outcome = client.run_study(
        req, [&](const system::JobResultMessage& m) {
            labels.push_back(m.scenario);
        });
    client.goodbye();

    const auto expansion = system::expand_study_request(req);
    ASSERT_EQ(outcome.results.size(), expansion.jobs.size());
    EXPECT_EQ(labels, expansion.labels);
    EXPECT_EQ(labels.front(), "static-level/static-0.003");
}

TEST_F(ServeEndToEnd, UnknownScenarioAnswersWithTheRightCode) {
    auto client = system::FleetServeClient::connect(cfg_.socket_path);
    system::FleetRequest req;
    req.scenario = "no-such-road";
    try {
        (void)client.run_fleet(req);
        FAIL() << "expected FleetServeError";
    } catch (const system::FleetServeError& e) {
        EXPECT_EQ(e.code(), system::ErrorCode::kUnknownScenario);
        EXPECT_NE(std::string(e.what()).find("no-such-road"),
                  std::string::npos);
    }
    // The session survives a rejected request.
    EXPECT_EQ(client.ping(7u), 7u);
    client.goodbye();
}

TEST_F(ServeEndToEnd, NonFiniteDurationAnswersBadRequest) {
    auto client = system::FleetServeClient::connect(cfg_.socket_path);
    system::FleetRequest req;
    req.scenario = "static-level";
    req.duration_s = std::numeric_limits<double>::quiet_NaN();
    try {
        (void)client.run_fleet(req);
        FAIL() << "expected FleetServeError";
    } catch (const system::FleetServeError& e) {
        EXPECT_EQ(e.code(), system::ErrorCode::kBadRequest);
        EXPECT_NE(std::string(e.what()).find("duration"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(client.ping(9u), 9u);
    client.goodbye();
}

TEST_F(ServeEndToEnd, SessionLifecycleIsEnforced) {
    {
        // First frame must be Hello.
        auto raw = util::UnixSocket::connect(cfg_.socket_path);
        system::write_frame(raw, system::MessageType::kPing, 0,
                            system::encode_ping(system::PingMessage{}));
        system::Frame frame;
        ASSERT_TRUE(system::read_frame(raw, frame));
        ASSERT_EQ(frame.type(), system::MessageType::kError);
        auto r = frame.reader();
        EXPECT_EQ(system::decode_error(r).code,
                  system::ErrorCode::kBadSession);
    }
    {
        // A frame carrying the wrong session id is rejected, session
        // survives.
        auto raw = util::UnixSocket::connect(cfg_.socket_path);
        system::write_frame(raw, system::MessageType::kHello, 0,
                            system::encode_hello(system::HelloRequest{}));
        system::Frame frame;
        ASSERT_TRUE(system::read_frame(raw, frame));
        ASSERT_EQ(frame.type(), system::MessageType::kHelloOk);
        auto hr = frame.reader();
        const auto ok = system::decode_hello_ok(hr);
        system::write_frame(raw, system::MessageType::kPing, ok.session + 1,
                            system::encode_ping(system::PingMessage{}));
        ASSERT_TRUE(system::read_frame(raw, frame));
        ASSERT_EQ(frame.type(), system::MessageType::kError);
        auto er = frame.reader();
        EXPECT_EQ(system::decode_error(er).code,
                  system::ErrorCode::kBadSession);
    }
    {
        // A client whose version range excludes the server's is refused.
        auto raw = util::UnixSocket::connect(cfg_.socket_path);
        system::HelloRequest hello;
        hello.min_version = system::kProtocolVersion + 1;
        hello.max_version = system::kProtocolVersion + 5;
        system::write_frame(raw, system::MessageType::kHello, 0,
                            system::encode_hello(hello));
        system::Frame frame;
        ASSERT_TRUE(system::read_frame(raw, frame));
        ASSERT_EQ(frame.type(), system::MessageType::kError);
        auto r = frame.reader();
        EXPECT_EQ(system::decode_error(r).code,
                  system::ErrorCode::kBadVersion);
    }
    {
        // A malformed payload (wrong size for the type) answers kBadFrame.
        auto raw = util::UnixSocket::connect(cfg_.socket_path);
        system::write_frame(raw, system::MessageType::kHello, 0,
                            system::encode_hello(system::HelloRequest{}));
        system::Frame frame;
        ASSERT_TRUE(system::read_frame(raw, frame));
        auto hr = frame.reader();
        const auto ok = system::decode_hello_ok(hr);
        const std::vector<std::uint8_t> short_payload(3, 0);
        system::write_frame(raw, system::MessageType::kPing, ok.session,
                            short_payload);
        ASSERT_TRUE(system::read_frame(raw, frame));
        ASSERT_EQ(frame.type(), system::MessageType::kError);
        auto er = frame.reader();
        EXPECT_EQ(system::decode_error(er).code,
                  system::ErrorCode::kBadFrame);
    }
}

TEST_F(ServeEndToEnd, ConcurrentClientsAllServed) {
    constexpr std::size_t kClients = 4;
    std::atomic<std::size_t> ok{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            auto client = system::FleetServeClient::connect(cfg_.socket_path);
            if (client.ping(c) != c) return;
            system::FleetRequest req;
            req.scenario = "static-level";
            req.duration_s = 20.0;
            req.base_seed = 2026 + c;  // distinct work per client
            const auto outcome = client.run_fleet(req);
            client.goodbye();
            if (outcome.results.size() == 1 && outcome.done.jobs == 1) {
                ok.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(ok.load(), kClients);
}

TEST_F(ServeEndToEnd, ShutdownViaProtocolStopsTheDaemon) {
    auto client = system::FleetServeClient::connect(cfg_.socket_path);
    client.shutdown_server();
    thread_.join();  // serve() returns once the ack is sent
    EXPECT_TRUE(server_->stopping());
    // The listener is gone: a fresh connect must fail.
    EXPECT_THROW((void)util::UnixSocket::connect(cfg_.socket_path),
                 util::SocketError);
    thread_ = std::thread([] {});  // keep TearDown's join well-defined
}

}  // namespace
