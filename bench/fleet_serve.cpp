// fleet_serve client bench: stands the daemon up in-process on an AF_UNIX
// socket, drives it with concurrent clients, and reports service metrics —
// requests/s and p50/p95/p99 tail latency — for the two request classes:
// ping round-trips (pure protocol + transport cost) and small fleet
// requests (protocol + a real scenario run). Writes BENCH_serve.json;
// bench/compare_bench.py gates it against
// bench/baselines/BENCH_serve.baseline.json (schema "serve": counts and
// protocol version pinned exactly, throughput and latency ratio-gated
// with latency noise slack).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "system/fleet_client.hpp"
#include "system/fleet_serve.hpp"
#include "util/artifacts.hpp"
#include "util/json.hpp"

using namespace ob;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 4;        // concurrent sessions per phase
constexpr std::size_t kPingsPerClient = 250;
constexpr std::size_t kFleetPerClient = 6;
constexpr double kJobDurationS = 20.0;  // short static-level scenario runs

[[nodiscard]] double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Nearest-rank percentile `pct` in [1, 100] (p99 = 99) of an ascending
/// latency sample: the value at 1-based rank ceil(pct * n / 100), in
/// integers so no rounding can move the rank. 0 for an empty sample.
[[nodiscard]] double percentile_ms(const std::vector<double>& sorted_ms,
                                   std::size_t pct) {
    if (sorted_ms.empty()) return 0.0;
    const std::size_t rank = (pct * sorted_ms.size() + 99) / 100;
    return sorted_ms[rank - 1];
}

struct PhaseStats {
    std::size_t requests = 0;
    double requests_per_sec = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
};

[[nodiscard]] PhaseStats reduce_phase(std::vector<double> latencies_ms,
                                      double wall_s) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    PhaseStats s;
    s.requests = latencies_ms.size();
    s.requests_per_sec =
        wall_s > 0.0 ? static_cast<double>(s.requests) / wall_s : 0.0;
    s.p50_ms = percentile_ms(latencies_ms, 50);
    s.p95_ms = percentile_ms(latencies_ms, 95);
    s.p99_ms = percentile_ms(latencies_ms, 99);
    return s;
}

void emit_phase(util::JsonWriter& w, const PhaseStats& s) {
    w.begin_object();
    w.key("requests").value(s.requests);
    w.key("requests_per_sec").value(s.requests_per_sec);
    w.key("p50_ms").value(s.p50_ms);
    w.key("p95_ms").value(s.p95_ms);
    w.key("p99_ms").value(s.p99_ms);
    w.end_object();
}

}  // namespace

int main() {
    const std::string socket_path =
        "/tmp/ob_serve_bench." +
        std::to_string(static_cast<long>(::getpid())) + ".sock";

    system::FleetServer::Config cfg;
    cfg.socket_path = socket_path;
    cfg.accept_poll_ms = 20;
    system::FleetServer server(cfg);
    std::thread server_thread([&server] { server.serve(); });
    while (!server.listening()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::printf("fleet_serve bench: %zu concurrent clients on %s\n", kClients,
                socket_path.c_str());

    std::atomic<bool> failed{false};

    // --- Phase 1: ping round-trips (protocol + transport floor) ---------
    std::vector<std::vector<double>> ping_lat(kClients);
    const auto ping_t0 = Clock::now();
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    auto client =
                        system::FleetServeClient::connect(socket_path);
                    ping_lat[c].reserve(kPingsPerClient);
                    for (std::size_t i = 0; i < kPingsPerClient; ++i) {
                        const auto t0 = Clock::now();
                        const std::uint64_t token = c * 1000003 + i;
                        if (client.ping(token) != token) {
                            failed = true;
                            return;
                        }
                        ping_lat[c].push_back(ms_since(t0));
                    }
                    client.goodbye();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "ping client %zu: %s\n", c,
                                 e.what());
                    failed = true;
                }
            });
        }
        for (auto& t : clients) t.join();
    }
    const double ping_wall_s = ms_since(ping_t0) / 1e3;
    std::vector<double> ping_all;
    for (auto& v : ping_lat) {
        ping_all.insert(ping_all.end(), v.begin(), v.end());
    }
    const PhaseStats ping = reduce_phase(std::move(ping_all), ping_wall_s);

    // --- Phase 2: fleet requests (one short static-level job each) ------
    std::vector<std::vector<double>> fleet_lat(kClients);
    std::size_t fleet_jobs_streamed = 0;
    const auto fleet_t0 = Clock::now();
    {
        std::vector<std::thread> clients;
        std::vector<std::size_t> streamed(kClients, 0);
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    auto client =
                        system::FleetServeClient::connect(socket_path);
                    system::FleetRequest req;
                    req.scenario = "static-level";
                    req.duration_s = kJobDurationS;
                    fleet_lat[c].reserve(kFleetPerClient);
                    for (std::size_t i = 0; i < kFleetPerClient; ++i) {
                        const auto t0 = Clock::now();
                        const auto outcome = client.run_fleet(req);
                        fleet_lat[c].push_back(ms_since(t0));
                        streamed[c] += outcome.results.size();
                    }
                    client.goodbye();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "fleet client %zu: %s\n", c,
                                 e.what());
                    failed = true;
                }
            });
        }
        for (auto& t : clients) t.join();
        for (const auto n : streamed) fleet_jobs_streamed += n;
    }
    const double fleet_wall_s = ms_since(fleet_t0) / 1e3;
    std::vector<double> fleet_all;
    for (auto& v : fleet_lat) {
        fleet_all.insert(fleet_all.end(), v.begin(), v.end());
    }
    const PhaseStats fleet = reduce_phase(std::move(fleet_all), fleet_wall_s);
    if (fleet_jobs_streamed != kClients * kFleetPerClient) {
        std::fprintf(stderr,
                     "expected %zu streamed job frames, got %zu\n",
                     kClients * kFleetPerClient, fleet_jobs_streamed);
        failed = true;
    }

    // --- Shutdown through the protocol, like a real operator would ------
    try {
        auto admin = system::FleetServeClient::connect(socket_path);
        admin.shutdown_server();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "shutdown: %s\n", e.what());
        failed = true;
        server.request_stop();
    }
    server_thread.join();

    std::printf("ping:  %zu requests, %8.1f req/s, p50 %6.3f ms, "
                "p95 %6.3f ms, p99 %6.3f ms\n",
                ping.requests, ping.requests_per_sec, ping.p50_ms, ping.p95_ms,
                ping.p99_ms);
    std::printf("fleet: %zu requests, %8.1f req/s, p50 %6.1f ms, "
                "p95 %6.1f ms, p99 %6.1f ms (1 job x %.0f s scenario each)\n",
                fleet.requests, fleet.requests_per_sec, fleet.p50_ms,
                fleet.p95_ms, fleet.p99_ms, kJobDurationS);

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("serve");
    w.key("protocol_version").value(system::kProtocolVersion);
    w.key("clients").value(kClients);
    w.key("ping");
    emit_phase(w, ping);
    w.key("fleet");
    emit_phase(w, fleet);
    w.key("fleet_jobs_per_request").value(std::size_t{1});
    w.key("fleet_job_duration_s").value(kJobDurationS);
    w.end_object();
    const std::string path = util::artifact_path("BENCH_serve.json");
    util::write_file(path, w.str());
    std::printf("wrote %s\n", path.c_str());

    if (failed) {
        std::printf("FAIL: serve bench hit errors\n");
        return 1;
    }
    std::printf("PASS: %zu concurrent clients served, clean shutdown\n",
                kClients);
    return 0;
}
