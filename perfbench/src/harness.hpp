#pragma once

// Shared pieces of the benchmark harness: clocks, resource readings, the
// output digest, the metric table and the span log.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds on the steady clock's own epoch (CLOCK_MONOTONIC on Linux, the
/// clock Python's time.monotonic reads), so the launcher can measure set-up
/// from its own spawn time.
[[nodiscard]] inline double monotonic_s() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/// User + system CPU seconds of the whole process, every thread included.
[[nodiscard]] inline double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of the process so far, MiB.
[[nodiscard]] inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host's per-instruction speed relative to the host the benchmark was
/// calibrated on (a quiet 4-vCPU Xeon VM): a fixed integer and
/// floating-point kernel, owned by the benchmark, runs on `threads` threads
/// at once for 20 ms of CPU time each, and its iterations per
/// thread-CPU-second are averaged and divided by kReferenceSpeed. The
/// reading falls when the host slows every instruction (a busy neighbour on
/// the core, a lower clock); descheduling does not move it.
///
/// Wall times are multiplied by the factor read just before they are taken,
/// so runs on one host compare at one per-instruction speed.
[[nodiscard]] double speed_factor(std::size_t threads);

/// Kernel iterations per CPU-second on the calibration host.
inline constexpr double kReferenceSpeed = 1.5e8;

/// FNV-1a over output bytes: the digest the output check pins.
struct Fnv64 {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(const std::uint8_t* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void add(const std::vector<std::uint8_t>& bytes) {
        add(bytes.data(), bytes.size());
    }
    void add(const std::string& s) {
        add(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    }
    void add_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            const auto b = static_cast<std::uint8_t>(v >> (8 * i));
            add(&b, 1);
        }
    }
};

/// Named metrics in insertion order; re-setting a name overwrites it.
class MetricTable {
public:
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string& name, double value, const std::string& unit) {
        for (auto& m : metrics_) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        metrics_.push_back({name, value, unit});
    }
    [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

    void write(ob::util::JsonWriter& w) const {
        w.begin_object();
        for (const auto& m : metrics_) {
            w.key(m.name).begin_object();
            w.key("value").value(m.value);
            w.key("unit").value(m.unit);
            w.end_object();
        }
        w.end_object();
    }

private:
    std::vector<Metric> metrics_;
};

/// Spans recorded from the benchmark's own files around calls into the
/// program's layers. Coarse spans (one plan, one runner call, one request)
/// are kept individually with their parent; fine-grained replay sections
/// (one per layer per epoch) are accumulated per layer so a replay of
/// millions of epochs stays a few map entries. Everything stays in memory
/// until the run writes it out. Not thread-safe: one log per thread,
/// merged after the threads join.
class SpanLog {
public:
    using Id = std::uint32_t;  ///< 0 = no span (root parent)

    struct Span {
        std::string layer;
        Id id = 0;
        Id parent = 0;
        double start_s = 0.0;  ///< monotonic seconds
        double end_s = 0.0;
    };

    struct LayerTotal {
        std::uint64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;  ///< total minus time covered by child spans
    };

    Id open(const std::string& layer, Id parent = 0) {
        spans_.push_back({layer, next_id_, parent, monotonic_s(), 0.0});
        return next_id_++;
    }
    void close(Id id) { spans_[index_of(id)].end_s = monotonic_s(); }

    /// Accumulate `count` replay sections of one layer totalling `seconds`.
    void add_total(const std::string& layer, double seconds,
                   std::uint64_t count) {
        auto& t = accumulated_[layer];
        t.count += count;
        t.total_s += seconds;
        t.self_s += seconds;
    }

    /// Append another thread's log; its span ids are renumbered.
    void merge(const SpanLog& other);

    /// Per-layer count, total and self time over both kinds of span.
    [[nodiscard]] std::map<std::string, LayerTotal> totals() const;

    void write(ob::util::JsonWriter& w) const;

private:
    [[nodiscard]] std::size_t index_of(Id id) const {
        return static_cast<std::size_t>(id - first_id_);
    }

    std::vector<Span> spans_;
    std::map<std::string, LayerTotal> accumulated_;
    Id first_id_ = 1;
    Id next_id_ = 1;
};

/// RAII span; a null log makes it a no-op, which is the untraced run.
class SpanScope {
public:
    SpanScope(SpanLog* log, const std::string& layer, SpanLog::Id parent = 0)
        : log_(log), id_(log ? log->open(layer, parent) : 0) {}
    ~SpanScope() {
        if (log_) log_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    [[nodiscard]] SpanLog::Id id() const { return id_; }

private:
    SpanLog* log_;
    SpanLog::Id id_;
};

}  // namespace perfbench
