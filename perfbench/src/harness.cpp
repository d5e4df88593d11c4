#include "harness.hpp"

#include <time.h>

#include <cmath>
#include <thread>

namespace perfbench {

namespace {

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Kernel iterations per thread-CPU-second over about `cpu_seconds` of CPU.
double probe(double cpu_seconds) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    double acc = 0.0;
    std::uint64_t n = 0;
    const double c0 = thread_cpu_s();
    double used = 0.0;
    while (used < cpu_seconds) {
        for (int i = 0; i < 1024; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const double v = static_cast<double>(x >> 11) * 0x1.0p-53;
            acc = (x & 1) ? acc * 0.999 + v : acc * 0.998 - 0.5 * v;
        }
        n += 1024;
        used = thread_cpu_s() - c0;
    }
    // `acc` feeds the result so the kernel cannot be optimized away.
    return static_cast<double>(n) / used + (std::isfinite(acc) ? 0.0 : 1.0);
}

}  // namespace

double speed_factor(std::size_t threads) {
    std::vector<double> speed(threads, 0.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&speed, t] { speed[t] = probe(0.02); });
    }
    for (auto& th : pool) th.join();
    double sum = 0.0;
    for (const double v : speed) sum += v;
    return sum / static_cast<double>(threads) / kReferenceSpeed;
}

void SpanLog::merge(const SpanLog& other) {
    const Id offset = next_id_ - other.first_id_;
    for (Span s : other.spans_) {
        s.id += offset;
        if (s.parent != 0) s.parent += offset;
        spans_.push_back(std::move(s));
    }
    next_id_ += other.next_id_ - other.first_id_;
    for (const auto& [layer, t] : other.accumulated_) {
        auto& mine = accumulated_[layer];
        mine.count += t.count;
        mine.total_s += t.total_s;
        mine.self_s += t.self_s;
    }
}

std::map<std::string, SpanLog::LayerTotal> SpanLog::totals() const {
    std::map<std::string, LayerTotal> out = accumulated_;
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const auto& s : spans_) {
        if (s.parent != 0) child_s[index_of(s.parent)] += s.end_s - s.start_s;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double d = spans_[i].end_s - spans_[i].start_s;
        auto& t = out[spans_[i].layer];
        ++t.count;
        t.total_s += d;
        t.self_s += d - child_s[i];
    }
    return out;
}

void SpanLog::write(ob::util::JsonWriter& w) const {
    w.begin_object();
    w.key("layers").begin_object();
    for (const auto& [layer, t] : totals()) {
        w.key(layer).begin_object();
        w.key("count").value(t.count);
        w.key("total_s").value(t.total_s);
        w.key("self_s").value(t.self_s);
        w.end_object();
    }
    w.end_object();
    w.key("spans").begin_array();
    for (const auto& s : spans_) {
        w.begin_object();
        w.key("layer").value(s.layer);
        w.key("id").value(static_cast<std::uint64_t>(s.id));
        w.key("parent").value(static_cast<std::uint64_t>(s.parent));
        w.key("start_s").value(s.start_s);
        w.key("end_s").value(s.end_s);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

}  // namespace perfbench
