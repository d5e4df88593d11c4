// obbench: runs one named workload of the end-to-end benchmark and prints
// its metrics. perfbench/run.py is the entry point; see perfbench/README.md.
//
//   obbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--threads N] [--work-dir DIR] [--setup-only]
//
// Prints report lines, then one JSON object as the last line: the run's
// record (end-to-end metrics, per-layer metrics when traced, exact work
// counters, correctness).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/alloc_counter.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

OB_DEFINE_COUNTING_OPERATOR_NEW

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "obbench: %s\nusage: obbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads N] [--work-dir DIR] "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = next();
            } else if (a == "--seed") {
                o.seed = std::stoull(next());
            } else if (a == "--seconds") {
                o.seconds = std::stod(next());
            } else if (a == "--trace") {
                o.trace = std::stoi(next()) != 0;
            } else if (a == "--threads") {
                o.threads = std::stoul(next());
            } else if (a == "--work-dir") {
                o.work_dir = next();
            } else if (a == "--setup-only") {
                o.setup_only = true;
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (o.threads == 0) usage("--threads must be positive");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

void print_table(const char* title, const MetricTable& t) {
    std::printf("%s:\n", title);
    for (const auto& m : t.all()) {
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    const auto start = Clock::now();
    const Options opts = parse(argc, argv);
    double ready_mono_s = 0.0, setup_s = 0.0, setup_speed = 0.0;
    RunOutcome out;
    try {
        out = run_workload(opts, [&] {
            ready_mono_s = monotonic_s();
            setup_s = since(start);
            setup_speed = speed_factor(1);  // outside the set-up time
        });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "obbench: %s\n", e.what());
        return 1;
    }
    out.correct = out.problems.empty();
    if (!out.correct) out.failed = out.attempted;  // a wrong output fails all

    if (!opts.setup_only) {
        std::printf("workload %s, seed %llu, %zu threads, %s run\n",
                    opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                    opts.threads, opts.trace ? "traced" : "untraced");
        print_table("end-to-end", out.e2e);
        print_table("workload figures", out.extra);
        std::printf("  %-40s %16.6g frac\n", "error_frac",
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0);
        if (opts.trace) print_table("per-layer (traced)", out.layers);
        std::printf("exact work counters:\n");
        for (const auto& [k, v] : out.counters) {
            std::printf("  %-40s %16llu\n", k.c_str(), static_cast<unsigned long long>(v));
        }
        for (const auto& p : out.problems) std::printf("output check: %s\n", p.c_str());
        std::printf("output check: %s (digest %016llx)\n", out.correct ? "pass" : "FAIL",
                    static_cast<unsigned long long>(out.digest));
    }
    if (opts.trace && !opts.setup_only) {
        ob::util::JsonWriter tw;
        out.spans.write(tw);
        const std::string path = opts.work_dir + "/trace-" + opts.workload + "-" +
                                 std::to_string(opts.seed) + ".json";
        ob::util::write_file(path, tw.str());
        std::printf("spans written to %s\n", path.c_str());
    }

    ob::util::JsonWriter w;
    w.begin_object();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("threads").value(opts.threads);
    w.key("trace").value(opts.trace);
    w.key("setup_only").value(opts.setup_only);
    w.key("ready_mono_s").value(ready_mono_s);
    w.key("setup_s").value(setup_s);
    w.key("setup_speed_factor").value(setup_speed);
    w.key("correct").value(out.correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(out.digest));
    w.key("digest").value(digest);
    w.key("e2e");
    out.e2e.write(w);
    w.key("layers");
    out.layers.write(w);
    w.key("extra");
    out.extra.write(w);
    w.key("counters").begin_object();
    for (const auto& [k, v] : out.counters) w.key(k).value(v);
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
