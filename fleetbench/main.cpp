/**
 * @file
 * fleetbench: the repository's benchmark program.
 *
 *   fleetbench --workload small_calls|bulk|container_decode --seed N
 *              --seconds S --trace 0|1 --cdpud PATH
 *              --out-dir DIR [--commit SHA] [--tiny] [--inject-mismatch]
 *   fleetbench --describe --workload W --seed N
 *
 * Prints provenance and per-phase operation counts, then, as its last
 * line, one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics with --trace 0, the per-layer metrics of the
 * traced walk with --trace 1. Exits nonzero on any failed operation or
 * output mismatch.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "common/kernels.h"
#include "measure.h"

using namespace fleetbench;

namespace
{

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kTimedBuild = true;
#else
constexpr bool kTimedBuild = false;
#endif

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload W --seed N "
                 "--seconds S --trace 0|1 --cdpud PATH "
                 "--out-dir DIR [--commit SHA] [--tiny] "
                 "[--inject-mismatch] | --describe --workload W --seed N\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    const std::vector<std::string> flags = {"tiny", "inject-mismatch",
                                            "describe"};
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage(("unexpected argument " + key).c_str());
        key = key.substr(2);
        if (std::find(flags.begin(), flags.end(), key) != flags.end()) {
            args[key].assign(1, '1');
        } else if (i + 1 < argc) {
            args[key] = argv[++i];
        } else {
            return usage(("missing value for --" + key).c_str());
        }
    }
    for (const auto &[key, value] : args) {
        static const std::vector<std::string> known = {
            "workload", "seed",   "seconds", "trace",           "cdpud",
            "out-dir",  "commit", "tiny",    "inject-mismatch", "describe"};
        if (std::find(known.begin(), known.end(), key) == known.end())
            return usage(("unknown flag --" + key).c_str());
    }
    auto arg = [&](const char *key, const char *fallback) {
        auto it = args.find(key);
        return it == args.end() ? std::string(fallback) : it->second;
    };

    RunConfig config;
    config.workload = arg("workload", "");
    const auto names = workloadNames();
    if (std::find(names.begin(), names.end(), config.workload) ==
        names.end())
        return usage(("unknown workload \"" + config.workload + "\"").c_str());
    config.seed = std::stoull(arg("seed", "1"));
    config.seconds = std::stod(arg("seconds", "10"));
    config.cdpudBinary = arg("cdpud", "");
    config.outDir = arg("out-dir", ".");
    config.flipFirstResponseByte = args.count("inject-mismatch") != 0;
    const bool trace = arg("trace", "0") == "1";

    Sizing sizing;
    if (args.count("tiny")) {
        sizing.smallCalls = 512;
        sizing.bulkBytes = 2 * kMiB;
        sizing.containerBytes = 512 * kKiB;
        config.seconds = std::min(config.seconds, 1.0);
    }

    auto workload = makeWorkload(config.workload, config.seed, sizing);
    if (!workload.ok()) {
        std::fprintf(stderr, "fleetbench: input generation: %s\n",
                     workload.status().message().c_str());
        return 1;
    }
    if (args.count("describe")) {
        std::printf("%s\n", describeWorkload(workload.value()).c_str());
        return 0;
    }

    // Timing anything but an optimised, assertion-free build would
    // record numbers no user sees.
    if (!kTimedBuild || (std::strcmp(FLEETBENCH_BUILD_TYPE, "Release") != 0 &&
                         std::strcmp(FLEETBENCH_BUILD_TYPE,
                                     "RelWithDebInfo") != 0)) {
        std::fprintf(stderr,
                     "fleetbench: refusing to time a %s build (needs an "
                     "optimised build without assertions)\n",
                     FLEETBENCH_BUILD_TYPE);
        return 1;
    }
    if (!trace && config.workload == "small_calls" &&
        config.cdpudBinary.empty())
        return usage("--cdpud is required for small_calls");

    std::printf("provenance {\"nproc\": %ld, \"cpu\": \"%s\", "
                "\"build_type\": \"%s\", \"kernel_tier\": \"%s\", "
                "\"commit\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
                "\"trace\": %d}\n",
                ::sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                FLEETBENCH_BUILD_TYPE,
                kernels::tierName(kernels::activeTier()),
                arg("commit", "unknown").c_str(),
                static_cast<unsigned long long>(config.seed),
                config.workload.c_str(), trace ? 1 : 0);
    std::printf("workload %s\n",
                describeWorkload(workload.value()).c_str());

    // Up to 5 s of a run may go to waiting out CPU steal.
    QuietHost quiet(5.0);
    config.quiet = &quiet;
    Metrics metrics;
    Outcome outcome;
    SpanLog spans;
    const Status status =
        trace ? runLayers(config, workload.value(), metrics, outcome, spans)
              : runEndToEnd(config, workload.value(), metrics, outcome);
    for (const Outcome::Phase &phase : outcome.phases)
        std::printf("phase %s attempted=%llu failed=%llu\n",
                    phase.name.c_str(),
                    static_cast<unsigned long long>(phase.attempted),
                    static_cast<unsigned long long>(phase.failed));
    std::printf("quiet_host waited_s=%.2f\n", quiet.waitedSeconds());
    if (!status.ok()) {
        std::fprintf(stderr, "fleetbench: %s\n", status.message().c_str());
        return 1;
    }
    if (trace) {
        std::printf("%s", spans.selfTimeTable().c_str());
        const std::string path = config.outDir + "/trace-" +
                                 config.workload + "-" +
                                 std::to_string(config.seed) + ".json";
        if (spans.writeChromeTrace(path))
            std::printf("trace %zu spans written to %s\n", spans.size(),
                        path.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct() ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return outcome.correct() ? 0 : 1;
}
