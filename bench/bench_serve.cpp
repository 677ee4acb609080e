/**
 * @file
 * Fleet-replay throughput vs worker count.
 *
 * Replays one mixed-codec call stream through the serve engine at a
 * sweep of worker counts and reports aggregate throughput and call
 * latency percentiles — the software side of the paper's Section 3
 * serving analysis: (de)compression capacity scales with cores thrown
 * at independent calls, which is exactly the capacity a CDPU returns
 * to the application. The 1-worker row doubles as the context-reuse
 * baseline (same engine, no parallelism); replaySequential() is run
 * first to verify the engine's outputs before timing anything.
 *
 * Flags: --calls N --min BYTES --max BYTES --seed S --workers CSV-free
 * max (sweeps 1,2,4,..,max) --json PATH, plus the telemetry pipeline:
 * --telemetry attaches an obs::Telemetry hub (per-call spans sampled
 * 1-in---span-period, per-worker flight rings, metrics samples every
 * --metrics-every completed calls, dimensioned latency) and --slo
 * declares comma-separated targets ("any:decompress:p99:4096:250us")
 * evaluated against the final sweep point. Telemetry is off by
 * default so the headline numbers carry zero instrumentation cost;
 * CI's overhead guard runs both configurations and fails the build if
 * the attached hub costs more than 5% throughput.
 *
 * Note: scaling is bounded by the host's cores; the committed
 * BENCH_serve.json records host_cpus, wall-clock endpoints, and a
 * core_bound flag so a 1-core container's flat curve is not misread
 * as an engine defect.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "codec/obs_bridge.h"
#include "common/kernels.h"
#include "container/container.h"
#include "serve/engine.h"
#include "serve/stream_builder.h"

namespace cdpu
{
namespace
{

struct Row
{
    unsigned workers = 0;
    double seconds = 0.0;
    double mbPerSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

int
run(int argc, char **argv)
{
    bench::banner("Fleet replay: aggregate throughput vs worker count",
                  "Section 3 (serving: independent calls x cores)");

    CliArgs args;
    serve::StreamConfig stream_config;
    unsigned max_workers = 8;
    bool telemetry_on = false;
    u64 span_period = 64;
    u64 metrics_every = 32;
    std::string slo_specs;
    if (args.parse(argc, argv,
                   {"calls", "min", "max", "seed", "workers", "codec",
                    "streaming", "json", "telemetry", "span-period",
                    "metrics-every", "slo", "kernel-tier"})) {
        stream_config.calls =
            static_cast<std::size_t>(args.getInt("calls", 192));
        stream_config.minCallBytes =
            static_cast<std::size_t>(args.getInt("min", 1 * kKiB));
        stream_config.maxCallBytes = static_cast<std::size_t>(
            args.getInt("max", static_cast<i64>(48 * kKiB)));
        stream_config.seed = static_cast<u64>(args.getInt("seed", 2023));
        max_workers =
            static_cast<unsigned>(args.getInt("workers", 8));
        // --streaming P routes P% of calls through the codec session
        // API instead of one whole-buffer call per payload.
        stream_config.streamingFraction =
            static_cast<double>(args.getInt("streaming", 0)) / 100.0;
        std::string codec_name = args.getString("codec", "");
        if (!codec_name.empty()) {
            auto id = codec::codecFromName(codec_name);
            if (!id.ok()) {
                std::fprintf(stderr, "--codec %s: %s\n",
                             codec_name.c_str(),
                             id.status().message().c_str());
                return 1;
            }
            stream_config.codecs = {id.value()};
        }
        telemetry_on = args.getBool("telemetry", false);
        span_period =
            static_cast<u64>(args.getInt("span-period", 64));
        metrics_every =
            static_cast<u64>(args.getInt("metrics-every", 32));
        slo_specs = args.getString(
            "slo", "any:decompress:p99:0:50ms,any:compress:p99:0:50ms");
        std::string tier_name = args.getString("kernel-tier", "");
        if (!tier_name.empty()) {
            Status tier_status = kernels::applyTierOverride(tier_name);
            if (!tier_status.ok()) {
                std::fprintf(stderr, "--kernel-tier %s: %s\n",
                             tier_name.c_str(),
                             tier_status.message().c_str());
                return 1;
            }
        }
    }
    max_workers = std::max(1u, max_workers);

    auto stream = serve::buildMixedStream(stream_config);
    if (!stream.ok()) {
        std::fprintf(stderr, "stream build failed: %s\n",
                     stream.status().message().c_str());
        return 1;
    }

    // Correctness gate before timing: the parallel engine must agree
    // with the no-thread reference on every call.
    serve::ReplayReport reference =
        serve::replaySequential(stream.value());
    if (reference.failed != 0) {
        std::fprintf(stderr, "reference replay had %llu failures\n",
                     static_cast<unsigned long long>(reference.failed));
        return 1;
    }

    const std::string wall_clock_start = bench::wallClockUtc();
    const unsigned host_cpus = std::thread::hardware_concurrency();

    bench::BenchReport report("serve_replay", argc, argv);
    report.config("calls", u64{stream.value().size()});
    report.config("payload_bytes",
                  u64{stream.value().totalPayloadBytes()});
    report.config("seed", u64{stream_config.seed});
    report.config("host_cpus", u64{host_cpus});
    // Honesty flag: sweep points beyond the host's cores time-slice
    // workers on shared cores, so their scaling is meaningless.
    report.config("core_bound", max_workers > host_cpus);
    report.config("wall_clock_start", wall_clock_start);
    report.config("policy", std::string("block"));
    report.config("streaming_fraction",
                  stream_config.streamingFraction);
    report.config("telemetry", telemetry_on);
    // Kernel-tier provenance: which SIMD tier produced these numbers.
    report.config("kernel_tier",
                  std::string(kernels::tierName(kernels::activeTier())));
    report.config(
        "kernel_detected_tier",
        std::string(kernels::tierName(kernels::detectedTier())));
    report.config("kernel_cpu_features", kernels::cpuFeatureSummary());
    if (telemetry_on) {
        report.config("span_period", u64{span_period});
        report.config("metrics_every", u64{metrics_every});
    }

    // Self-describing telemetry: the capability metadata of every
    // codec the stream exercises, straight from the registry.
    obs::JsonValue codecs_json = obs::JsonValue::array();
    const std::vector<codec::CodecId> &stream_codecs =
        stream_config.codecs.empty() ? codec::allCodecs()
                                     : stream_config.codecs;
    for (codec::CodecId id : stream_codecs)
        codecs_json.push(bench::codecCapsJson(id));
    report.config("codecs", std::move(codecs_json));

    std::printf("\ncalls: %zu   payload: %.1f MiB   host cpus: %u\n\n",
                stream.value().size(),
                static_cast<double>(
                    stream.value().totalPayloadBytes()) /
                    static_cast<double>(kMiB),
                std::thread::hardware_concurrency());
    std::printf("%8s %10s %12s %10s %10s\n", "workers", "sec", "MB/s",
                "p50(us)", "p99(us)");

    std::vector<Row> rows;
    obs::JsonValue sweep = obs::JsonValue::array();
    // Telemetry from the widest sweep point (a fresh hub per point
    // keeps each point's spans/metrics self-contained).
    obs::JsonValue telemetry_doc;
    obs::SloTracker slo;
    if (telemetry_on) {
        Status declared = slo.declareSpecs(slo_specs);
        if (!declared.ok()) {
            std::fprintf(stderr, "--slo: %s\n",
                         declared.message().c_str());
            return 1;
        }
    }
    for (unsigned workers = 1; workers <= max_workers; workers *= 2) {
        serve::EngineConfig config;
        config.workers = workers;
        std::unique_ptr<obs::Telemetry> tele;
        if (telemetry_on) {
            obs::TelemetryConfig tc;
            tc.spanSamplePeriod = span_period;
            tc.metricsEveryCalls = metrics_every;
            tele = std::make_unique<obs::Telemetry>(
                tc, workers, codec::codecFlightNamer());
            config.telemetry = tele.get();
        }
        serve::ReplayEngine engine(config);
        serve::ReplayReport run_report = engine.run(stream.value());

        // Differential check on every sweep point, not just in tests.
        bool identical =
            run_report.work.counters == reference.work.counters;
        for (std::size_t i = 0; identical && i < stream.value().size();
             ++i) {
            identical =
                run_report.outcomes[i].outputHash ==
                reference.outcomes[i].outputHash;
        }
        if (!identical || run_report.failed != 0) {
            std::fprintf(stderr,
                         "parallel replay diverged at %u workers\n",
                         workers);
            return 1;
        }

        Row row;
        row.workers = workers;
        row.seconds = run_report.elapsedSeconds;
        row.mbPerSec = static_cast<double>(run_report.bytesIn()) /
                       1e6 / run_report.elapsedSeconds;
        const auto &latency = run_report.latency();
        row.p50Us = latency.percentile(0.50) / 1e3;
        row.p99Us = latency.percentile(0.99) / 1e3;
        rows.push_back(row);

        std::printf("%8u %10.3f %12.1f %10.1f %10.1f\n", row.workers,
                    row.seconds, row.mbPerSec, row.p50Us, row.p99Us);

        obs::JsonValue point = obs::JsonValue::object();
        point.set("workers", u64{workers});
        point.set("core_bound", workers > host_cpus);
        point.set("seconds", row.seconds);
        point.set("mb_per_sec", row.mbPerSec);
        point.set("p50_us", row.p50Us);
        point.set("p99_us", row.p99Us);
        point.set("p999_us", run_report.latency().percentile(0.999) / 1e3);
        if (tele) {
            point.set("spans_sampled", u64{run_report.spansSampled});
            point.set("metrics_samples", u64{run_report.metricsSamples});
        }
        sweep.push(std::move(point));

        if (workers == 1)
            report.counters(run_report.work);

        // The widest point's telemetry becomes the committed document:
        // spans, the time series, the SLO scorecard over dimensioned
        // latency, and any fault dump.
        if (tele && workers * 2 > max_workers) {
            telemetry_doc = obs::JsonValue::object();
            telemetry_doc.set("workers", u64{workers});
            telemetry_doc.set("spans", tele->spans().toJson());
            if (run_report.metricsSamples)
                telemetry_doc.set(
                    "metrics_series",
                    run_report.metricsSeries.at("metrics_series"));
            obs::CounterSnapshot merged = run_report.runtime;
            merged.merge(run_report.work);
            telemetry_doc.set("slo",
                              slo.toJson(merged).at("slo"));
            if (tele->hasFaultDump())
                telemetry_doc.set("fault_dump", tele->faultDump());
        }
    }

    double base = rows.front().mbPerSec;
    double best = 0.0;
    for (const Row &row : rows)
        best = std::max(best, row.mbPerSec);

    // Honesty policy (container::speedupHeadline): on a <=1-cpu host
    // worker scaling is time-slicing, so the record stays core_bound
    // with no speedup_best claim.
    obs::JsonValue headline = obs::JsonValue::object();
    container::speedupHeadline(headline, host_cpus, base, best);

    report.metric("sweep", std::move(sweep));
    report.metric("mb_per_sec_1w", headline.at("mb_per_sec_1w"));
    report.metric("mb_per_sec_best", headline.at("mb_per_sec_best"));
    report.metric("core_bound", headline.at("core_bound"));
    if (headline.has("speedup_best")) {
        report.metric("speedup_best", headline.at("speedup_best"));
        std::printf("\nbest speedup over 1 worker: %.2fx\n",
                    best / base);
    } else {
        std::printf("\nhost has %u cpu(s): core_bound record, no "
                    "speedup headline\n",
                    host_cpus);
    }
    if (telemetry_on)
        report.metric("telemetry", std::move(telemetry_doc));
    report.metric("wall_clock_end", bench::wallClockUtc());
    Status written = report.write();
    if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.message().c_str());
        return 1;
    }
    return 0;
}

} // namespace
} // namespace cdpu

int
main(int argc, char **argv)
{
    return cdpu::run(argc, argv);
}
