/**
 * @file
 * Block-parallel container decode: block size x workers x codec.
 *
 * Sweeps container::decodeParallel over every registry codec, a set of
 * block sizes, and a worker ladder, against one mixed-class input. The
 * software sweep answers the format's core tuning question — how small
 * can blocks get before per-block overhead eats the parallelism — and
 * the --sim-pus leg answers the paper-side version: N CDPU PUs
 * (Section 5.8's multi-PU design point) decoding one container stream,
 * with per-block cycle costs measured on the real PU models and
 * scheduled by sim::simulateContainerDecode.
 *
 * Every sweep point is differentially checked against the sequential
 * reference (bytes + work counters) before its timing is reported.
 *
 * Honesty: the committed BENCH_container.json records host_cpus and
 * wall-clock endpoints, and the speedup headline follows
 * container::speedupHeadline — on a single-core host the record says
 * core_bound=true and carries NO speedup claim, because time-sliced
 * workers cannot demonstrate parallelism (the BENCH_serve.json caveat,
 * promoted to policy and regression-tested in container_test).
 *
 * Flags: --bytes N --seed S --workers MAX --codec NAME --sim-pus MAX
 * --json PATH.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cdpu/flate_pu.h"
#include "cdpu/snappy_pu.h"
#include "cdpu/zstd_pu.h"
#include "container/container.h"
#include "corpus/generators.h"
#include "sim/container_scenario.h"

namespace cdpu
{
namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Per-block decode cycles on the matching CDPU PU model; empty when
 *  no PU decodes this codec (gipfeli has no hardware unit). */
std::vector<sim::Tick>
puBlockCycles(codec::CodecId id, const container::FrameIndex &index,
              ByteSpan frame)
{
    std::vector<sim::Tick> cycles;
    hw::CdpuConfig config;
    hw::SnappyDecompressorPU snappy_pu{config};
    hw::ZstdDecompressorPU zstd_pu{config};
    hw::FlateDecompressorPU flate_pu{config};
    for (const container::BlockEntry &entry : index.blocks) {
        ByteSpan block = frame.subspan(
            index.dataStart + static_cast<std::size_t>(entry.offset),
            static_cast<std::size_t>(entry.compSize));
        Result<hw::PuResult> result = [&]() -> Result<hw::PuResult> {
            switch (id) {
              case codec::CodecId::snappy: return snappy_pu.run(block);
              case codec::CodecId::zstdlite: return zstd_pu.run(block);
              case codec::CodecId::flatelite:
                return flate_pu.run(block);
              default:
                return Status::unsupported("no PU for this codec");
            }
        }();
        if (!result.ok())
            return {};
        cycles.push_back(result.value().cycles);
    }
    return cycles;
}

int
run(int argc, char **argv)
{
    bench::banner(
        "Container decode: block size x workers x codec",
        "Section 5.8 multi-PU scaling (block-parallel container)");

    CliArgs args;
    std::size_t total_bytes = 4 * kMiB;
    u64 seed = 2023;
    unsigned max_workers = 8;
    unsigned max_sim_pus = 16;
    std::vector<codec::CodecId> codecs = codec::allCodecs();
    if (args.parse(argc, argv,
                   {"bytes", "seed", "workers", "codec", "sim-pus",
                    "json"})) {
        total_bytes = static_cast<std::size_t>(
            args.getInt("bytes", static_cast<i64>(total_bytes)));
        seed = static_cast<u64>(args.getInt("seed", 2023));
        max_workers = static_cast<unsigned>(args.getInt("workers", 8));
        max_sim_pus =
            static_cast<unsigned>(args.getInt("sim-pus", 16));
        std::string codec_name = args.getString("codec", "");
        if (!codec_name.empty()) {
            auto id = codec::codecFromName(codec_name);
            if (!id.ok()) {
                std::fprintf(stderr, "--codec %s: %s\n",
                             codec_name.c_str(),
                             id.status().message().c_str());
                return 1;
            }
            codecs = {id.value()};
        }
    }
    max_workers = std::max(1u, max_workers);

    Rng rng(seed);
    const Bytes input = corpus::generateMixed(total_bytes, rng);
    const std::size_t block_sizes[] = {16 * kKiB, 128 * kKiB, 1 * kMiB};

    const std::string wall_clock_start = bench::wallClockUtc();
    const unsigned host_cpus = std::thread::hardware_concurrency();

    bench::BenchReport report("container_decode", argc, argv);
    report.config("input_bytes", u64{input.size()});
    report.config("seed", u64{seed});
    report.config("host_cpus", u64{host_cpus});
    report.config("max_workers", u64{max_workers});
    report.config("wall_clock_start", wall_clock_start);
    obs::JsonValue codecs_json = obs::JsonValue::array();
    for (codec::CodecId id : codecs)
        codecs_json.push(bench::codecCapsJson(id));
    report.config("codecs", std::move(codecs_json));

    std::printf("\ninput: %.1f MiB   host cpus: %u\n\n",
                static_cast<double>(input.size()) /
                    static_cast<double>(kMiB),
                host_cpus);
    std::printf("%10s %10s %8s %10s %12s %10s\n", "codec", "block",
                "workers", "ratio", "MB/s", "blocks");

    double mb_per_sec_1w = 0.0;
    double mb_per_sec_best = 0.0;
    obs::JsonValue sweep = obs::JsonValue::array();
    for (codec::CodecId id : codecs) {
        for (std::size_t block_bytes : block_sizes) {
            container::WriteOptions wopts;
            wopts.blockBytes = block_bytes;
            Bytes frame;
            Status ws = container::write(id, input, wopts, frame);
            if (!ws.ok()) {
                std::fprintf(stderr, "write failed: %s\n",
                             ws.message().c_str());
                return 1;
            }

            // Correctness gate before timing: the sequential reference
            // must round-trip, and every parallel point must agree
            // with it byte-for-byte and counter-for-counter.
            Bytes reference;
            container::DecodeReport reference_report;
            Status rs = container::decodeSequential(
                frame, reference, {}, &reference_report);
            if (!rs.ok() || reference != input) {
                std::fprintf(stderr,
                             "sequential reference diverged: %s\n",
                             rs.toString().c_str());
                return 1;
            }

            for (unsigned workers = 1; workers <= max_workers;
                 workers *= 2) {
                Bytes out;
                container::DecodeReport decode_report;
                const auto start = std::chrono::steady_clock::now();
                Status ds = container::decodeParallel(
                    frame, workers, out, {}, &decode_report);
                const double seconds = secondsSince(start);
                if (!ds.ok() || out != reference ||
                    decode_report.work.counters !=
                        reference_report.work.counters) {
                    std::fprintf(
                        stderr,
                        "parallel decode diverged at %u workers\n",
                        workers);
                    return 1;
                }

                const double mb_per_sec =
                    static_cast<double>(input.size()) / 1e6 / seconds;
                if (workers == 1) {
                    mb_per_sec_1w =
                        std::max(mb_per_sec_1w, mb_per_sec);
                } else {
                    mb_per_sec_best =
                        std::max(mb_per_sec_best, mb_per_sec);
                }
                std::printf(
                    "%10s %10zu %8u %10.3f %12.1f %10llu\n",
                    codec::codecName(id).c_str(), block_bytes,
                    workers,
                    static_cast<double>(frame.size()) /
                        static_cast<double>(input.size()),
                    mb_per_sec,
                    static_cast<unsigned long long>(
                        decode_report.blocks));

                obs::JsonValue point = obs::JsonValue::object();
                point.set("codec", codec::codecName(id));
                point.set("block_bytes", u64{block_bytes});
                point.set("workers", u64{workers});
                point.set("core_bound", workers > host_cpus);
                point.set("seconds", seconds);
                point.set("mb_per_sec", mb_per_sec);
                point.set("frame_bytes", u64{frame.size()});
                point.set("blocks", u64{decode_report.blocks});
                sweep.push(std::move(point));

                if (workers == 1 && block_bytes == block_sizes[0] &&
                    id == codecs.front())
                    report.counters(decode_report.work);
            }
        }
    }

    // Multi-PU scenario: N CDPU PUs decode the 128 KiB-block container
    // of each hardware-backed codec; per-block costs come from the PU
    // models themselves, the schedule from the sim scenario.
    obs::JsonValue sim_json = obs::JsonValue::array();
    std::printf("\n%10s %8s %14s %10s %12s\n", "codec", "pus",
                "makespan", "speedup", "utilization");
    for (codec::CodecId id : codecs) {
        container::WriteOptions wopts;
        wopts.blockBytes = 128 * kKiB;
        Bytes frame;
        if (!container::write(id, input, wopts, frame).ok())
            continue;
        Result<container::FrameIndex> index =
            container::parseIndex(frame);
        if (!index.ok())
            continue;
        sim::ContainerScenario scenario;
        scenario.blockCycles =
            puBlockCycles(id, index.value(), frame);
        if (scenario.blockCycles.empty())
            continue; // No PU decodes this codec.
        scenario.dispatchCycles = 64;
        for (unsigned pus = 1; pus <= max_sim_pus; pus *= 2) {
            scenario.pus = pus;
            sim::ContainerSimReport sim_report =
                sim::simulateContainerDecode(scenario);
            std::printf("%10s %8u %14llu %10.2f %12.2f\n",
                        codec::codecName(id).c_str(), pus,
                        static_cast<unsigned long long>(
                            sim_report.makespan),
                        sim_report.speedup, sim_report.utilization);
            obs::JsonValue point = obs::JsonValue::object();
            point.set("codec", codec::codecName(id));
            point.set("pus", u64{pus});
            point.set("blocks", u64{scenario.blockCycles.size()});
            point.set("makespan_cycles", u64{sim_report.makespan});
            point.set("speedup", sim_report.speedup);
            point.set("utilization", sim_report.utilization);
            sim_json.push(std::move(point));
        }
    }

    obs::JsonValue metrics = obs::JsonValue::object();
    container::speedupHeadline(metrics, host_cpus, mb_per_sec_1w,
                               mb_per_sec_best);
    report.metric("sweep", std::move(sweep));
    report.metric("sim_pus", std::move(sim_json));
    report.metric("mb_per_sec_1w", metrics.at("mb_per_sec_1w"));
    report.metric("mb_per_sec_best", metrics.at("mb_per_sec_best"));
    report.metric("core_bound", metrics.at("core_bound"));
    if (metrics.has("speedup_best")) {
        report.metric("speedup_best", metrics.at("speedup_best"));
        std::printf("\nbest speedup over 1 worker: %.2fx\n",
                    metrics.at("speedup_best").asDouble());
    } else {
        std::printf("\nhost has %u cpu(s): core_bound record, no "
                    "speedup headline\n",
                    host_cpus);
    }
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
