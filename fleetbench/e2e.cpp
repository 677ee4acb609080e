/**
 * @file
 * End-to-end runs (trace 0). Every workload reports every end-to-end
 * metric; see fleetbench/README.md for what each one means on each
 * workload.
 *
 * Speeds are work per CPU second of the processes doing the work, not
 * per second of wall time. On a shared host, wall time also counts the
 * time a thread waits for a CPU and the time the hypervisor steals:
 * the same build's closed-loop calls/s spread by 37-60% and its
 * open-loop p99 moved fourfold between sets of runs. CPU time counts
 * neither. Wall-clock rates and latencies are printed beside the
 * result and reported by the traced run (loadgen.rtt_p50_us and
 * friends), without a bound.
 */

#include <unistd.h>

#include <cstdio>

#include "container/container.h"
#include "load.h"
#include "measure.h"

namespace fleetbench
{

namespace
{

std::string
socketPath(const RunConfig &config, const char *tag)
{
    // Relative to the checkout root: sun_path holds at most 107 bytes.
    return config.outDir + "/" + tag + "-" + std::to_string(::getpid()) +
           ".sock";
}

/** Calls from the warm-up pass of small_calls. */
constexpr std::size_t kWarmupRequests = 256;

/** small_calls: calls per pair of closed-loop segments (one compress
 *  segment, one decompress segment), split in the plan's proportion. */
constexpr std::size_t kSegmentCalls = 4096;

/** Decode windows of container_decode; see bestRate. */
constexpr unsigned kDecodeWindows = 20;

/** container_decode: fewest write pairs (both inputs) per run. */
constexpr std::size_t kMinWritePairs = 3;

/** One timed slice of work and the CPU seconds it took. */
struct Slice
{
    double calls = 0;
    double rawBytes = 0;
    double cpuS = 0;
};

void
printWall(const char *phase, double calls, double raw_bytes,
          double wall_s, double cpu_s)
{
    std::printf("wall %s calls_per_s=%.1f mb_s=%.3f cpu_per_wall=%.3f\n",
                phase, calls / wall_s, raw_bytes / wall_s / 1e6,
                cpu_s / wall_s);
}

Status
runSmallCalls(const RunConfig &config, const Workload &workload,
              Metrics &metrics, Outcome &outcome)
{
    const std::string socket = socketPath(config, "cdpud");
    std::vector<Call> compress, decompress;
    for (const Call &call : workload.calls)
        (call.compresses() ? compress : decompress).push_back(call);
    if (compress.empty() || decompress.empty())
        return Status::invalid("small_calls needs calls of both directions");
    const std::size_t compress_segment = std::max<std::size_t>(
        1, kSegmentCalls * compress.size() / workload.calls.size());
    const std::size_t decompress_segment =
        std::max<std::size_t>(1, kSegmentCalls - compress_segment);

    // Set-up: CPU seconds of both processes from spawning cdpud until a
    // warm-up pass has completed.
    LoadOptions warm;
    warm.connections = kConnections;
    warm.window = kWindow;
    warm.maxRequests = kWarmupRequests;
    std::vector<double> setup;
    std::unique_ptr<DaemonProcess> daemon;
    for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
        if (daemon)
            CDPU_RETURN_IF_ERROR(daemon->stop().status());
        const double cpu0 = processCpuSeconds();
        FB_ASSIGN_OR_RETURN(daemon,
                            DaemonProcess::spawn(config.cdpudBinary,
                                                 socket, kServerWorkers));
        FB_ASSIGN_OR_RETURN(LoadResult warmed,
                            runLoad(socket, workload.calls, warm));
        const double daemon_cpu = daemon->cpuSeconds();
        if (daemon_cpu < 0)
            return Status::io("cannot read cdpud's CPU clock");
        setup.push_back(processCpuSeconds() - cpu0 + daemon_cpu);
        outcome.addPhase("warmup", warmed.sent, warmed.failed);
        outcome.mismatches += warmed.mismatches;
    }

    // Closed loop in alternating segments, each one direction's next
    // calls of the plan; both processes' CPU clocks are read around
    // every segment.
    LoadOptions closed;
    closed.connections = kConnections;
    closed.window = kWindow;
    closed.flipFirstResponseByte = config.flipFirstResponseByte;
    std::vector<Slice> compress_slices, decompress_slices;
    u64 compress_raw = 0, compress_out = 0;
    double wall_calls = 0, wall_bytes = 0, wall_cpu = 0;
    auto segment = [&](const std::vector<Call> &calls, std::size_t count,
                       std::vector<Slice> &slices,
                       const char *name) -> Status {
        closed.maxRequests = count;
        closed.firstRequest = slices.size() * count % calls.size();
        const double cpu0 = processCpuSeconds() + daemon->cpuSeconds();
        FB_ASSIGN_OR_RETURN(LoadResult r, runLoad(socket, calls, closed));
        const double cpu = processCpuSeconds() + daemon->cpuSeconds() - cpu0;
        closed.flipFirstResponseByte = false;
        outcome.addPhase(name, r.sent, r.failed);
        outcome.mismatches += r.mismatches;
        const double raw =
            static_cast<double>(r.compressRawBytes + r.decompressRawBytes);
        slices.push_back({static_cast<double>(r.ok), raw, cpu});
        compress_raw += r.compressRawBytes;
        compress_out += r.compressOutBytes;
        wall_calls += static_cast<double>(r.ok);
        wall_bytes += raw;
        wall_cpu += cpu;
        return Status::okStatus();
    };
    config.quiet->wait();
    const auto start = Clock::now();
    do {
        CDPU_RETURN_IF_ERROR(segment(compress, compress_segment,
                                     compress_slices, "closed_compress"));
        CDPU_RETURN_IF_ERROR(segment(decompress, decompress_segment,
                                     decompress_slices,
                                     "closed_decompress"));
    } while (secondsBetween(start, Clock::now()) < config.seconds);
    printWall("closed_loop", wall_calls, wall_bytes,
              secondsBetween(start, Clock::now()), wall_cpu);

    FB_ASSIGN_OR_RETURN(double peak_mib, daemon->stop());

    std::vector<double> calls_cpu_s, compress_mb_cpu_s, decompress_mb_cpu_s;
    for (std::size_t i = 0; i < compress_slices.size(); ++i) {
        const Slice &c = compress_slices[i], &d = decompress_slices[i];
        calls_cpu_s.push_back((c.calls + d.calls) / (c.cpuS + d.cpuS));
        compress_mb_cpu_s.push_back(c.rawBytes / c.cpuS / 1e6);
        decompress_mb_cpu_s.push_back(d.rawBytes / d.cpuS / 1e6);
    }
    metrics.set("calls_per_cpu_s", bestRate(calls_cpu_s), "calls/cpu-s");
    metrics.set("compress_mb_per_cpu_s", bestRate(compress_mb_cpu_s),
                "MB/cpu-s");
    metrics.set("decompress_mb_per_cpu_s", bestRate(decompress_mb_cpu_s),
                "MB/cpu-s");
    metrics.set("compression_ratio",
                static_cast<double>(compress_raw) /
                    static_cast<double>(compress_out),
                "ratio");
    metrics.set("setup_s", median(setup), "s");
    metrics.set("peak_rss_mib", peak_mib, "MiB");
    return Status::okStatus();
}

/** One direction of every call as a replay stream. */
hcb::CallStream
streamOf(std::vector<Call> &calls, codec::Direction direction)
{
    hcb::CallStream stream;
    for (Call &call : calls) {
        Bytes &payload =
            direction == codec::Direction::compress ? call.raw : call.frame;
        stream.append(call.codec, direction, std::move(payload), call.level,
                      call.windowLog);
    }
    return stream;
}

/** Counts outcomes whose output hash differs from @p expected. */
u64
countMismatches(const serve::ReplayReport &report,
                const std::vector<u64> &expected)
{
    u64 bad = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const serve::CallOutcome &o = report.outcomes[i];
        bad += !o.executed || !o.ok || o.outputHash != expected[i];
    }
    return bad;
}

Status
runBulk(const RunConfig &config, Workload &workload, Metrics &metrics,
        Outcome &outcome)
{
    // Outputs are checked through FNV-1a-64 over every output byte:
    // compressed frames against the reference frames, decompressed
    // bytes against the original inputs.
    std::vector<u64> frame_hash, raw_hash;
    u64 raw_bytes = 0, frame_bytes = 0;
    for (const Call &call : workload.calls) {
        frame_hash.push_back(serve::fnv1a(call.frame));
        raw_hash.push_back(serve::fnv1a(call.raw));
        raw_bytes += call.raw.size();
        frame_bytes += call.frame.size();
    }
    if (config.flipFirstResponseByte) {
        // Self-test: a reference one byte off must fail the gate.
        Bytes flipped = workload.calls[0].raw;
        flipped[0] ^= 0x01;
        raw_hash[0] = serve::fnv1a(flipped);
    }
    // Warm-up pass: the first 64 KiB of each codec's first call, both
    // directions.
    std::vector<Call> warm_calls;
    for (const Call &call : workload.calls) {
        bool seen = false;
        for (const Call &w : warm_calls)
            seen |= w.codec == call.codec;
        if (seen)
            continue;
        Call w = call;
        w.raw.resize(std::min<std::size_t>(w.raw.size(), 64 * kKiB));
        const codec::CodecParams params =
            codec::registry(w.codec).caps.clamp(w.level, w.windowLog);
        CDPU_RETURN_IF_ERROR(
            codec::compressInto(w.codec, w.raw, params, w.frame));
        warm_calls.push_back(std::move(w));
    }
    hcb::CallStream warm;
    for (const Call &w : warm_calls) {
        warm.append(w.codec, codec::Direction::compress, w.raw, w.level,
                    w.windowLog);
        warm.append(w.codec, codec::Direction::decompress, w.frame,
                    w.level, w.windowLog);
    }
    // The streams take the pool's bytes; the hashes above check them.
    const double calls = static_cast<double>(workload.calls.size());
    const hcb::CallStream compress =
        streamOf(workload.calls, codec::Direction::compress);
    const hcb::CallStream decompress =
        streamOf(workload.calls, codec::Direction::decompress);
    const serve::EngineConfig engine_config = engineConfigFor(workload);

    // peak_rss_mib holds the resident inputs (about 115 MiB of the
    // figure) beside what the engine adds. The engine's share alone, a
    // peak over the RSS at this point, moved by a third from run to run
    // with which worker ran which call (glibc caches freed buffers per
    // worker arena, and the peak depends on which large calls overlap).
    resetPeakRss();
    std::vector<double> setup;
    for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
        const double cpu0 = processCpuSeconds();
        serve::ReplayEngine engine(engine_config);
        const serve::ReplayReport report = engine.run(warm);
        setup.push_back(processCpuSeconds() - cpu0);
        outcome.addPhase("warmup", warm.size(), report.failed);
    }

    // Compress and decompress passes alternate until the run is spent,
    // so both directions see the same stretch of the host's load.
    serve::ReplayEngine engine(engine_config);
    auto pass = [&](const hcb::CallStream &stream,
                    const std::vector<u64> &expected, const char *name,
                    double &wall_s) {
        const double cpu0 = processCpuSeconds();
        const serve::ReplayReport report = engine.run(stream);
        const double cpu = processCpuSeconds() - cpu0;
        wall_s += report.elapsedSeconds;
        const u64 bad = countMismatches(report, expected);
        outcome.mismatches += bad;
        outcome.addPhase(name, stream.size(), bad);
        return cpu;
    };
    std::vector<double> calls_cpu_s, compress_mb_cpu_s, decompress_mb_cpu_s;
    double compress_wall = 0, decompress_wall = 0;
    double compress_cpu = 0, decompress_cpu = 0;
    const double mb = static_cast<double>(raw_bytes) / 1e6;
    config.quiet->wait();
    const auto start = Clock::now();
    do {
        const double c = pass(compress, frame_hash, "compress", compress_wall);
        const double d =
            pass(decompress, raw_hash, "decompress", decompress_wall);
        calls_cpu_s.push_back(2 * calls / (c + d));
        compress_mb_cpu_s.push_back(mb / c);
        decompress_mb_cpu_s.push_back(mb / d);
        compress_cpu += c;
        decompress_cpu += d;
    } while (secondsBetween(start, Clock::now()) < config.seconds);
    const double passes = static_cast<double>(calls_cpu_s.size());
    printWall("compress", passes * calls, passes * mb * 1e6, compress_wall,
              compress_cpu);
    printWall("decompress", passes * calls, passes * mb * 1e6,
              decompress_wall, decompress_cpu);

    metrics.set("calls_per_cpu_s", bestRate(calls_cpu_s), "calls/cpu-s");
    metrics.set("compress_mb_per_cpu_s", bestRate(compress_mb_cpu_s),
                "MB/cpu-s");
    metrics.set("decompress_mb_per_cpu_s", bestRate(decompress_mb_cpu_s),
                "MB/cpu-s");
    metrics.set("compression_ratio",
                static_cast<double>(raw_bytes) /
                    static_cast<double>(frame_bytes),
                "ratio");
    metrics.set("setup_s", median(setup), "s");
    metrics.set("peak_rss_mib", peakRssMib(), "MiB");
    return Status::okStatus();
}

Status
runContainerDecode(const RunConfig &config, const Workload &workload,
                   Metrics &metrics, Outcome &outcome)
{
    // zstdlite frames take two of every three requests (ZStd
    // decompression takes more fleet cycles than Snappy's, Figure 1),
    // so the median request is a zstdlite decode.
    const std::vector<const Container *> schedule = {
        &workload.containers[0], &workload.containers[0],
        &workload.containers[1]};

    // peak_rss_mib is what decoding and writing add to the resident
    // inputs.
    resetPeakRss();
    const double rss_base = currentRssMib();
    std::vector<double> setup;
    for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
        const double cpu0 = processCpuSeconds();
        Bytes out;
        for (const Container &c : workload.containers)
            CDPU_RETURN_IF_ERROR(
                container::decodeParallel(c.frame, kServerWorkers, out));
        setup.push_back(processCpuSeconds() - cpu0);
        outcome.addPhase("warmup", workload.containers.size(), 0);
    }

    // Each round decodes the schedule once, then writes one input with
    // container::write, the workload's compress side, alternating the
    // two inputs. Writes and decodes so sample the same stretches of
    // the host's load; a single-threaded write ran up to a third faster
    // on some CPUs than on others for a second or more at a time.
    Bytes out;
    std::vector<Slice> decodes, writes;
    u64 decode_bad = 0, write_bad = 0;
    double decode_wall = 0;
    config.quiet->wait();
    const auto start = Clock::now();
    for (std::size_t round = 0;
         writes.size() < 2 * kMinWritePairs ||
         secondsBetween(start, Clock::now()) < config.seconds;
         ++round) {
        const auto decode_start = Clock::now();
        for (const Container *c : schedule) {
            const double cpu0 = processCpuSeconds();
            CDPU_RETURN_IF_ERROR(
                container::decodeParallel(c->frame, kServerWorkers, out));
            decodes.push_back({1, static_cast<double>(c->raw.size()),
                               processCpuSeconds() - cpu0});
            if (decodes.size() == 1 && config.flipFirstResponseByte)
                out[0] ^= 0x01; // Self-test: the gate must catch this.
            decode_bad += out != c->raw;
        }
        decode_wall += secondsBetween(decode_start, Clock::now());
        const Container &c = workload.containers[round % 2];
        const double cpu0 = processCpuSeconds();
        CDPU_RETURN_IF_ERROR(container::write(
            c.codec, c.raw, container::WriteOptions{}, out));
        writes.push_back({1, static_cast<double>(c.raw.size()),
                          processCpuSeconds() - cpu0});
        write_bad += out != c.frame;
    }
    outcome.mismatches += decode_bad + write_bad;
    outcome.addPhase("decode", decodes.size(), decode_bad);
    outcome.addPhase("write", writes.size(), write_bad);

    // Write speed over each pair of writes (both inputs).
    std::vector<double> write_mb_cpu_s;
    for (std::size_t i = 0; i + 1 < writes.size(); i += 2)
        write_mb_cpu_s.push_back(
            (writes[i].rawBytes + writes[i + 1].rawBytes) /
            (writes[i].cpuS + writes[i + 1].cpuS) / 1e6);
    double in = 0, framed = 0;
    for (const Container &c : workload.containers) {
        in += static_cast<double>(c.raw.size());
        framed += static_cast<double>(c.frame.size());
    }

    // The better quartile over kDecodeWindows runs of consecutive
    // rounds' decodes.
    std::vector<double> calls_cpu_s, mb_cpu_s;
    const std::size_t per_window =
        std::max<std::size_t>(
            1, decodes.size() / (kDecodeWindows * schedule.size())) *
        schedule.size();
    for (std::size_t first = 0; first + per_window <= decodes.size();
         first += per_window) {
        Slice window;
        for (std::size_t i = first; i < first + per_window; ++i) {
            window.calls += decodes[i].calls;
            window.rawBytes += decodes[i].rawBytes;
            window.cpuS += decodes[i].cpuS;
        }
        calls_cpu_s.push_back(window.calls / window.cpuS);
        mb_cpu_s.push_back(window.rawBytes / window.cpuS / 1e6);
    }
    Slice all;
    for (const Slice &d : decodes) {
        all.rawBytes += d.rawBytes;
        all.cpuS += d.cpuS;
    }
    printWall("decode", static_cast<double>(decodes.size()), all.rawBytes,
              decode_wall, all.cpuS);
    metrics.set("calls_per_cpu_s", bestRate(calls_cpu_s), "calls/cpu-s");
    metrics.set("compress_mb_per_cpu_s", bestRate(write_mb_cpu_s),
                "MB/cpu-s");
    metrics.set("decompress_mb_per_cpu_s", bestRate(mb_cpu_s), "MB/cpu-s");
    metrics.set("compression_ratio", in / framed, "ratio");
    metrics.set("setup_s", median(setup), "s");
    metrics.set("peak_rss_mib", peakRssMib() - rss_base, "MiB");
    return Status::okStatus();
}

} // namespace

serve::EngineConfig
engineConfigFor(const Workload &workload)
{
    serve::EngineConfig config;
    config.workers = kServerWorkers;
    // Bulk calls are large enough that one call per queue item keeps
    // both workers busy to the end; small calls amortize queue traffic.
    config.batchSize = workload.name == "bulk" ? 1 : 8;
    return config;
}

Status
runEndToEnd(const RunConfig &config, Workload &workload,
            Metrics &metrics, Outcome &outcome)
{
    if (workload.name == "small_calls")
        return runSmallCalls(config, workload, metrics, outcome);
    if (workload.name == "bulk")
        return runBulk(config, workload, metrics, outcome);
    return runContainerDecode(config, workload, metrics, outcome);
}

} // namespace fleetbench
