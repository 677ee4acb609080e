#include "workloads.h"

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "container/container.h"
#include "fleet/fleet_model.h"
#include "serve/codec_context.h"

namespace fleetbench
{

namespace
{

/** Registry stand-in for each fleet codec, as loadgen maps them. */
const char *
registryNameFor(fleet::FleetCodec algorithm)
{
    switch (algorithm) {
      case fleet::FleetCodec::snappy: return "snappy";
      case fleet::FleetCodec::zstd: return "zstdlite";
      case fleet::FleetCodec::flate: return "flatelite";
      case fleet::FleetCodec::brotli: return "zstdlite";
      case fleet::FleetCodec::gipfeli: return "gipfeli";
      case fleet::FleetCodec::lzo: return "snappy";
    }
    return "snappy";
}

/** Bytes in 32 KiB runs of @p classes, cycling from class @p first:
 *  a large buffer then holds every class in equal shares, as a fleet
 *  file or RPC batch mixes record kinds. */
Bytes
classRuns(std::size_t size, const std::vector<corpus::DataClass> &classes,
          std::size_t first, Rng &rng)
{
    Bytes out;
    out.reserve(size);
    for (std::size_t run = first; out.size() < size; ++run) {
        const Bytes chunk = corpus::generate(
            classes[run % classes.size()],
            std::min<std::size_t>(32 * kKiB, size - out.size()), rng);
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

/** Picks a key of @p weights by inverse CDF at @p u in [0, 1). */
template <typename Key>
Key
inverseCdf(const std::vector<std::pair<Key, double>> &weights, double u)
{
    double total = 0;
    for (const auto &[key, weight] : weights)
        total += weight;
    double cum = 0;
    for (const auto &[key, weight] : weights) {
        cum += weight / total;
        if (u < cum)
            return key;
    }
    return weights.back().first;
}

/**
 * The call plan: coordinate d of call i is frac((i + 1) * alpha_d),
 * alpha_d = frac(sqrt(prime_d)), a Kronecker sequence. Every prefix
 * covers the unit cube evenly, so a workload holds the model's channel,
 * size and level shares almost exactly. The plan is the same for every
 * seed: rare, costly calls (ZStd levels 7 and up on MiB inputs) would
 * otherwise come and go with the seed and move a bulk run by more than
 * the changes it must resolve. The seed moves every byte of every call.
 */
double
planPoint(std::size_t i, unsigned d)
{
    static const double kAlpha[] = {
        std::sqrt(2.0) - 1, std::sqrt(3.0) - 1, std::sqrt(5.0) - 2,
        std::sqrt(7.0) - 2, std::sqrt(11.0) - 3};
    return std::fmod(static_cast<double>(i + 1) * kAlpha[d], 1.0);
}

/**
 * Draws calls from the fleet channel mix (cycle shares, Figure 1) with
 * sizes from the Figure 3 call-count distribution limited to
 * [min_bytes, max_bytes]: bins outside the range are dropped and the
 * rest renormalized, which is redrawing out-of-range sizes, not
 * clamping them, so no spike forms at a limit. ZStd-family calls take
 * Figure 2b levels and Figure 5 windows of their direction, clamped to
 * zstdlite's window range; the other codecs run at their registry
 * defaults, as the fleet model has no level or window data for them.
 * Data classes cycle through every corpus class, call by call and,
 * within a call, in 32 KiB runs. Stops at @p max_calls calls or
 * @p max_total raw bytes.
 */
Result<std::vector<Call>>
drawCalls(u64 seed, std::size_t min_bytes, std::size_t max_bytes,
          std::size_t max_calls, std::size_t max_total)
{
    const fleet::FleetModel model;
    std::vector<std::pair<fleet::Channel, double>> channels;
    std::map<fleet::Channel, std::vector<std::pair<double, double>>> bins;
    for (fleet::FleetCodec algorithm : fleet::allFleetCodecs()) {
        for (fleet::Direction direction :
             {fleet::Direction::compress, fleet::Direction::decompress}) {
            const fleet::Channel channel{algorithm, direction};
            channels.emplace_back(channel, model.cycleShare(channel));
            // Bin b holds sizes in (2^(b-1), 2^b]; its call count is its
            // byte mass over its size, as FleetModel::sampleCallSize has.
            auto &in_range = bins[channel];
            for (const auto &[bin, bytes] :
                 model.callSizeDistribution(channel).bins())
                if (std::ldexp(1.0, static_cast<int>(bin) - 1) >=
                        static_cast<double>(min_bytes) &&
                    std::ldexp(1.0, static_cast<int>(bin)) <=
                        static_cast<double>(max_bytes))
                    in_range.emplace_back(bin, bytes / std::ldexp(1.0, bin));
            if (in_range.empty())
                return Status::invalid("no call-size bin of " +
                                       channel.name() + " is in range");
        }
    }
    std::vector<std::pair<int, double>> levels(
        model.zstdLevelDistribution().begin(),
        model.zstdLevelDistribution().end());
    std::map<fleet::Direction, std::vector<std::pair<double, double>>>
        windows;
    for (fleet::Direction direction :
         {fleet::Direction::compress, fleet::Direction::decompress}) {
        const auto &bins = model.windowSizeDistribution(direction).bins();
        windows[direction].assign(bins.begin(), bins.end());
    }

    const auto classes = corpus::allDataClasses();
    Rng rng(seed);
    std::vector<Call> calls;
    std::size_t total = 0;
    for (std::size_t i = 0; calls.size() < max_calls && total < max_total;
         ++i) {
        const fleet::Channel channel = inverseCdf(channels, planPoint(i, 0));
        const double bin = inverseCdf(bins.at(channel), planPoint(i, 1));
        // Log-uniform within the bin's (2^(b-1), 2^b].
        const std::size_t size =
            1 + static_cast<std::size_t>(std::ldexp(
                    std::pow(2.0, planPoint(i, 2)), static_cast<int>(bin) - 1));
        FB_ASSIGN_OR_RETURN(
            codec::CodecId id,
            codec::codecFromName(registryNameFor(channel.algorithm)));
        const bool zstd_family =
            channel.algorithm == fleet::FleetCodec::zstd ||
            channel.algorithm == fleet::FleetCodec::brotli;
        Call call;
        call.codec = id;
        call.direction = channel.direction == fleet::Direction::compress
                             ? codec::Direction::compress
                             : codec::Direction::decompress;
        const codec::CodecCaps &caps = codec::registry(id).caps;
        const codec::CodecParams params =
            zstd_family
                ? caps.clamp(inverseCdf(levels, planPoint(i, 3)),
                             static_cast<unsigned>(inverseCdf(
                                 windows.at(channel.direction),
                                 planPoint(i, 4))))
                : caps.clamp(caps.defaultLevel, caps.defaultWindowLog);
        call.level = params.level;
        call.windowLog = params.windowLog;
        call.raw = classRuns(size, classes, i, rng);
        total += size;
        calls.push_back(std::move(call));
    }
    return calls;
}

/**
 * Fills every call's reference frame by a local serve::CodecContext
 * execution, the path the daemon's and the engine's workers take, and
 * checks that the frame decodes back to the call's bytes. Spread over
 * the host's cores.
 */
Status
computeFrames(std::vector<Call> &calls)
{
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<Status> status(threads, Status::okStatus());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            serve::CodecContext context;
            for (std::size_t i = t; i < calls.size(); i += threads) {
                Call &call = calls[i];
                hcb::ReplayCall reference;
                reference.codec = call.codec;
                reference.level = call.level;
                reference.windowLog = call.windowLog;
                reference.direction = codec::Direction::compress;
                reference.payload = call.raw;
                ByteSpan out;
                status[t] = context.execute(reference, out);
                if (!status[t].ok())
                    return;
                call.frame.assign(out.begin(), out.end());
                reference.direction = codec::Direction::decompress;
                reference.payload = call.frame;
                status[t] = context.execute(reference, out);
                if (status[t].ok() &&
                    !std::equal(out.begin(), out.end(), call.raw.begin(),
                                call.raw.end()))
                    status[t] = Status::internal(
                        "reference frame does not decode to its input");
                if (!status[t].ok())
                    return;
            }
        });
    for (auto &thread : pool)
        thread.join();
    for (const Status &s : status)
        CDPU_RETURN_IF_ERROR(s);
    return Status::okStatus();
}

Result<Workload>
makeContainerDecode(u64 seed, const Sizing &sizing)
{
    Workload workload;
    workload.name = "container_decode";
    Rng rng(seed);
    for (const char *name : {"zstdlite", "snappy"}) {
        FB_ASSIGN_OR_RETURN(codec::CodecId id,
                              codec::codecFromName(name));
        Container c;
        c.codec = id;
        c.raw = classRuns(sizing.containerBytes,
                          corpus::fleetDataClasses(), 0, rng);
        CDPU_RETURN_IF_ERROR(container::write(
            id, ByteSpan(c.raw), container::WriteOptions{}, c.frame));

        // Each block is one codec frame: the layer walk's calls.
        FB_ASSIGN_OR_RETURN(container::FrameIndex index,
                              container::parseIndex(ByteSpan(c.frame)));
        const codec::CodecCaps &caps = codec::registry(id).caps;
        std::size_t regen = 0;
        for (const container::BlockEntry &block : index.blocks) {
            Call call;
            call.codec = id;
            call.direction = codec::Direction::decompress;
            call.level = caps.defaultLevel;
            call.windowLog = caps.defaultWindowLog;
            call.raw.assign(c.raw.begin() + regen,
                            c.raw.begin() + regen + block.regenSize);
            const auto first = c.frame.begin() + index.dataStart +
                               static_cast<std::ptrdiff_t>(block.offset);
            call.frame.assign(first, first + block.compSize);
            regen += block.regenSize;
            workload.calls.push_back(std::move(call));
        }
        workload.containers.push_back(std::move(c));
    }
    return workload;
}

std::string
histogramJson(const std::map<int, u64> &histogram)
{
    std::string out = "{";
    for (const auto &[key, count] : histogram)
        out += (out.size() > 1 ? ", \"" : "\"") + std::to_string(key) +
               "\": " + std::to_string(count);
    return out + "}";
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"small_calls", "bulk", "container_decode"};
}

Result<Workload>
makeWorkload(const std::string &name, u64 seed, const Sizing &sizing)
{
    if (name == "container_decode")
        return makeContainerDecode(seed, sizing);
    Workload workload;
    workload.name = name;
    if (name == "small_calls") {
        FB_ASSIGN_OR_RETURN(
            workload.calls,
            drawCalls(seed, 64, 4 * kKiB, sizing.smallCalls,
                      ~std::size_t{0}));
    } else if (name == "bulk") {
        FB_ASSIGN_OR_RETURN(
            workload.calls, drawCalls(seed, 64 * kKiB, 4 * kMiB,
                                      ~std::size_t{0}, sizing.bulkBytes));
    } else {
        return Status::invalid("unknown workload " + name);
    }
    CDPU_RETURN_IF_ERROR(computeFrames(workload.calls));
    return workload;
}

std::string
describeWorkload(const Workload &workload)
{
    // Sizes bin by ceil(log2(bytes)), as Figure 3 bins them.
    std::map<int, u64> sizes, levels, windows;
    std::map<std::string, u64> codecs;
    u64 compress = 0, raw_bytes = 0;
    for (const Call &call : workload.calls) {
        ++sizes[static_cast<int>(
            std::ceil(std::log2(static_cast<double>(call.raw.size()))))];
        if (call.codec == codec::CodecId::zstdlite) {
            ++levels[call.level];
            ++windows[static_cast<int>(call.windowLog)];
        }
        ++codecs[codec::codecName(call.codec) + "." +
                 codec::directionName(call.direction)];
        compress += call.compresses();
        raw_bytes += call.raw.size();
    }
    std::string codec_mix = "{";
    for (const auto &[name, count] : codecs)
        codec_mix += (codec_mix.size() > 1 ? ", \"" : "\"") + name +
                     "\": " + std::to_string(count);
    codec_mix += "}";
    return "{\"calls\": " + std::to_string(workload.calls.size()) +
           ", \"raw_bytes\": " + std::to_string(raw_bytes) +
           ", \"compress_calls\": " + std::to_string(compress) +
           ", \"containers\": " +
           std::to_string(workload.containers.size()) +
           ", \"codec_calls\": " + codec_mix +
           ", \"call_size_log2_histogram\": " + histogramJson(sizes) +
           ", \"zstdlite_level_histogram\": " + histogramJson(levels) +
           ", \"zstdlite_window_log_histogram\": " +
           histogramJson(windows) + "}";
}

} // namespace fleetbench
