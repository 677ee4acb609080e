/**
 * @file
 * The traced run (trace 1): the workload's calls walked down the stack,
 * one layer at a time, with a span around every call the benchmark
 * makes into a layer. A layer's cost is its time minus the time of the
 * layer below it on the same calls:
 *
 *   cdpud (serve::Daemon over a unix socket, serve::DaemonClient)
 *     -> serve::ReplayEngine
 *       -> codec::compressInto / decompressInto
 *         -> stage kernels (lz77 parse, Huffman and FSE coding,
 *            zstdlite section decoders)
 *   container::decodeParallel -> container::decodeSequential
 */

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "baseline/xeon_cost_model.h"
#include "common/bitio.h"
#include "common/varint.h"
#include "container/container.h"
#include "flatelite/compress.h"
#include "fleet/fleet_model.h"
#include "fse/decoder.h"
#include "fse/encoder.h"
#include "gipfeli/gipfeli.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "lz77/match_finder.h"
#include "load.h"
#include "measure.h"
#include "serve/daemon.h"
#include "snappy/compress.h"
#include "zstdlite/compress.h"
#include "zstdlite/literals.h"
#include "zstdlite/sequences.h"

namespace fleetbench
{

namespace
{

constexpr std::size_t kNone = SpanLog::kNoParent;

/** Walk sample: the first calls of the workload, bounded so the traced
 *  run stays within its time budget on every workload. */
std::vector<Call>
sampleOf(const Workload &workload)
{
    constexpr std::size_t kMaxCalls = 2000;
    constexpr std::size_t kMaxBytes = 4 * kMiB;
    std::vector<Call> sample;
    std::size_t bytes = 0;
    for (const Call &call : workload.calls) {
        if (sample.size() == kMaxCalls || bytes >= kMaxBytes)
            break;
        sample.push_back(call);
        bytes += call.raw.size();
    }
    return sample;
}

double
mbPerS(double bytes, double ns)
{
    return ns > 0 ? bytes / ns * 1e3 : 0.0;
}

/** Times @p fn and records it as span @p name; returns elapsed ns. */
template <typename Fn>
u64
timed(SpanLog &spans, const std::string &name, u64 request,
      std::size_t parent, Fn &&fn, std::size_t *span_out = nullptr)
{
    const u64 start = nowNs();
    fn();
    const u64 end = nowNs();
    const std::size_t span = spans.add(name, start, end, request, parent);
    if (span_out)
        *span_out = span;
    return end - start;
}

bool
sameBytes(ByteSpan a, ByteSpan b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/** Checks a layer result, counting the operation. */
void
tally(Outcome &outcome, const std::string &phase, bool ok)
{
    outcome.addPhase(phase, 1, ok ? 0 : 1);
    outcome.mismatches += ok ? 0 : 1;
}

// --- cdpud -----------------------------------------------------------------

struct DaemonLayer
{
    std::vector<std::size_t> requestSpan; ///< Per sample call.
    double usPerCall = 0;                 ///< Worker-us per call.
};

Status
walkDaemon(const RunConfig &config, const std::vector<Call> &sample,
           Metrics &metrics, Outcome &outcome, SpanLog &spans,
           DaemonLayer &layer)
{
    serve::DaemonConfig dc;
    dc.unixPath = config.outDir + "/walk-" + std::to_string(::getpid()) +
                  ".sock";
    dc.workers = kServerWorkers;
    serve::Daemon daemon(dc);
    CDPU_RETURN_IF_ERROR(daemon.start());

    // One request at a time: RTT = wire + reader + queue + service.
    LoadOptions sync;
    sync.connections = 1;
    sync.window = 1;
    sync.maxRequests = sample.size();
    sync.recordSpans = true;
    FB_ASSIGN_OR_RETURN(LoadResult one, runLoad(dc.unixPath, sample, sync));
    const obs::HistogramSnapshot after_sync =
        daemon.counters().histogramAt("serve.latency_ns");
    layer.requestSpan.assign(sample.size(), kNone);
    for (const LoadResult::Span &s : one.spans)
        layer.requestSpan[s.request] =
            spans.add("daemon.request", s.startNs, s.endNs, s.request);
    outcome.addPhase("daemon.sync", one.sent, one.failed);
    outcome.mismatches += one.mismatches;
    metrics.set("serve.daemon.latency_p50_us",
                after_sync.percentile(0.50) / 1e3, "us");
    metrics.set("serve.daemon.latency_p99_us",
                after_sync.percentile(0.99) / 1e3, "us");
    metrics.set("serve.wire.rtt_over_daemon_us",
                quantile(rttUs(one.responses), 0.50) -
                    after_sync.percentile(0.50) / 1e3,
                "us");

    // Closed loop for capacity.
    LoadOptions closed;
    closed.connections = kConnections;
    closed.window = kWindow;
    closed.seconds = 0.5;
    closed.recordSpans = true;
    std::vector<double> per_call_s, busy, calls_per_s;
    for (int rep = 0; rep < 3; ++rep) {
        FB_ASSIGN_OR_RETURN(LoadResult r,
                            runLoad(dc.unixPath, sample, closed));
        outcome.addPhase("daemon.closed_loop", r.sent, r.failed);
        outcome.mismatches += r.mismatches;
        per_call_s.push_back(r.seconds / static_cast<double>(r.ok));
        for (const LoadResult::Span &s : r.spans)
            spans.add("daemon.closed_loop_request", s.startNs, s.endNs,
                      s.request % sample.size());
        busy.push_back(static_cast<double>(r.serviceNs) / 1e9 /
                       (r.seconds * kServerWorkers));
        calls_per_s.push_back(static_cast<double>(r.ok) / r.seconds);
    }
    layer.usPerCall = median(per_call_s) * kServerWorkers * 1e6;
    metrics.set("serve.daemon.busy_frac", median(busy), "fraction");
    metrics.set("serve.daemon.calls_per_s", median(calls_per_s), "calls/s");

    // Open loop at half the measured capacity: RTT from each request's
    // due send time, and how late the sender ran.
    LoadOptions open;
    open.connections = kConnections;
    open.rate = 0.5 * median(calls_per_s);
    open.seconds = 1.0;
    FB_ASSIGN_OR_RETURN(LoadResult ol, runLoad(dc.unixPath, sample, open));
    outcome.addPhase("daemon.open_loop", ol.sent, ol.failed);
    outcome.mismatches += ol.mismatches;
    metrics.set("loadgen.lag_p99_us", quantile(ol.lagUs, 0.99), "us");
    const std::vector<double> rtt = rttUs(ol.responses);
    metrics.set("loadgen.rtt_p50_us", quantile(rtt, 0.50), "us");
    metrics.set("loadgen.rtt_p99_us", quantile(rtt, 0.99), "us");

    const serve::DaemonReport report = daemon.drain();
    const u64 rejected = report.dropped + report.quotaRejected +
                         report.deadlineRejected + report.malformed;
    metrics.set("serve.daemon.rejected_frac",
                report.requests ? static_cast<double>(rejected) /
                                      static_cast<double>(report.requests)
                                : 0.0,
                "fraction");
    return Status::okStatus();
}

// --- serve::ReplayEngine and the codec calls it makes ----------------------

Status
walkEngine(const Workload &workload, const std::vector<Call> &sample,
           const DaemonLayer &daemon, Metrics &metrics, Outcome &outcome,
           SpanLog &spans, std::vector<std::size_t> &codec_span)
{
    // The codec call each request makes, alone and in order. A first
    // pass warms caches and buffers as the engine's repeated runs are
    // warm. Then passes without spans and passes with a span around
    // every call alternate: their wall times give the tracing overhead.
    // The last traced pass records into the run's log and times the
    // codec layer.
    codec_span.assign(sample.size(), kNone);
    Bytes out;
    auto pass = [&](SpanLog *log) {
        double total_ns = 0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const Call &call = sample[i];
            const codec::CodecParams params =
                codec::registry(call.codec).caps.clamp(call.level,
                                                       call.windowLog);
            Status status;
            auto run = [&] {
                status = call.compresses()
                             ? codec::compressInto(call.codec, call.raw,
                                                   params, out)
                             : codec::decompressInto(call.codec,
                                                     call.frame, out);
            };
            if (log)
                total_ns += static_cast<double>(
                    timed(*log, "codec.request", i, daemon.requestSpan[i],
                          run, &codec_span[i]));
            else
                run();
            tally(outcome, "codec.call",
                  status.ok() && sameBytes(out, call.expected()));
        }
        return total_ns;
    };
    pass(nullptr);
    constexpr int kOverheadReps = 11;
    std::vector<double> plain_ns, traced_ns;
    double codec_ns = 0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        SpanLog scratch;
        SpanLog &log = rep + 1 == kOverheadReps ? spans : scratch;
        for (bool traced : {rep % 2 == 0, rep % 2 != 0}) {
            const u64 start = nowNs();
            const double ns = pass(traced ? &log : nullptr);
            (traced ? traced_ns : plain_ns)
                .push_back(static_cast<double>(nowNs() - start));
            if (traced)
                codec_ns = ns;
        }
    }
    metrics.set("trace.overhead_frac",
                median(traced_ns) / median(plain_ns) - 1.0, "fraction");

    hcb::CallStream stream;
    std::vector<u64> expected;
    for (const Call &call : sample) {
        const ByteSpan payload = call.payload();
        stream.append(call.codec, call.direction,
                      Bytes(payload.begin(), payload.end()), call.level,
                      call.windowLog);
        expected.push_back(serve::fnv1a(call.expected()));
    }
    serve::ReplayEngine engine(engineConfigFor(workload));
    std::vector<double> wall;
    double steals = 0, batches = 0;
    for (int rep = 0; rep < 3; ++rep) {
        serve::ReplayReport report;
        timed(spans, "engine.replay", SpanLog::kNoRequest, kNone,
              [&] { report = engine.run(stream); });
        wall.push_back(report.elapsedSeconds);
        steals += static_cast<double>(report.runtime.at("serve.steals"));
        batches += static_cast<double>(report.runtime.at("serve.batches"));
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const serve::CallOutcome &o = report.outcomes[i];
            tally(outcome, "engine.call",
                  o.executed && o.ok && o.outputHash == expected[i]);
        }
    }
    const double n = static_cast<double>(sample.size());
    const double engine_us = median(wall) * kServerWorkers * 1e6 / n;
    metrics.set("serve.engine.us_over_codec", engine_us - codec_ns / 1e3 / n,
                "us");
    metrics.set("serve.engine.busy_frac",
                codec_ns / 1e9 / (median(wall) * kServerWorkers), "fraction");
    metrics.set("serve.engine.steals_per_batch",
                batches > 0 ? steals / batches : 0.0, "ratio");
    metrics.set("serve.daemon.us_over_engine", daemon.usPerCall - engine_us,
                "us");
    return Status::okStatus();
}

// --- codec::compressInto / decompressInto, every base codec ----------------

/** The per-format entry point the registry dispatches to. */
void
directCompress(codec::CodecId id, ByteSpan input,
               const codec::CodecParams &params, Bytes &out)
{
    switch (codec::terminalBase(id)) {
      case codec::BaseCodecId::snappy:
        snappy::compressInto(input, out);
        return;
      case codec::BaseCodecId::zstdlite: {
        zstdlite::CompressorConfig config;
        config.level = params.level;
        config.windowLog = params.windowLog;
        (void)zstdlite::compressInto(input, out, config);
        return;
      }
      case codec::BaseCodecId::flatelite: {
        flatelite::CompressorConfig config;
        config.level = params.level;
        config.windowLog = params.windowLog;
        (void)flatelite::compressInto(input, out, config);
        return;
      }
      case codec::BaseCodecId::gipfeli:
        gipfeli::compressInto(input, out);
        return;
    }
}

void
walkCodecs(const std::vector<Call> &sample, Metrics &metrics,
           Outcome &outcome, SpanLog &spans)
{
    const baseline::XeonCostModel xeon;
    double dispatch_ns = 0, dispatch_calls = 0;
    Bytes frame, direct, back;
    for (codec::CodecId id :
         {codec::CodecId::snappy, codec::CodecId::zstdlite,
          codec::CodecId::flatelite, codec::CodecId::gipfeli}) {
        const std::string name = codec::codecName(id);
        const codec::CodecCaps &caps = codec::registry(id).caps;
        double c_ns = 0, d_ns = 0, bytes = 0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const Call &call = sample[i];
            const codec::CodecParams params =
                caps.clamp(call.level, call.windowLog);
            Status c_status, d_status;
            auto viaRegistry = [&] {
                return timed(spans, "codec." + name + ".compress", i, kNone,
                             [&] {
                                 c_status = codec::compressInto(
                                     id, call.raw, params, frame);
                             });
            };
            auto viaFormat = [&] {
                return timed(
                    spans, "codec." + name + ".compress_direct", i, kNone,
                    [&] { directCompress(id, call.raw, params, direct); });
            };
            // Alternate which runs first so the second call's warm
            // caches do not count as dispatch cost.
            u64 via_registry = 0, via_format = 0;
            if (i % 2 == 0) {
                via_registry = viaRegistry();
                via_format = viaFormat();
            } else {
                via_format = viaFormat();
                via_registry = viaRegistry();
            }
            d_ns += static_cast<double>(
                timed(spans, "codec." + name + ".decompress", i, kNone,
                      [&] {
                          d_status =
                              codec::decompressInto(id, frame, back);
                      }));
            tally(outcome, "codec." + name,
                  c_status.ok() && d_status.ok() &&
                      sameBytes(back, call.raw) && sameBytes(frame, direct));
            c_ns += static_cast<double>(via_registry);
            dispatch_ns += static_cast<double>(via_registry) -
                           static_cast<double>(via_format);
            ++dispatch_calls;
            bytes += static_cast<double>(call.raw.size());
        }
        const double n = static_cast<double>(sample.size());
        for (const auto &[dir, ns] :
             {std::pair{codec::Direction::compress, c_ns},
              std::pair{codec::Direction::decompress, d_ns}}) {
            const std::string key =
                "codec." + name + "." + codec::directionName(dir);
            const double mb_s = mbPerS(bytes, ns);
            metrics.set(key + ".us_per_call", ns / 1e3 / n, "us");
            metrics.set(key + ".mb_s", mb_s, "MB/s");
            if (id == codec::CodecId::snappy ||
                id == codec::CodecId::zstdlite)
                metrics.set(key + ".xeon_gap",
                            xeon.throughputGBps(id, dir) * 1e3 / mb_s,
                            "ratio");
        }
    }
    metrics.set("codec.dispatch_us", dispatch_ns / 1e3 / dispatch_calls,
                "us");
}

// --- stage kernels -----------------------------------------------------------

/** Literal bytes of @p parse, in order (what zstdlite Huffman-codes). */
Bytes
literalsOf(const lz77::Parse &parse, ByteSpan input)
{
    Bytes literals;
    std::size_t cursor = 0;
    for (const lz77::Sequence &seq : parse.sequences) {
        literals.insert(literals.end(), input.begin() + cursor,
                        input.begin() + cursor + seq.literalLength);
        cursor += seq.literalLength + seq.matchLength;
    }
    literals.insert(literals.end(), input.begin() + parse.literalTailStart,
                    input.begin() + parse.inputSize);
    return literals;
}

struct KernelTotals
{
    double parseNs = 0, parseBytes = 0, probes = 0, matches = 0;
    double hufEncNs = 0, hufDecNs = 0, hufBytes = 0;
    double fseEncNs = 0, fseDecNs = 0, fseSymbols = 0;
    double litNs = 0, seqNs = 0, fullNs = 0, sectionBytes = 0;
};

/** Huffman round trip of @p literals under their own code table. */
void
huffmanKernel(ByteSpan literals, u64 request, std::size_t parent,
              KernelTotals &t, Outcome &outcome, SpanLog &spans)
{
    if (literals.size() < 2)
        return;
    auto table =
        huffman::buildCodeTable(huffman::countFrequencies(literals));
    if (!table.ok())
        return; // A single-symbol alphabet has no Huffman code.
    auto decoder = huffman::Decoder::build(table.value());
    if (!decoder.ok())
        return;
    BitWriter writer;
    Bytes stream, out;
    Status enc, dec;
    t.hufEncNs += static_cast<double>(
        timed(spans, "huffman.encode", request, parent, [&] {
            enc = huffman::encode(table.value(), literals, writer);
            stream = writer.finish();
        }));
    t.hufDecNs += static_cast<double>(
        timed(spans, "huffman.decode", request, kNone, [&] {
            BitReader reader(stream);
            dec = decoder.value().decode(reader, literals.size(), out);
        }));
    t.hufBytes += static_cast<double>(literals.size());
    tally(outcome, "huffman", enc.ok() && dec.ok() && sameBytes(out, literals));
}

/** FSE round trip of one sequence-code stream under its own table. */
void
fseKernel(ByteSpan symbols, std::size_t alphabet, u64 request,
          std::size_t parent, KernelTotals &t, Outcome &outcome,
          SpanLog &spans)
{
    if (symbols.size() < 2)
        return;
    std::vector<u64> freqs(alphabet, 0);
    for (u8 s : symbols)
        ++freqs[s];
    if (std::count_if(freqs.begin(), freqs.end(),
                      [](u64 f) { return f != 0; }) < 2)
        return; // One symbol needs no entropy coding.
    auto norm = fse::normalizeCounts(
        freqs, fse::suggestTableLog(freqs, symbols.size()));
    if (!norm.ok())
        return;
    auto enc_table = fse::buildEncodeTable(norm.value());
    auto dec_table = fse::buildDecodeTable(norm.value());
    if (!enc_table.ok() || !dec_table.ok())
        return;
    BitWriter writer;
    Bytes stream, out;
    bool enc_ok = false;
    Status dec;
    t.fseEncNs += static_cast<double>(
        timed(spans, "fse.encode", request, parent, [&] {
            enc_ok = fse::encodeAll(enc_table.value(), symbols, writer).ok();
            stream = writer.finish();
        }));
    t.fseDecNs += static_cast<double>(
        timed(spans, "fse.decode", request, kNone, [&] {
            auto reader = BackwardBitReader::open(stream);
            dec = reader.ok() ? fse::decodeAll(dec_table.value(),
                                               reader.value(),
                                               symbols.size(), out)
                              : reader.status();
        }));
    t.fseSymbols += static_cast<double>(symbols.size());
    tally(outcome, "fse", enc_ok && dec.ok() && sameBytes(out, symbols));
}

/**
 * Times zstdlite's two section decoders on every compressed block of
 * @p frame, walking the block layout the way zstdlite/decompress.cpp
 * does, plus the whole-frame decode for the share of time spent
 * outside them.
 */
Status
zstdliteSections(ByteSpan frame, ByteSpan raw, u64 request,
                 std::size_t parent, KernelTotals &t, Outcome &outcome,
                 SpanLog &spans)
{
    Bytes out;
    Status full;
    std::size_t frame_span = kNone;
    t.fullNs += static_cast<double>(timed(
        spans, "zstdlite.decompress", request, parent,
        [&] {
            full = codec::decompressInto(codec::CodecId::zstdlite, frame,
                                         out);
        },
        &frame_span));
    tally(outcome, "zstdlite.decompress", full.ok() && sameBytes(out, raw));

    std::size_t pos = 0;
    FB_ASSIGN_OR_RETURN(zstdlite::FrameHeader header,
                        zstdlite::readFrameHeader(frame, pos));
    (void)header;
    for (bool last = false; !last;) {
        if (pos >= frame.size())
            return Status::corrupt("zstdlite frame ends before last block");
        const u8 block_header = frame[pos++];
        last = block_header & 1;
        const auto type =
            static_cast<zstdlite::BlockType>((block_header >> 1) & 3);
        FB_ASSIGN_OR_RETURN(u64 regen, getVarint(frame, pos));
        if (type == zstdlite::BlockType::raw) {
            pos += regen;
            continue;
        }
        if (type == zstdlite::BlockType::rle) {
            ++pos;
            continue;
        }
        FB_ASSIGN_OR_RETURN(u64 body_size, getVarint(frame, pos));
        if (pos + body_size > frame.size())
            return Status::corrupt("zstdlite block body truncated");
        const ByteSpan body = frame.subspan(pos, body_size);
        pos += body_size;
        std::size_t body_pos = 0;
        bool ok = false;
        t.litNs += static_cast<double>(
            timed(spans, "zstdlite.literals", request, frame_span, [&] {
                ok = zstdlite::decodeLiteralsSection(body, body_pos, regen)
                         .ok();
            }));
        t.seqNs += static_cast<double>(
            timed(spans, "zstdlite.sequences", request, frame_span, [&] {
                ok = ok && zstdlite::decodeSequencesSection(
                               body, body_pos,
                               regen / zstdlite::kMinMatchLength + 1)
                               .ok();
            }));
        tally(outcome, "zstdlite.sections", ok && body_pos == body.size());
        t.sectionBytes += static_cast<double>(regen);
    }
    return Status::okStatus();
}

Status
walkKernels(const std::vector<Call> &sample,
            const std::vector<std::size_t> &codec_span, Metrics &metrics,
            Outcome &outcome, SpanLog &spans)
{
    // Match-finder construction at the Figure 2b levels, weighted by
    // their share of ZStd calls.
    const fleet::FleetModel model;
    double low = 0, low_w = 0, high = 0, high_w = 0;
    for (const auto &[level, weight] : model.zstdLevelDistribution()) {
        const lz77::MatchFinderConfig mf =
            zstdlite::levelParameters(level, 17);
        std::vector<double> ns;
        for (int rep = 0; rep < 5; ++rep)
            ns.push_back(static_cast<double>(
                timed(spans, "lz77.setup", SpanLog::kNoRequest, kNone,
                      [&] { lz77::MatchFinder finder(mf); })));
        (level <= 3 ? low : high) += weight * median(ns) / 1e3;
        (level <= 3 ? low_w : high_w) += weight;
    }
    metrics.set("lz77.setup_us.low", low / low_w, "us");
    metrics.set("lz77.setup_us.high", high / high_w, "us");

    KernelTotals t;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const Call &call = sample[i];
        if (call.codec != codec::CodecId::zstdlite)
            continue;
        // The stages of the call's own direction are children of its
        // codec span (parse and entropy encoders for a compress call,
        // the frame decode and its section decoders for a decompress
        // call); the other direction is measured without a parent.
        // Standalone Huffman/FSE decodes stay parentless: the section
        // decoders already cover them inside the frame decode.
        const std::size_t enc_parent =
            call.compresses() ? codec_span[i] : kNone;
        const std::size_t dec_parent =
            call.compresses() ? kNone : codec_span[i];
        const codec::CodecParams params =
            codec::registry(call.codec).caps.clamp(call.level,
                                                   call.windowLog);
        lz77::MatchFinder finder(
            zstdlite::levelParameters(params.level, params.windowLog));
        lz77::MatchFinderStats stats;
        lz77::Parse parse;
        t.parseNs += static_cast<double>(
            timed(spans, "lz77.parse", i, enc_parent,
                  [&] { parse = finder.parse(call.raw, &stats); }));
        t.parseBytes += static_cast<double>(call.raw.size());
        t.probes += static_cast<double>(stats.candidateProbes);
        t.matches += static_cast<double>(stats.matchesEmitted);
        tally(outcome, "lz77.parse",
              sameBytes(lz77::reconstruct(parse, call.raw), call.raw));

        huffmanKernel(literalsOf(parse, call.raw), i, enc_parent, t,
                      outcome, spans);
        Bytes ll, ml, of;
        for (const lz77::Sequence &seq : parse.sequences) {
            if (seq.matchLength == 0)
                continue;
            ll.push_back(zstdlite::literalLengthBin(seq.literalLength).code);
            ml.push_back(zstdlite::matchLengthBin(seq.matchLength).code);
            of.push_back(zstdlite::offsetBin(seq.offset).code);
        }
        fseKernel(ll, zstdlite::kNumLLCodes, i, enc_parent, t, outcome,
                  spans);
        fseKernel(ml, zstdlite::kNumMLCodes, i, enc_parent, t, outcome,
                  spans);
        fseKernel(of, zstdlite::kNumOFCodes, i, enc_parent, t, outcome,
                  spans);

        CDPU_RETURN_IF_ERROR(zstdliteSections(call.frame, call.raw, i,
                                              dec_parent, t, outcome,
                                              spans));
    }
    metrics.set("lz77.parse_mb_s", mbPerS(t.parseBytes, t.parseNs), "MB/s");
    metrics.set("lz77.match_yield", t.probes > 0 ? t.matches / t.probes : 0,
                "ratio");
    metrics.set("huffman.encode_mb_s", mbPerS(t.hufBytes, t.hufEncNs),
                "MB/s");
    metrics.set("huffman.decode_mb_s", mbPerS(t.hufBytes, t.hufDecNs),
                "MB/s");
    metrics.set("fse.encode_mb_s", mbPerS(t.fseSymbols, t.fseEncNs), "MB/s");
    metrics.set("fse.decode_mb_s", mbPerS(t.fseSymbols, t.fseDecNs), "MB/s");
    metrics.set("zstdlite.literals_decode_mb_s",
                mbPerS(t.sectionBytes, t.litNs), "MB/s");
    metrics.set("zstdlite.sequences_decode_mb_s",
                mbPerS(t.sectionBytes, t.seqNs), "MB/s");
    metrics.set("zstdlite.exec_share",
                t.fullNs > 0 ? (t.fullNs - t.litNs - t.seqNs) / t.fullNs : 0,
                "fraction");
    return Status::okStatus();
}

// --- container ---------------------------------------------------------------

Status
walkContainer(const Workload &workload, const std::vector<Call> &sample,
              Metrics &metrics, Outcome &outcome, SpanLog &spans)
{
    // container_decode walks its own frames; the other workloads walk
    // a zstdlite and a snappy container of their sampled input bytes.
    std::vector<Container> containers = workload.containers;
    if (containers.empty()) {
        Bytes raw;
        for (const Call &call : sample)
            raw.insert(raw.end(), call.raw.begin(), call.raw.end());
        for (codec::CodecId id :
             {codec::CodecId::zstdlite, codec::CodecId::snappy}) {
            Container c;
            c.codec = id;
            c.raw = raw;
            CDPU_RETURN_IF_ERROR(container::write(
                id, c.raw, container::WriteOptions{}, c.frame));
            containers.push_back(std::move(c));
        }
    }

    double parse_us = 0, seq_ns = 0, par_ns = 0, bytes = 0, steals = 0,
           blocks = 0;
    for (const Container &c : containers) {
        std::vector<double> parse;
        for (int rep = 0; rep < 21; ++rep)
            parse.push_back(static_cast<double>(timed(
                spans, "container.parse_index", SpanLog::kNoRequest, kNone,
                [&] { (void)container::parseIndex(c.frame); })));
        parse_us += median(parse) / 1e3;

        std::vector<double> seq, par;
        Bytes out;
        for (int rep = 0; rep < 3; ++rep) {
            Status s;
            seq.push_back(static_cast<double>(timed(
                spans, "container.decode_sequential", SpanLog::kNoRequest,
                kNone,
                [&] { s = container::decodeSequential(c.frame, out); })));
            tally(outcome, "container.sequential",
                  s.ok() && sameBytes(out, c.raw));
            container::DecodeReport report;
            par.push_back(static_cast<double>(timed(
                spans, "container.decode_parallel", SpanLog::kNoRequest,
                kNone, [&] {
                    s = container::decodeParallel(c.frame, kServerWorkers,
                                                  out, {}, &report);
                })));
            tally(outcome, "container.parallel",
                  s.ok() && sameBytes(out, c.raw));
            steals += static_cast<double>(
                report.runtime.at("container.steals"));
            blocks += static_cast<double>(report.blocks);
        }
        seq_ns += median(seq);
        par_ns += median(par);
        bytes += static_cast<double>(c.raw.size());
    }
    metrics.set("container.index_parse_us",
                parse_us / static_cast<double>(containers.size()), "us");
    const double seq_mb_s = mbPerS(bytes, seq_ns);
    metrics.set("container.seq_mb_s", seq_mb_s, "MB/s");
    metrics.set("container.parallel_eff",
                mbPerS(bytes, par_ns) / (kServerWorkers * seq_mb_s),
                "fraction");
    metrics.set("container.steals_per_block",
                blocks > 0 ? steals / blocks : 0.0, "ratio");
    return Status::okStatus();
}

} // namespace

Status
runLayers(const RunConfig &config, const Workload &workload,
          Metrics &metrics, Outcome &outcome, SpanLog &spans)
{
    const std::vector<Call> sample = sampleOf(workload);
    DaemonLayer daemon;
    CDPU_RETURN_IF_ERROR(
        walkDaemon(config, sample, metrics, outcome, spans, daemon));
    std::vector<std::size_t> codec_span;
    CDPU_RETURN_IF_ERROR(walkEngine(workload, sample, daemon, metrics,
                                    outcome, spans, codec_span));
    CDPU_RETURN_IF_ERROR(
        walkKernels(sample, codec_span, metrics, outcome, spans));
    walkCodecs(sample, metrics, outcome, spans);
    return walkContainer(workload, sample, metrics, outcome, spans);
}

} // namespace fleetbench
