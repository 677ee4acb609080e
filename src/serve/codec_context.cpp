#include "serve/codec_context.h"

#include "codec/registry.h"
#include "obs/span.h"

namespace cdpu::serve
{

Status
CodecContext::execute(const hcb::ReplayCall &call, ByteSpan &output,
                      u64 max_output_bytes)
{
    // A codec failure must come back as a Status, never unwind a
    // serving thread — catch-all as the last line of defence even
    // though registry codecs report through Status.
    Status status = Status::okStatus();
    try {
        status = executeInto(call, max_output_bytes);
    } catch (const std::exception &e) {
        status = Status::internal(std::string("codec threw: ") + e.what());
    } catch (...) {
        status = Status::internal("codec threw a non-exception");
    }
    // Decoders refuse an over-limit claim themselves; a compressed
    // output can only be measured once it exists.
    if (status.ok() && out_.size() > max_output_bytes)
        status = Status(StatusCode::bufferTooSmall,
                        "output of " + std::to_string(out_.size()) +
                            " bytes exceeds the " +
                            std::to_string(max_output_bytes) +
                            "-byte output limit");
    if (!status.ok()) {
        // A failed call must not poison the reused scratch: streaming
        // drains accumulate partial output before the error surfaces,
        // and a stale lastOutputSize() would misreport the failure.
        // clear() keeps the capacity, so reuse stays allocation-free.
        out_.clear();
        return status;
    }
    output = ByteSpan(out_.data(), out_.size());
    return status;
}

Status
CodecContext::executeInto(const hcb::ReplayCall &call,
                          u64 max_output_bytes)
{
    const codec::CodecVTable &vtable = codec::registry(call.codec);
    const codec::CodecParams params =
        vtable.caps.clamp(call.level, call.windowLog);
    const bool compressing =
        call.direction == codec::Direction::compress;

    if (call.streaming) {
        // Session path: output accumulates across feeds, so clear the
        // reused buffer up front (the *Into entry points do their own
        // clearing).
        out_.clear();
        if (compressing) {
            auto session = vtable.makeCompressSession(params);
            return codec::compressAll(*session, call.payload,
                                      call.chunkBytes, out_);
        }
        auto session = vtable.makeDecompressSession(max_output_bytes);
        return codec::decompressAll(*session, call.payload,
                                    call.chunkBytes, out_);
    }
    // One-shot path: the codec runs as a single opaque step, so mark
    // the dispatch boundary for whatever span is tracing this call
    // (one null-pointer test when nothing listens).
    obs::annotatePhase("ctx.oneshot", call.payload.size());
    if (compressing)
        return vtable.compressInto(call.payload, params, out_);
    return vtable.decompressInto(call.payload, out_, max_output_bytes);
}

} // namespace cdpu::serve
