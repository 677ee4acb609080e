#include "flatelite/decompress.h"

#include <algorithm>

#include "common/bitio.h"
#include "common/varint.h"
#include "huffman/code_builder.h"
#include "huffman/decoder.h"

namespace cdpu::flatelite
{

Result<FrameHeader>
peekFrameHeader(ByteSpan data)
{
    std::size_t pos = 0;
    return readFrameHeader(data, pos);
}

namespace
{

std::vector<u8>
unpackLengths(ByteSpan packed, std::size_t count)
{
    std::vector<u8> lengths(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
        u8 byte = packed[i / 2];
        lengths[i] = (i % 2) ? (byte >> 4) : (byte & 0x0f);
    }
    return lengths;
}

} // namespace

Status
decompressInto(ByteSpan data, Bytes &out, FileTrace *trace,
               u64 max_output_bytes)
{
    out.clear();
    std::size_t pos = 0;
    auto header = readFrameHeader(data, pos);
    if (!header.ok())
        return header.status();
    CDPU_RETURN_IF_ERROR(
        checkOutputClaim(header.value().contentSize, max_output_bytes));
    const u64 window = 1ull << header.value().windowLog;

    if (trace) {
        *trace = FileTrace{};
        trace->contentSize = header.value().contentSize;
        trace->compressedSize = data.size();
    }

    // Reserve conservatively: the claimed size is untrusted until the
    // stream fully decodes, so cap the up-front allocation.
    out.reserve(std::min<u64>(header.value().contentSize, 64 * kMiB));

    bool saw_last = false;
    while (!saw_last) {
        if (pos >= data.size())
            return Status::corrupt("missing flate last block");
        u8 block_header = data[pos++];
        saw_last = block_header & 1;
        bool compressed = block_header & 2;
        if (block_header > 3)
            return Status::corrupt("bad flate block header");

        auto regen = getVarint(data, pos);
        if (!regen.ok())
            return regen.status();
        if (out.size() + regen.value() > header.value().contentSize)
            return Status::corrupt("flate blocks exceed content size");
        std::size_t regen_size = regen.value();

        BlockTrace block_trace;
        block_trace.regenSize = regen_size;
        block_trace.compressed = compressed;

        if (!compressed) {
            if (pos + regen_size > data.size())
                return Status::corrupt("flate raw block truncated");
            out.insert(out.end(), data.begin() + pos,
                       data.begin() + pos + regen_size);
            pos += regen_size;
            if (trace)
                trace->blocks.push_back(std::move(block_trace));
            continue;
        }

        // Dynamic Huffman tables.
        std::size_t litlen_bytes = (kLitLenAlphabet + 1) / 2;
        std::size_t dist_bytes = kDistanceAlphabet / 2;
        if (pos + litlen_bytes + dist_bytes > data.size())
            return Status::corrupt("flate tables truncated");
        auto litlen_lengths = unpackLengths(
            data.subspan(pos, litlen_bytes), kLitLenAlphabet);
        pos += litlen_bytes;
        auto dist_lengths = unpackLengths(
            data.subspan(pos, dist_bytes), kDistanceAlphabet);
        pos += dist_bytes;

        auto litlen_codes = huffman::codesFromLengths(litlen_lengths);
        if (!litlen_codes.ok())
            return litlen_codes.status();
        auto litlen_decoder =
            huffman::Decoder::build(litlen_codes.value());
        if (!litlen_decoder.ok())
            return litlen_decoder.status();

        bool has_distances =
            std::any_of(dist_lengths.begin(), dist_lengths.end(),
                        [](u8 len) { return len != 0; });
        huffman::Decoder dist_decoder;
        if (has_distances) {
            auto dist_codes = huffman::codesFromLengths(dist_lengths);
            if (!dist_codes.ok())
                return dist_codes.status();
            auto built = huffman::Decoder::build(dist_codes.value());
            if (!built.ok())
                return built.status();
            dist_decoder = std::move(built).value();
        }

        auto stream_bytes = getVarint(data, pos);
        if (!stream_bytes.ok())
            return stream_bytes.status();
        if (pos + stream_bytes.value() > data.size())
            return Status::corrupt("flate stream truncated");
        ByteSpan stream = data.subspan(pos, stream_bytes.value());
        pos += stream_bytes.value();
        block_trace.streamBytes = stream.size();

        // The stream drives this loop up to regen_size, and zero bits
        // past its end decode as valid symbols, so the reader is
        // checked before every append, not once per block.
        BitReader reader(stream);
        std::size_t produced_before = out.size();
        std::size_t pending_literals = 0;
        for (;;) {
            const auto &symbol = litlen_decoder.value().step(reader);
            if (symbol.length == 0)
                return Status::corrupt("invalid flate code");
            if (reader.overrun())
                return Status::corrupt("flate stream truncated");
            ++block_trace.symbolCount;
            if (symbol.symbol == kEndOfBlock)
                break;
            if (symbol.symbol < 256) {
                out.push_back(static_cast<u8>(symbol.symbol));
                ++pending_literals;
                ++block_trace.literalBytes;
                if (out.size() - produced_before > regen_size)
                    return Status::corrupt("flate block overruns");
                continue;
            }
            const FlateBin len_bin = lengthFromCode(symbol.symbol);
            u32 length = len_bin.baseline +
                         static_cast<u32>(reader.read(len_bin.extraBits));

            if (!has_distances)
                return Status::corrupt("match without distance table");
            const auto &dist_symbol = dist_decoder.step(reader);
            if (dist_symbol.length == 0)
                return Status::corrupt("invalid flate code");
            ++block_trace.symbolCount;
            const FlateBin dist_bin = distanceFromCode(dist_symbol.symbol);
            u32 distance = dist_bin.baseline +
                           static_cast<u32>(reader.read(dist_bin.extraBits));
            if (reader.overrun())
                return Status::corrupt("flate stream truncated");

            if (distance == 0 || distance > out.size())
                return Status::corrupt("flate distance exceeds history");
            if (distance > window)
                return Status::corrupt("flate distance exceeds window");
            if (out.size() - produced_before + length > regen_size)
                return Status::corrupt("flate block overruns");

            lz77::Sequence seq;
            seq.literalLength = static_cast<u32>(pending_literals);
            seq.matchLength = length;
            seq.offset = distance;
            block_trace.sequences.push_back(seq);
            pending_literals = 0;

            std::size_t from = out.size() - distance;
            for (u32 i = 0; i < length; ++i)
                out.push_back(out[from + i]);
        }
        if (out.size() - produced_before != regen_size)
            return Status::corrupt("flate block size mismatch");
        if (trace)
            trace->blocks.push_back(std::move(block_trace));
    }

    if (out.size() != header.value().contentSize)
        return Status::corrupt("flate content size mismatch");
    if (pos != data.size())
        return Status::corrupt("trailing bytes after flate frame");
    return Status::okStatus();
}

Result<Bytes>
decompress(ByteSpan data, FileTrace *trace)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out, trace));
    return out;
}

} // namespace cdpu::flatelite
