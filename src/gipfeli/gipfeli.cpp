#include "gipfeli/gipfeli.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/bitio.h"
#include "common/varint.h"
#include "lz77/match_finder.h"

namespace cdpu::gipfeli
{

namespace
{

/** Three-class literal code: per-symbol class and within-class index. */
struct LiteralCode
{
    std::array<u8, 32> classA{};  ///< 6-bit symbols.
    std::array<u8, 64> classB{};  ///< 8-bit symbols.
    std::array<u8, 256> klass{};  ///< 0/1/2 per byte value.
    std::array<u8, 256> index{};  ///< Position within its class.

    void
    rebuildMaps()
    {
        klass.fill(2);
        index.fill(0);
        for (std::size_t i = 0; i < classA.size(); ++i) {
            klass[classA[i]] = 0;
            index[classA[i]] = static_cast<u8>(i);
        }
        for (std::size_t i = 0; i < classB.size(); ++i) {
            if (klass[classB[i]] == 0)
                continue; // class A wins on duplicates
            klass[classB[i]] = 1;
            index[classB[i]] = static_cast<u8>(i);
        }
    }
};

/** Builds the code from literal-byte frequencies (sampled, like
 *  Gipfeli's single-pass statistics). */
LiteralCode
buildLiteralCode(const std::vector<u64> &freqs)
{
    std::array<u16, 256> order{};
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](u16 a, u16 b) { return freqs[a] > freqs[b]; });
    LiteralCode code;
    for (std::size_t i = 0; i < 32; ++i)
        code.classA[i] = static_cast<u8>(order[i]);
    for (std::size_t i = 0; i < 64; ++i)
        code.classB[i] = static_cast<u8>(order[32 + i]);
    code.rebuildMaps();
    return code;
}

void
putLiteral(BitWriter &writer, const LiteralCode &code, u8 byte)
{
    switch (code.klass[byte]) {
      case 0:
        writer.put(0, 1);
        writer.put(code.index[byte], 5);
        break;
      case 1:
        writer.put(0b01, 2); // '10' MSB-first == 0b01 LSB-first
        writer.put(code.index[byte], 6);
        break;
      default:
        writer.put(0b11, 2);
        writer.put(byte, 8);
        break;
    }
}

/** Reads one literal; past the end every read returns 0, which still
 *  indexes a class table in range. */
u8
getLiteral(BitReader &reader, const LiteralCode &code)
{
    if (reader.read(1) == 0)
        return code.classA[reader.read(5)];
    if (reader.read(1) == 0)
        return code.classB[reader.read(6)];
    return static_cast<u8>(reader.read(8));
}

} // namespace

void
compressInto(ByteSpan input, Bytes &out)
{
    out.clear();
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    putVarint(out, input.size());

    // Parse with Snappy-like geometry (fixed 64 KiB window).
    lz77::MatchFinderConfig config;
    config.windowSize = kWindowSize - 1; // 16-bit offset field
    config.minMatchLength = kMinMatch;
    config.maxMatchLength = kMaxMatch;
    config.hashTable.log2Entries = 14;
    lz77::MatchFinder finder(config);
    lz77::Parse parse = finder.parse(input);

    // Literal statistics over the literal bytes only.
    std::vector<u64> freqs(256, 0);
    std::size_t cursor = 0;
    for (const auto &seq : parse.sequences) {
        for (u32 i = 0; i < seq.literalLength; ++i)
            ++freqs[input[cursor + i]];
        cursor += seq.literalLength + seq.matchLength;
    }
    for (std::size_t i = parse.literalTailStart; i < input.size(); ++i)
        ++freqs[input[i]];
    LiteralCode code = buildLiteralCode(freqs);
    out.insert(out.end(), code.classA.begin(), code.classA.end());
    out.insert(out.end(), code.classB.begin(), code.classB.end());

    BitWriter writer;
    auto emit_literal_run = [&](std::size_t start, std::size_t count) {
        while (count > 0) {
            std::size_t take = std::min(count, kMaxLiteralRun);
            writer.put(0, 1); // literal-run flag
            writer.put(take - 1, 5);
            for (std::size_t i = 0; i < take; ++i)
                putLiteral(writer, code, input[start + i]);
            start += take;
            count -= take;
        }
    };

    cursor = 0;
    for (const auto &seq : parse.sequences) {
        emit_literal_run(cursor, seq.literalLength);
        cursor += seq.literalLength;
        writer.put(1, 1); // copy flag
        writer.put(seq.matchLength - kMinMatch, 6);
        writer.put(seq.offset, 16);
        cursor += seq.matchLength;
    }
    emit_literal_run(parse.literalTailStart,
                     input.size() - parse.literalTailStart);

    Bytes stream = writer.finish();
    putVarint(out, stream.size());
    out.insert(out.end(), stream.begin(), stream.end());
}

Bytes
compress(ByteSpan input)
{
    Bytes out;
    compressInto(input, out);
    return out;
}

Status
decompressInto(ByteSpan data, Bytes &out, u64 max_output_bytes)
{
    out.clear();
    std::size_t pos = 0;
    if (data.size() < kMagic.size())
        return Status::corrupt("gipfeli frame truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad gipfeli magic");
    }
    auto content_size = getVarint(data, pos);
    if (!content_size.ok())
        return content_size.status();
    CDPU_RETURN_IF_ERROR(
        checkOutputClaim(content_size.value(), max_output_bytes));

    if (pos + 96 > data.size())
        return Status::corrupt("gipfeli literal tables truncated");
    LiteralCode code;
    std::copy_n(data.begin() + pos, 32, code.classA.begin());
    pos += 32;
    std::copy_n(data.begin() + pos, 64, code.classB.begin());
    pos += 64;
    code.rebuildMaps();

    auto stream_bytes = getVarint(data, pos);
    if (!stream_bytes.ok())
        return stream_bytes.status();
    if (pos + stream_bytes.value() != data.size())
        return Status::corrupt("gipfeli stream length mismatch");
    BitReader reader(data.subspan(pos, stream_bytes.value()));

    // Reserve conservatively: the claimed size is untrusted until the
    // stream fully decodes, so cap the up-front allocation.
    out.reserve(std::min<u64>(content_size.value(), 64 * kMiB));
    // The stream drives this loop up to the claimed content size, and
    // zero bits past its end decode as a literal run, so the reader is
    // checked before every append, not once at the end.
    while (out.size() < content_size.value()) {
        if (reader.read(1) == 0) {
            const u64 count = reader.read(5);
            for (u64 i = 0; i <= count; ++i) {
                const u8 literal = getLiteral(reader, code);
                if (reader.overrun())
                    return Status::corrupt("gipfeli stream truncated");
                out.push_back(literal);
            }
        } else {
            const u64 length = reader.read(6);
            const u64 offset = reader.read(16);
            if (reader.overrun())
                return Status::corrupt("gipfeli stream truncated");
            if (offset == 0 || offset > out.size())
                return Status::corrupt("gipfeli offset exceeds history");
            std::size_t from = out.size() - offset;
            for (u64 i = 0; i < length + kMinMatch; ++i)
                out.push_back(out[from + i]);
        }
        if (out.size() > content_size.value())
            return Status::corrupt("gipfeli output overruns");
    }
    return Status::okStatus();
}

Result<Bytes>
decompress(ByteSpan data)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out));
    return out;
}

} // namespace cdpu::gipfeli
