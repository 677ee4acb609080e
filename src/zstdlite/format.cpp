#include "zstdlite/format.h"

#include <cassert>

#include "common/histogram.h"
#include "common/varint.h"

namespace cdpu::zstdlite
{

namespace
{

/** zstd literal-length codes 16..35: baselines and extra bits. */
struct BinSpec
{
    u32 baseline;
    u8 extraBits;
};

constexpr std::array<BinSpec, 20> kLLBins = {{
    {16, 1}, {18, 1}, {20, 1}, {22, 1}, {24, 2}, {28, 2}, {32, 3},
    {40, 3}, {48, 4}, {64, 6}, {128, 7}, {256, 8}, {512, 9}, {1024, 10},
    {2048, 11}, {4096, 12}, {8192, 13}, {16384, 14}, {32768, 15},
    {65536, 16},
}};

/** zstd match-length codes 32..52: baselines and extra bits. */
constexpr std::array<BinSpec, 21> kMLBins = {{
    {35, 1}, {37, 1}, {39, 1}, {41, 1}, {43, 2}, {47, 2}, {51, 3},
    {59, 3}, {67, 4}, {83, 4}, {99, 5}, {131, 7}, {259, 8}, {515, 9},
    {1027, 10}, {2051, 11}, {4099, 12}, {8195, 13}, {16387, 14},
    {32771, 15}, {65539, 16},
}};

} // namespace

CodeBin
literalLengthBin(u32 value)
{
    if (value < 16)
        return {static_cast<u8>(value), 0, value};
    for (std::size_t i = kLLBins.size(); i-- > 0;) {
        if (value >= kLLBins[i].baseline) {
            return {static_cast<u8>(16 + i), kLLBins[i].extraBits,
                    kLLBins[i].baseline};
        }
    }
    return {16, kLLBins[0].extraBits, kLLBins[0].baseline};
}

CodeBin
matchLengthBin(u32 value)
{
    // value >= 3; codes 0..31 cover 3..34 directly.
    if (value < 35)
        return {static_cast<u8>(value - kMinMatchLength), 0, value};
    for (std::size_t i = kMLBins.size(); i-- > 0;) {
        if (value >= kMLBins[i].baseline) {
            return {static_cast<u8>(32 + i), kMLBins[i].extraBits,
                    kMLBins[i].baseline};
        }
    }
    return {32, kMLBins[0].extraBits, kMLBins[0].baseline};
}

CodeBin
offsetBin(u32 value)
{
    // value >= 1: code is the bit width minus one; extra bits carry the
    // remainder below the leading power of two.
    u8 code = static_cast<u8>(floorLog2(value));
    return {code, code, 1u << code};
}

CodeBin
literalLengthFromCode(u8 code)
{
    assert(code < kNumLLCodes);
    if (code < 16)
        return {code, 0, code};
    const BinSpec &spec = kLLBins[code - 16];
    return {code, spec.extraBits, spec.baseline};
}

CodeBin
matchLengthFromCode(u8 code)
{
    assert(code < kNumMLCodes);
    if (code < 32)
        return {code, 0, code + kMinMatchLength};
    const BinSpec &spec = kMLBins[code - 32];
    return {code, spec.extraBits, spec.baseline};
}

CodeBin
offsetFromCode(u8 code)
{
    assert(code < kNumOFCodes);
    return {code, code, 1u << code};
}

void
writeFrameHeader(const FrameHeader &header, Bytes &out)
{
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    out.push_back(static_cast<u8>(header.windowLog));
    putVarint(out, header.contentSize);
}

Result<FrameHeader>
readFrameHeader(ByteSpan data, std::size_t &pos)
{
    if (data.size() < pos + kMagic.size() + 1)
        return Status::corrupt("frame header truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad magic");
    }
    FrameHeader header;
    header.windowLog = data[pos++];
    if (header.windowLog < kMinWindowLog ||
        header.windowLog > kMaxWindowLog) {
        return Status::corrupt("window log out of range");
    }
    auto size = getVarint(data, pos);
    if (!size.ok())
        return size.status();
    header.contentSize = size.value();
    return header;
}

} // namespace cdpu::zstdlite
