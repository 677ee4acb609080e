#include "flatelite/format.h"

#include <cassert>

#include "common/varint.h"

namespace cdpu::flatelite
{

namespace
{

/** RFC 1951 length codes 257..285: (baseline, extra bits). */
struct Spec
{
    u32 baseline;
    u8 extraBits;
};

constexpr std::array<Spec, 29> kLengthSpecs = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},
    {9, 0},   {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1},
    {19, 2},  {23, 2},  {27, 2},  {31, 2},  {35, 3},  {43, 3},
    {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

/** RFC 1951 distance codes 0..29: (baseline, extra bits). */
constexpr std::array<Spec, 30> kDistanceSpecs = {{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},
    {7, 1},     {9, 2},     {13, 2},    {17, 3},    {25, 3},
    {33, 4},    {49, 4},    {65, 5},    {97, 5},    {129, 6},
    {193, 6},   {257, 7},   {385, 7},   {513, 8},   {769, 8},
    {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10}, {4097, 11},
    {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
}};

} // namespace

FlateBin
lengthBin(u32 length)
{
    // Codes 257..285 cover 3..258; scan from the top for the widest
    // baseline not exceeding the value. Code 285 encodes exactly 258.
    if (length >= kMaxMatchLength)
        return {285, 0, 258};
    for (std::size_t i = kLengthSpecs.size() - 1; i-- > 0;) {
        if (length >= kLengthSpecs[i].baseline) {
            return {static_cast<u16>(257 + i),
                    kLengthSpecs[i].extraBits,
                    kLengthSpecs[i].baseline};
        }
    }
    return {257, 0, 3};
}

FlateBin
distanceBin(u32 distance)
{
    for (std::size_t i = kDistanceSpecs.size(); i-- > 0;) {
        if (distance >= kDistanceSpecs[i].baseline) {
            return {static_cast<u16>(i), kDistanceSpecs[i].extraBits,
                    kDistanceSpecs[i].baseline};
        }
    }
    return {0, 0, 1};
}

FlateBin
lengthFromCode(u16 code)
{
    assert(code >= 257 && code < kLitLenAlphabet);
    const Spec &spec = kLengthSpecs[code - 257];
    return {code, spec.extraBits, spec.baseline};
}

FlateBin
distanceFromCode(u16 code)
{
    assert(code < kDistanceAlphabet);
    const Spec &spec = kDistanceSpecs[code];
    return {code, spec.extraBits, spec.baseline};
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
        return Status::corrupt("flate frame header truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad flate magic");
    }
    FrameHeader header;
    header.windowLog = data[pos++];
    if (header.windowLog < kMinWindowLog ||
        header.windowLog > kMaxWindowLog) {
        return Status::corrupt("flate window log out of range");
    }
    auto size = getVarint(data, pos);
    if (!size.ok())
        return size.status();
    header.contentSize = size.value();
    return header;
}

} // namespace cdpu::flatelite
