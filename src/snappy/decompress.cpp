#include "snappy/decompress.h"

#include <algorithm>
#include <cstring>

#include "common/mem.h"
#include "common/varint.h"

namespace cdpu::snappy
{

Status
decodeElements(ByteSpan data, std::size_t pos, u64 expected,
               std::vector<Element> &elements)
{
    u64 produced = 0;
    while (pos < data.size()) {
        u8 tag = data[pos++];
        Element el;
        el.type = static_cast<ElementType>(tag & 3);
        switch (el.type) {
          case ElementType::literal: {
            u32 n = tag >> 2;
            if (n >= kMaxInlineLiteral) {
                unsigned extra = n - kMaxInlineLiteral + 1; // 1..4 bytes
                if (pos + extra > data.size())
                    return Status::corrupt("literal length truncated");
                n = 0;
                for (unsigned i = 0; i < extra; ++i)
                    n |= static_cast<u32>(data[pos++]) << (8 * i);
            }
            el.length = n + 1;
            if (pos + el.length > data.size())
                return Status::corrupt("literal body truncated");
            el.src = pos;
            pos += el.length;
            break;
          }
          case ElementType::copy1: {
            if (pos + 1 > data.size())
                return Status::corrupt("copy1 truncated");
            el.length = 4 + ((tag >> 2) & 0x7);
            el.offset = (static_cast<u32>(tag >> 5) << 8) | data[pos++];
            break;
          }
          case ElementType::copy2: {
            if (pos + 2 > data.size())
                return Status::corrupt("copy2 truncated");
            el.length = (tag >> 2) + 1;
            el.offset = static_cast<u32>(data[pos]) |
                        (static_cast<u32>(data[pos + 1]) << 8);
            pos += 2;
            break;
          }
          case ElementType::copy4: {
            if (pos + 4 > data.size())
                return Status::corrupt("copy4 truncated");
            el.length = (tag >> 2) + 1;
            el.offset = 0;
            for (unsigned i = 0; i < 4; ++i)
                el.offset |= static_cast<u32>(data[pos++]) << (8 * i);
            break;
          }
        }
        if (el.type != ElementType::literal) {
            if (el.offset == 0)
                return Status::corrupt("copy with zero offset");
            if (el.offset > produced)
                return Status::corrupt("copy offset exceeds history");
        }
        produced += el.length;
        if (produced > expected)
            return Status::corrupt("stream produces more than preamble");
        elements.push_back(el);
    }
    if (produced != expected)
        return Status::corrupt("stream produces less than preamble");
    return Status::okStatus();
}

Result<u64>
uncompressedLength(ByteSpan data)
{
    std::size_t pos = 0;
    auto length = getVarint32(data, pos);
    if (!length.ok())
        return length.status();
    return static_cast<u64>(length.value());
}

Status
applyElements(ByteSpan data, const std::vector<Element> &elements,
              u64 expected_size, Bytes &out)
{
    out.clear();
    // Reserve conservatively: the preamble is untrusted until the
    // element stream fully validates.
    out.reserve(std::min<u64>(expected_size, 64 * kMiB));
    for (const auto &el : elements) {
        if (el.type == ElementType::literal) {
            out.insert(out.end(), data.begin() + el.src,
                       data.begin() + el.src + el.length);
        } else {
            if (el.offset > out.size())
                return Status::corrupt("copy offset exceeds history");
            // Resize once, then replay by index: growing via per-byte
            // push_back re-checks capacity (and may reallocate) on
            // every byte of every copy.
            std::size_t start = out.size();
            std::size_t from = start - el.offset;
            out.resize(start + el.length);
            for (u32 i = 0; i < el.length; ++i)
                out[start + i] = out[from + i]; // Overlap is legal.
        }
    }
    if (out.size() != expected_size)
        return Status::internal("element replay size mismatch");
    return Status::okStatus();
}

namespace
{

/**
 * Densest legal element: a copy2 turns 3 stream bytes into up to 64
 * output bytes. A preamble claiming more than body * 64/3 bytes can
 * therefore be rejected before allocating anything.
 */
constexpr u64 kMaxExpansionNum = 64;
constexpr u64 kMaxExpansionDen = 3;

} // namespace

Status
decompressInto(ByteSpan data, Bytes &out, u64 max_output_bytes)
{
    out.clear();
    std::size_t pos = 0;
    // The format caps the uncompressed length at 32 bits; getVarint32
    // holds the wire encoding to that bound (<= 5 canonical bytes), so
    // over-long encodings and values >= 2^32 both die here.
    auto length = getVarint32(data, pos);
    if (!length.ok())
        return length.status();
    const u64 expected = length.value();
    CDPU_RETURN_IF_ERROR(checkOutputClaim(expected, max_output_bytes));
    const std::size_t body = data.size() - pos;
    if (expected * kMaxExpansionDen > body * kMaxExpansionNum)
        return Status::corrupt("stream cannot produce claimed length");

    if (expected == 0) {
        if (body != 0)
            return Status::corrupt("stream produces more than preamble");
        return Status::okStatus();
    }

    // Single pass: validate and emit in one walk over the tag stream.
    // The buffer is pre-sized with a slop margin so match replays and
    // short literals can use rounded-up word copies without a
    // per-element end-of-buffer branch; the slop is trimmed on return.
    out.resize(expected + mem::kWildCopySlop);
    u8 *dst = out.data();
    std::size_t op = 0; // Bytes produced so far.
    const u8 *ip = data.data() + pos;
    const u8 *ip_end = data.data() + data.size();
    mem::KernelStats &stats = mem::kernelStats();

    while (ip < ip_end) {
        const u8 tag = *ip++;
        if ((tag & 3) == static_cast<u8>(ElementType::literal)) {
            u32 n = tag >> 2;
            u64 len;
            if (n < kMaxInlineLiteral) {
                len = n + 1; // 1..60
                // Fast path: enough input left to round the read up to
                // the widest kernel tier's chunk, and enough claimed
                // output for the write (the slop margin absorbs the
                // rounded-up store). The guard uses the constant
                // kWildCopySlop, not the active tier's width, so the
                // fast/careful split — and its counters — stay
                // tier-invariant.
                if (len + mem::kWildCopySlop <=
                        static_cast<std::size_t>(ip_end - ip) &&
                    op + len <= expected) {
                    mem::wildCopy(dst + op, ip, len,
                                  dst + out.size());
                    ++stats.snappyFastLiterals;
                    ip += len;
                    op += len;
                    continue;
                }
            } else {
                const unsigned extra = n - kMaxInlineLiteral + 1; // 1..4
                if (extra > static_cast<std::size_t>(ip_end - ip))
                    return Status::corrupt("literal length truncated");
                n = 0;
                for (unsigned i = 0; i < extra; ++i)
                    n |= static_cast<u32>(ip[i]) << (8 * i);
                ip += extra;
                len = static_cast<u64>(n) + 1;
            }
            // Careful path: exact bounds on both ends (stream tail or
            // long literal).
            if (len > static_cast<std::size_t>(ip_end - ip))
                return Status::corrupt("literal body truncated");
            if (op + len > expected)
                return Status::corrupt(
                    "stream produces more than preamble");
            std::memcpy(dst + op, ip, len);
            ++stats.snappyCarefulLiterals;
            ip += len;
            op += len;
        } else {
            u32 len;
            u32 offset;
            switch (static_cast<ElementType>(tag & 3)) {
              case ElementType::copy1: {
                if (ip_end - ip < 1)
                    return Status::corrupt("copy1 truncated");
                len = 4 + ((tag >> 2) & 0x7);
                offset = (static_cast<u32>(tag >> 5) << 8) | *ip;
                ip += 1;
                break;
              }
              case ElementType::copy2: {
                if (ip_end - ip < 2)
                    return Status::corrupt("copy2 truncated");
                len = (tag >> 2) + 1;
                offset = mem::loadU16(ip);
                ip += 2;
                break;
              }
              default: { // copy4
                if (ip_end - ip < 4)
                    return Status::corrupt("copy4 truncated");
                len = (tag >> 2) + 1;
                offset = mem::loadU32(ip);
                ip += 4;
                break;
              }
            }
            if (offset == 0)
                return Status::corrupt("copy with zero offset");
            if (offset > op)
                return Status::corrupt("copy offset exceeds history");
            if (op + len > expected)
                return Status::corrupt(
                    "stream produces more than preamble");
            if (offset >= 8) {
                // Chunked replay; the slop margin absorbs the
                // rounded-up final store, and offset >= 8 guarantees
                // every chunk reads bytes already written (the tiers
                // clamp chunk width to the offset).
                mem::wildCopy(dst + op, dst + op - offset, len,
                              dst + out.size());
                ++stats.snappyFastCopies;
            } else {
                mem::incrementalCopy(dst + op, offset, len);
                ++stats.snappyOverlapCopies;
            }
            op += len;
        }
    }
    if (op != expected)
        return Status::corrupt("stream produces less than preamble");
    out.resize(expected);
    return Status::okStatus();
}

Result<Bytes>
decompress(ByteSpan data)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out));
    return out;
}

} // namespace cdpu::snappy
