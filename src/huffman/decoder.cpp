#include "huffman/decoder.h"

#include "common/kernels.h"
#include "common/mem.h"

namespace cdpu::huffman
{

Result<Decoder>
Decoder::build(const CodeTable &table)
{
    if (table.maxBits == 0 || table.maxBits > 15)
        return Status::invalid("bad huffman table");
    Decoder decoder;
    decoder.maxBits_ = table.maxBits;
    decoder.table_.assign(std::size_t{1} << table.maxBits, Entry{});

    for (std::size_t sym = 0; sym < table.numSymbols(); ++sym) {
        u8 len = table.lengths[sym];
        if (len == 0)
            continue;
        // The stored code is already bit-reversed (LSB-first); every
        // index whose low `len` bits equal it decodes to this symbol.
        u32 stride = 1u << len;
        for (u32 idx = table.codes[sym];
             idx < decoder.table_.size(); idx += stride) {
            decoder.table_[idx] = {static_cast<u16>(sym), len};
        }
    }

    // Fuse a second symbol into each window where it provably fits.
    // Indexing table_ at prefix >> len0 zero-extends the high bits, so
    // the second entry is trustworthy exactly when its code lies
    // entirely inside the real (non-extended) bits: len0 + len1 <=
    // maxBits. Prefix-free codes make that low-bits lookup unambiguous.
    decoder.pairs_.assign(decoder.table_.size(), PairEntry{});
    for (u32 prefix = 0; prefix < decoder.table_.size(); ++prefix) {
        const Entry &first = decoder.table_[prefix];
        if (first.length == 0)
            continue;
        PairEntry pair;
        pair.sym0 = static_cast<u8>(first.symbol);
        pair.bits = first.length;
        pair.count = 1;
        const Entry &second = decoder.table_[prefix >> first.length];
        if (second.length != 0 &&
            first.length + second.length <= table.maxBits) {
            pair.sym1 = static_cast<u8>(second.symbol);
            pair.bits =
                static_cast<u8>(first.length + second.length);
            pair.count = 2;
        }
        decoder.pairs_[prefix] = pair;
    }
    return decoder;
}

Status
Decoder::decode(BitReader &reader, std::size_t count, Bytes &out) const
{
    // Resize once and write by index: the symbol count is known up
    // front, so per-symbol push_back capacity checks are pure waste.
    const std::size_t start = out.size();
    out.resize(start + count);
    u8 *dst = out.data() + start;
    // The pair fast path runs on SIMD tiers only; the scalar tier
    // keeps the one-symbol-per-peek reference loop, which is what the
    // cross-tier byte-identity batteries compare against. Any window
    // the pair table can't fuse — long codes, an invalid prefix —
    // drops into step() for that symbol. The count bounds the loop, so
    // truncation is checked once, after it, the same way on every tier.
    const bool fuse_pairs =
        kernels::activeTier() != kernels::Tier::scalar;
    std::size_t i = 0;
    while (i < count) {
        if (fuse_pairs && i + 1 < count) {
            const PairEntry &pair =
                pairs_[static_cast<u32>(reader.peek(maxBits_))];
            if (pair.count == 2) {
                reader.advance(pair.bits);
                dst[i] = pair.sym0;
                dst[i + 1] = pair.sym1;
                i += 2;
                continue;
            }
        }
        const Entry &entry = step(reader);
        if (entry.length == 0) {
            out.resize(start);
            return Status::corrupt("invalid huffman code");
        }
        dst[i] = static_cast<u8>(entry.symbol);
        ++i;
    }
    if (reader.overrun()) {
        out.resize(start);
        return Status::corrupt("huffman stream truncated");
    }
    mem::kernelStats()
        .tierHuffSymbols[kernels::activeTierIndex()] += count;
    return Status::okStatus();
}

} // namespace cdpu::huffman
