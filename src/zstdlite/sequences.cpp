#include "zstdlite/sequences.h"

#include "common/varint.h"
#include "fse/decoder.h"
#include "fse/encoder.h"

namespace cdpu::zstdlite
{

namespace
{

/** Sequence counts below this use the predefined tables: a transmitted
 *  table cannot amortize over so few symbols. */
constexpr std::size_t kDynamicTableThreshold = 32;

/** Builds a fixed geometric-ish distribution over @p alphabet symbols.
 *  Both sides derive it identically, so it never travels in headers. */
fse::NormalizedCounts
makePredefined(std::size_t alphabet, unsigned table_log, double decay)
{
    std::vector<u64> pseudo(alphabet, 0);
    double weight = 1u << 16;
    for (std::size_t sym = 0; sym < alphabet; ++sym) {
        pseudo[sym] = static_cast<u64>(weight) + 1;
        weight *= decay;
    }
    auto norm = fse::normalizeCounts(pseudo, table_log);
    // Static inputs; cannot fail.
    return norm.value();
}

struct SequenceTables
{
    fse::EncodeTable ll;
    fse::EncodeTable of;
    fse::EncodeTable ml;
};

Result<fse::NormalizedCounts>
dynamicCounts(const std::vector<u8> &codes, std::size_t alphabet)
{
    std::vector<u64> freqs(alphabet, 0);
    for (u8 code : codes)
        ++freqs[code];
    u64 total = codes.size();
    unsigned log = fse::suggestTableLog(freqs, total);
    return fse::normalizeCounts(freqs, log);
}

} // namespace

const fse::NormalizedCounts &
predefinedLLCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumLLCodes, 6, 0.80);
    return counts;
}

const fse::NormalizedCounts &
predefinedOFCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumOFCodes, 5, 0.85);
    return counts;
}

const fse::NormalizedCounts &
predefinedMLCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumMLCodes, 6, 0.82);
    return counts;
}

Status
encodeSequencesSection(const std::vector<lz77::Sequence> &sequences,
                       Bytes &out, std::size_t *stream_bytes_out,
                       bool *dynamic_out)
{
    putVarint(out, sequences.size());
    if (stream_bytes_out)
        *stream_bytes_out = 0;
    if (dynamic_out)
        *dynamic_out = false;
    if (sequences.empty())
        return Status::okStatus();

    // Bin every sequence once; codes feed the tables and the stream.
    std::vector<u8> ll_codes(sequences.size());
    std::vector<u8> of_codes(sequences.size());
    std::vector<u8> ml_codes(sequences.size());
    std::vector<CodeBin> ll_bins(sequences.size());
    std::vector<CodeBin> of_bins(sequences.size());
    std::vector<CodeBin> ml_bins(sequences.size());
    for (std::size_t i = 0; i < sequences.size(); ++i) {
        const auto &seq = sequences[i];
        if (seq.matchLength < kMinMatchLength ||
            seq.matchLength > kMaxMatchLength ||
            seq.literalLength > kMaxSeqLiteralRun || seq.offset == 0) {
            return Status::invalid("sequence out of encodable range");
        }
        ll_bins[i] = literalLengthBin(seq.literalLength);
        of_bins[i] = offsetBin(seq.offset);
        ml_bins[i] = matchLengthBin(seq.matchLength);
        ll_codes[i] = ll_bins[i].code;
        of_codes[i] = of_bins[i].code;
        ml_codes[i] = ml_bins[i].code;
    }

    const bool dynamic = sequences.size() >= kDynamicTableThreshold;
    out.push_back(dynamic ? static_cast<u8>(
                                static_cast<u8>(TableMode::dynamic) |
                                (static_cast<u8>(TableMode::dynamic) << 2) |
                                (static_cast<u8>(TableMode::dynamic) << 4))
                          : 0);
    if (dynamic_out)
        *dynamic_out = dynamic;

    fse::NormalizedCounts ll_norm;
    fse::NormalizedCounts of_norm;
    fse::NormalizedCounts ml_norm;
    if (dynamic) {
        auto ll = dynamicCounts(ll_codes, kNumLLCodes);
        auto of = dynamicCounts(of_codes, kNumOFCodes);
        auto ml = dynamicCounts(ml_codes, kNumMLCodes);
        if (!ll.ok())
            return ll.status();
        if (!of.ok())
            return of.status();
        if (!ml.ok())
            return ml.status();
        ll_norm = std::move(ll).value();
        of_norm = std::move(of).value();
        ml_norm = std::move(ml).value();
        fse::serializeCounts(ll_norm, out);
        fse::serializeCounts(of_norm, out);
        fse::serializeCounts(ml_norm, out);
    } else {
        ll_norm = predefinedLLCounts();
        of_norm = predefinedOFCounts();
        ml_norm = predefinedMLCounts();
    }

    auto ll_table = fse::buildEncodeTable(ll_norm);
    auto of_table = fse::buildEncodeTable(of_norm);
    auto ml_table = fse::buildEncodeTable(ml_norm);
    if (!ll_table.ok())
        return ll_table.status();
    if (!of_table.ok())
        return of_table.status();
    if (!ml_table.ok())
        return ml_table.status();

    BitWriter writer;
    fse::Encoder ll_enc(ll_table.value());
    fse::Encoder of_enc(of_table.value());
    fse::Encoder ml_enc(ml_table.value());
    for (std::size_t i = sequences.size(); i-- > 0;) {
        const auto &seq = sequences[i];
        writer.put(seq.literalLength - ll_bins[i].baseline,
                   ll_bins[i].extraBits);
        writer.put(seq.matchLength - ml_bins[i].baseline,
                   ml_bins[i].extraBits);
        writer.put(seq.offset - of_bins[i].baseline,
                   of_bins[i].extraBits);
        CDPU_RETURN_IF_ERROR(of_enc.encode(of_codes[i], writer));
        CDPU_RETURN_IF_ERROR(ml_enc.encode(ml_codes[i], writer));
        CDPU_RETURN_IF_ERROR(ll_enc.encode(ll_codes[i], writer));
    }
    ll_enc.flushState(writer);
    ml_enc.flushState(writer);
    of_enc.flushState(writer);
    Bytes stream = writer.finish();

    putVarint(out, stream.size());
    out.insert(out.end(), stream.begin(), stream.end());
    if (stream_bytes_out)
        *stream_bytes_out = stream.size();
    return Status::okStatus();
}

Result<DecodedSequences>
decodeSequencesSection(ByteSpan data, std::size_t &pos,
                       std::size_t max_sequences)
{
    DecodedSequences result;
    auto count = getVarint(data, pos);
    if (!count.ok())
        return count.status();
    // Checked before the reserve below: a tampered count once forced
    // a 2^30-entry reservation from a handful of bytes.
    if (count.value() > max_sequences)
        return Status::corrupt("sequence count exceeds block bound");
    std::size_t num_sequences = count.value();
    if (num_sequences == 0)
        return result;

    if (pos >= data.size())
        return Status::corrupt("sequence modes truncated");
    u8 modes = data[pos++];
    bool ll_dynamic = (modes & 3) == static_cast<u8>(TableMode::dynamic);
    bool of_dynamic =
        ((modes >> 2) & 3) == static_cast<u8>(TableMode::dynamic);
    bool ml_dynamic =
        ((modes >> 4) & 3) == static_cast<u8>(TableMode::dynamic);
    result.dynamicTables = ll_dynamic || of_dynamic || ml_dynamic;

    fse::NormalizedCounts ll_norm = predefinedLLCounts();
    fse::NormalizedCounts of_norm = predefinedOFCounts();
    fse::NormalizedCounts ml_norm = predefinedMLCounts();
    if (ll_dynamic) {
        auto norm = fse::deserializeCounts(data, pos);
        if (!norm.ok())
            return norm.status();
        ll_norm = std::move(norm).value();
    }
    if (of_dynamic) {
        auto norm = fse::deserializeCounts(data, pos);
        if (!norm.ok())
            return norm.status();
        of_norm = std::move(norm).value();
    }
    if (ml_dynamic) {
        auto norm = fse::deserializeCounts(data, pos);
        if (!norm.ok())
            return norm.status();
        ml_norm = std::move(norm).value();
    }
    // Every decoded code is below its alphabet size, so this check is
    // what keeps the *FromCode lookups in the loop below in range.
    if (ll_norm.alphabetSize() > kNumLLCodes ||
        of_norm.alphabetSize() > kNumOFCodes ||
        ml_norm.alphabetSize() > kNumMLCodes) {
        return Status::corrupt("sequence table alphabet too large");
    }

    auto ll_table = fse::buildDecodeTable(ll_norm);
    auto of_table = fse::buildDecodeTable(of_norm);
    auto ml_table = fse::buildDecodeTable(ml_norm);
    if (!ll_table.ok())
        return ll_table.status();
    if (!of_table.ok())
        return of_table.status();
    if (!ml_table.ok())
        return ml_table.status();

    auto stream_bytes = getVarint(data, pos);
    if (!stream_bytes.ok())
        return stream_bytes.status();
    if (pos + stream_bytes.value() > data.size())
        return Status::corrupt("sequence stream truncated");
    ByteSpan stream = data.subspan(pos, stream_bytes.value());
    pos += stream_bytes.value();
    result.streamBytes = stream.size();

    auto opened = BackwardBitReader::open(stream);
    if (!opened.ok())
        return opened.status();
    BackwardBitReader &reader = opened.value();

    // num_sequences is bounded above, so the loop reads without a
    // branch per field and checks the reader once, after it.
    fse::Decoder ll_dec(ll_table.value());
    fse::Decoder of_dec(of_table.value());
    fse::Decoder ml_dec(ml_table.value());
    of_dec.initState(reader);
    ml_dec.initState(reader);
    ll_dec.initState(reader);

    result.sequences.reserve(num_sequences);
    for (std::size_t i = 0; i < num_sequences; ++i) {
        const CodeBin ll_bin = literalLengthFromCode(ll_dec.peekSymbol());
        const CodeBin of_bin = offsetFromCode(of_dec.peekSymbol());
        const CodeBin ml_bin = matchLengthFromCode(ml_dec.peekSymbol());
        ll_dec.update(reader);
        ml_dec.update(reader);
        of_dec.update(reader);

        lz77::Sequence seq;
        seq.offset =
            of_bin.baseline + static_cast<u32>(reader.read(of_bin.extraBits));
        seq.matchLength =
            ml_bin.baseline + static_cast<u32>(reader.read(ml_bin.extraBits));
        seq.literalLength =
            ll_bin.baseline + static_cast<u32>(reader.read(ll_bin.extraBits));
        result.sequences.push_back(seq);
    }

    if (reader.overrun())
        return Status::corrupt("sequence stream truncated");
    if (reader.bitsLeft() != 0)
        return Status::corrupt("sequence stream has trailing bits");
    if (!ll_dec.atCleanEnd(reader) || !ml_dec.atCleanEnd(reader) ||
        !of_dec.atCleanEnd(reader)) {
        return Status::corrupt("sequence decoders not at clean end");
    }
    return result;
}

} // namespace cdpu::zstdlite
