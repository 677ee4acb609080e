/**
 * @file
 * FlateLite codec tests: RFC 1951 binning golden values, round trips
 * across levels/classes, corruption rejection, and the Flate CDPU
 * built from the shared unit library.
 */

#include <gtest/gtest.h>

#include "cdpu/area_model.h"
#include "cdpu/flate_pu.h"
#include "common/varint.h"
#include "corpus/generators.h"
#include "snappy/compress.h"
#include "zstdlite/compress.h"

namespace cdpu::flatelite
{
namespace
{

Bytes
mustCompress(ByteSpan input, const CompressorConfig &config = {})
{
    auto out = compress(input, config);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return std::move(out).value();
}

TEST(FlateBinsTest, LengthCodesMatchRfc1951)
{
    EXPECT_EQ(lengthBin(3).code, 257);
    EXPECT_EQ(lengthBin(10).code, 264);
    EXPECT_EQ(lengthBin(11).code, 265);
    EXPECT_EQ(lengthBin(11).extraBits, 1);
    EXPECT_EQ(lengthBin(12).code, 265);
    EXPECT_EQ(lengthBin(131).code, 281);
    EXPECT_EQ(lengthBin(131).extraBits, 5);
    EXPECT_EQ(lengthBin(258).code, 285);
    EXPECT_EQ(lengthBin(258).extraBits, 0);
}

TEST(FlateBinsTest, DistanceCodesMatchRfc1951)
{
    EXPECT_EQ(distanceBin(1).code, 0);
    EXPECT_EQ(distanceBin(4).code, 3);
    EXPECT_EQ(distanceBin(5).code, 4);
    EXPECT_EQ(distanceBin(5).extraBits, 1);
    EXPECT_EQ(distanceBin(24577).code, 29);
    EXPECT_EQ(distanceBin(32768).code, 29);
    EXPECT_EQ(distanceBin(32768).extraBits, 13);
}

TEST(FlateBinsTest, CodeRoundTrips)
{
    for (u32 len : {3u, 4u, 10u, 11u, 57u, 130u, 257u, 258u}) {
        FlateBin bin = lengthBin(len);
        FlateBin back = lengthFromCode(bin.code);
        EXPECT_EQ(back.baseline, bin.baseline);
        EXPECT_LE(back.baseline, len);
        EXPECT_LT(len - back.baseline,
                  1u << back.extraBits | (back.extraBits == 0 ? 1u : 0u));
    }
    for (u32 dist : {1u, 4u, 5u, 100u, 24577u, 32768u}) {
        FlateBin bin = distanceBin(dist);
        FlateBin back = distanceFromCode(bin.code);
        EXPECT_EQ(back.baseline, bin.baseline);
        EXPECT_EQ(back.extraBits, bin.extraBits);
    }
}

TEST(FlateLiteTest, EmptyInput)
{
    Bytes compressed = mustCompress({});
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_TRUE(out.value().empty());
}

struct FlateCase
{
    corpus::DataClass cls;
    std::size_t size;
    int level;
    u64 seed;
};

class FlateLiteRoundTrip : public ::testing::TestWithParam<FlateCase>
{};

TEST_P(FlateLiteRoundTrip, CompressDecompressIsIdentity)
{
    const auto &param = GetParam();
    Rng rng(param.seed);
    Bytes data = corpus::generate(param.cls, param.size, rng);
    CompressorConfig config;
    config.level = param.level;
    Bytes compressed = mustCompress(data, config);
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_EQ(out.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndClasses, FlateLiteRoundTrip,
    ::testing::Values(
        FlateCase{corpus::DataClass::textLike, 1, 6, 1},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 1, 2},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 6, 3},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 9, 4},
        FlateCase{corpus::DataClass::logLike, 300 * kKiB, 6, 5},
        FlateCase{corpus::DataClass::numericTabular, 150 * kKiB, 6, 6},
        FlateCase{corpus::DataClass::protobufLike, 150 * kKiB, 6, 7},
        FlateCase{corpus::DataClass::randomBytes, 80 * kKiB, 6, 8},
        FlateCase{corpus::DataClass::repetitive, 300 * kKiB, 6, 9}));

TEST(FlateLiteTest, RatioBetweenSnappyAndZstd)
{
    // Figure 2c taxonomy: Flate is heavyweight — clearly better than
    // Snappy; ZStd's FSE stage usually edges it out.
    Rng rng(21);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 1 * kMiB,
                                  rng);
    std::size_t flate_size = mustCompress(data).size();
    std::size_t snappy_size = snappy::compress(data).size();
    EXPECT_LT(flate_size, snappy_size);
}

TEST(FlateLiteTest, HigherLevelNeverMuchWorse)
{
    Rng rng(23);
    Bytes data = corpus::generateMixed(512 * kKiB, rng);
    std::size_t level1 = mustCompress(data, {.level = 1}).size();
    std::size_t level9 = mustCompress(data, {.level = 9}).size();
    EXPECT_LE(level9, level1 + level1 / 50);
}

TEST(FlateLiteTest, WindowNeverExceedsRfcLimit)
{
    Rng rng(29);
    Bytes data = corpus::generateMixed(256 * kKiB, rng);
    FileTrace trace;
    auto compressed = compress(data, {}, &trace);
    ASSERT_TRUE(compressed.ok());
    for (const auto &block : trace.blocks)
        for (const auto &seq : block.sequences)
            EXPECT_LE(seq.offset, 32768u);
    EXPECT_FALSE(compress(data, {.level = 6, .windowLog = 16}).ok());
}

TEST(FlateLiteCorruptionTest, TruncationRejected)
{
    Rng rng(31);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 64 * kKiB,
                                  rng);
    Bytes compressed = mustCompress(data);
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t keep = rng.below(compressed.size());
        Bytes cut(compressed.begin(), compressed.begin() + keep);
        EXPECT_FALSE(decompress(cut).ok());
    }
}

TEST(FlateLiteCorruptionTest, ShortStreamStopsAtItsEndNotAtTheClaim)
{
    // One compressed block whose bit-stream length is cut to half while
    // its regenSize and the frame's contentSize are raised to 16 MiB.
    // Zero bits past the cut would still decode as symbols, so the
    // decoder must stop at the end of the stream: what it appended
    // before the failure is a prefix of the payload.
    Rng rng(41);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 8 * kKiB, rng);
    Bytes frame = mustCompress(data);
    std::size_t pos = 0;
    auto header = readFrameHeader(frame, pos);
    ASSERT_TRUE(header.ok());
    ASSERT_EQ(frame[pos++], 3) << "expected one last compressed block";
    ASSERT_EQ(getVarint(frame, pos).value(), data.size());
    const std::size_t tables_start = pos;
    pos += (kLitLenAlphabet + 1) / 2 + kDistanceAlphabet / 2;
    const std::size_t tables_end = pos;
    const u64 stream_bytes = getVarint(frame, pos).value();
    ASSERT_EQ(pos + stream_bytes, frame.size());

    for (u64 kept : {u64{1}, stream_bytes / 2, stream_bytes - 1}) {
        Bytes tampered;
        writeFrameHeader({header.value().windowLog, 16 * kMiB}, tampered);
        tampered.push_back(3);
        putVarint(tampered, 16 * kMiB);
        tampered.insert(tampered.end(), frame.begin() + tables_start,
                        frame.begin() + tables_end);
        putVarint(tampered, kept);
        tampered.insert(tampered.end(), frame.begin() + pos, frame.end());

        Bytes out;
        Status status = decompressInto(tampered, out);
        EXPECT_EQ(failureClass(status), FailureClass::dataError)
            << kept << ": " << status.toString();
        ASSERT_LE(out.size(), data.size()) << kept;
        EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()))
            << kept;
    }
}

TEST(FlateLiteCorruptionTest, BitFlipsNeverCrash)
{
    Rng rng(37);
    Bytes data = corpus::generateMixed(64 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    for (int trial = 0; trial < 150; ++trial) {
        Bytes mutated = compressed;
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1u << rng.below(8));
        auto out = decompress(mutated);
        if (out.ok()) {
            EXPECT_EQ(out.value().size(), data.size());
        }
    }
}

// --- Flate CDPU (generator reuse) ---------------------------------------

TEST(FlatePuTest, DecompressorMatchesSoftware)
{
    Rng rng(41);
    Bytes data = corpus::generateMixed(256 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    hw::FlateDecompressorPU pu{hw::CdpuConfig{}};
    Bytes out;
    auto result = pu.run(compressed, &out);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(out, data);
    EXPECT_GT(result.value().cycles, 0u);
}

TEST(FlatePuTest, CompressorOutputDecodes)
{
    Rng rng(43);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  256 * kKiB, rng);
    hw::FlateCompressorPU pu{hw::CdpuConfig{}};
    Bytes compressed;
    auto result = pu.run(data, &compressed);
    ASSERT_TRUE(result.ok());
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(FlatePuTest, SpeculationMattersLikeZstd)
{
    // Every Flate symbol flows through the Huffman expander, so the
    // speculation knob moves Flate decompression at least as much as
    // ZStd's (Section 6.4 mechanism, shared unit).
    Rng rng(47);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  512 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    u64 prev = std::numeric_limits<u64>::max();
    for (unsigned spec : {4u, 16u, 32u}) {
        hw::CdpuConfig config;
        config.huffSpeculations = spec;
        hw::FlateDecompressorPU pu{config};
        auto result = pu.run(compressed);
        ASSERT_TRUE(result.ok());
        EXPECT_LT(result.value().cycles, prev) << spec;
        prev = result.value().cycles;
    }
}

TEST(FlatePuTest, AreaSitsBetweenSnappyAndZstd)
{
    hw::CdpuConfig config;
    double flate_d = hw::flateDecompressorAreaMm2(config);
    EXPECT_GT(flate_d, hw::snappyDecompressorAreaMm2(config));
    EXPECT_LT(flate_d, hw::zstdDecompressorAreaMm2(config));
    double flate_c = hw::flateCompressorAreaMm2(config);
    EXPECT_GT(flate_c, hw::snappyCompressorAreaMm2(config));
    EXPECT_LT(flate_c, hw::zstdCompressorAreaMm2(config));
}

} // namespace
} // namespace cdpu::flatelite
