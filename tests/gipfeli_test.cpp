/**
 * @file
 * GipfeliLite codec tests: literal-class coding, round trips,
 * taxonomy position (between no compression and Snappy-or-better on
 * text), and corruption rejection.
 */

#include <gtest/gtest.h>

#include "common/varint.h"
#include "corpus/generators.h"
#include "gipfeli/gipfeli.h"
#include "snappy/compress.h"

namespace cdpu::gipfeli
{
namespace
{

class GipfeliRoundTrip
    : public ::testing::TestWithParam<corpus::DataClass>
{};

TEST_P(GipfeliRoundTrip, CompressDecompressIsIdentity)
{
    Rng rng(static_cast<u64>(GetParam()) + 50);
    for (std::size_t size : {0u, 1u, 333u, 100 * 1024u, 300 * 1024u}) {
        Bytes data = corpus::generate(GetParam(), size, rng);
        Bytes compressed = compress(data);
        auto out = decompress(compressed);
        ASSERT_TRUE(out.ok()) << size << ": "
                              << out.status().toString();
        EXPECT_EQ(out.value(), data) << size;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, GipfeliRoundTrip,
    ::testing::Values(corpus::DataClass::textLike,
                      corpus::DataClass::logLike,
                      corpus::DataClass::numericTabular,
                      corpus::DataClass::protobufLike,
                      corpus::DataClass::randomBytes,
                      corpus::DataClass::repetitive));

TEST(GipfeliTest, EntropyCodingBeatsPlainLiteralsOnText)
{
    // Section 2.2: Gipfeli = Snappy-class LZ77 plus simple entropy
    // coding, so on literal-heavy text it should compress better than
    // Snappy (which stores literals raw).
    Rng rng(11);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  512 * kKiB, rng);
    std::size_t gipfeli_size = compress(data).size();
    std::size_t snappy_size = snappy::compress(data).size();
    EXPECT_LT(gipfeli_size, snappy_size);
}

TEST(GipfeliTest, IncompressibleCostsAtMostTwentyFivePercent)
{
    // Worst case: every literal in class C costs 10 bits.
    Rng rng(13);
    Bytes data = corpus::generate(corpus::DataClass::randomBytes,
                                  64 * kKiB, rng);
    std::size_t size = compress(data).size();
    EXPECT_LT(size, data.size() + data.size() / 3);
}

TEST(GipfeliTest, CorruptionNeverCrashes)
{
    Rng rng(17);
    Bytes data = corpus::generateMixed(64 * kKiB, rng);
    Bytes compressed = compress(data);
    for (int trial = 0; trial < 150; ++trial) {
        Bytes mutated = compressed;
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1u << rng.below(8));
        auto out = decompress(mutated); // must not crash or over-read
        if (out.ok()) {
            EXPECT_EQ(out.value().size(), data.size());
        }
    }
    for (int trial = 0; trial < 60; ++trial) {
        std::size_t keep = rng.below(compressed.size());
        Bytes cut(compressed.begin(), compressed.begin() + keep);
        EXPECT_FALSE(decompress(cut).ok());
    }
}

TEST(GipfeliTest, StreamShorterThanClaimStopsAtItsEnd)
{
    // A valid frame whose content-size claim is raised to 16 MiB, whole
    // and with its stream cut short: the stream runs out long before
    // the claim. Zero bits past its end would decode as literals, so
    // the decoder must stop at the end of the stream, having appended
    // only a prefix of the payload (all of it when the stream is whole).
    Rng rng(19);
    for (auto cls : {corpus::DataClass::textLike,
                     corpus::DataClass::logLike,
                     corpus::DataClass::randomBytes}) {
        Bytes data = corpus::generate(cls, 4 * kKiB, rng);
        Bytes frame = compress(data);
        std::size_t pos = kMagic.size();
        ASSERT_EQ(getVarint(frame, pos).value(), data.size());
        const std::size_t tables_start = pos;
        pos += 96;
        const std::size_t tables_end = pos;
        const u64 stream_bytes = getVarint(frame, pos).value();
        ASSERT_EQ(pos + stream_bytes, frame.size());

        for (u64 kept : {stream_bytes, stream_bytes / 2, stream_bytes / 3,
                         u64{1}}) {
            Bytes tampered(kMagic.begin(), kMagic.end());
            putVarint(tampered, 16 * kMiB);
            tampered.insert(tampered.end(), frame.begin() + tables_start,
                            frame.begin() + tables_end);
            putVarint(tampered, kept);
            tampered.insert(tampered.end(), frame.begin() + pos,
                            frame.begin() + pos + kept);

            Bytes out;
            Status status = decompressInto(tampered, out);
            EXPECT_EQ(failureClass(status), FailureClass::dataError)
                << kept << ": " << status.toString();
            ASSERT_LE(out.size(), data.size()) << kept;
            EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()))
                << kept;
            if (kept == stream_bytes) {
                EXPECT_EQ(out.size(), data.size());
            }
        }
    }
}

TEST(GipfeliTest, BadMagicRejected)
{
    Bytes data = {1, 2, 3};
    Bytes compressed = compress(data);
    compressed[0] = 'X';
    EXPECT_FALSE(decompress(compressed).ok());
}

} // namespace
} // namespace cdpu::gipfeli
