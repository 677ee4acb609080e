/**
 * @file
 * Unit and property tests for the LZ77 hash table and match finder.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "corpus/generators.h"
#include "lz77/match_finder.h"

namespace cdpu::lz77
{
namespace
{

Bytes
ascii(const char *s)
{
    return Bytes(s, s + strlen(s));
}

TEST(HashTableTest, LookupReturnsInsertedPosition)
{
    HashTableConfig config{.log2Entries = 10, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdabcdabcd");
    std::vector<u32> candidates;

    table.lookupAndInsert(data, 0, candidates);
    EXPECT_TRUE(candidates.empty());

    // Position 4 has the same 4-byte prefix "abcd" as position 0.
    table.lookupAndInsert(data, 4, candidates);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], 0u);
}

TEST(HashTableTest, DirectMappedEvicts)
{
    HashTableConfig config{.log2Entries = 10, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdXXXXabcdYYYYabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);  // insert pos 0
    table.lookupAndInsert(data, 8, candidates);  // evicts 0, inserts 8
    table.lookupAndInsert(data, 16, candidates); // sees only 8
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], 8u);
}

TEST(HashTableTest, TwoWayKeepsBothCandidates)
{
    HashTableConfig config{.log2Entries = 10, .ways = 2};
    MatchHashTable table(config);
    Bytes data = ascii("abcdXXXXabcdYYYYabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);
    table.lookupAndInsert(data, 8, candidates);
    table.lookupAndInsert(data, 16, candidates);
    ASSERT_EQ(candidates.size(), 2u);
    // Most recent first.
    EXPECT_EQ(candidates[0], 8u);
    EXPECT_EQ(candidates[1], 0u);
}

TEST(HashTableTest, ResetForgetsEverything)
{
    HashTableConfig config{.log2Entries = 8, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);
    table.reset();
    table.lookupAndInsert(data, 4, candidates);
    EXPECT_TRUE(candidates.empty());
    EXPECT_EQ(table.probeCount(), 0u);
}

TEST(HashTableTest, HashFunctionsStayInRange)
{
    Bytes data = ascii("the quick brown fox jumps over it");
    for (auto fn : {HashFunction::multiplicative, HashFunction::xorShift,
                    HashFunction::fibonacci64}) {
        HashTableConfig config{.log2Entries = 9, .ways = 1,
                               .hashFunction = fn};
        MatchHashTable table(config);
        for (std::size_t pos = 0; pos + 8 <= data.size(); ++pos)
            EXPECT_LT(table.hashAt(data, pos), 1u << 9);
    }
}

TEST(MatchFinderTest, FindsSimpleRepeat)
{
    MatchFinderConfig config;
    MatchFinder finder(config);
    Bytes data = ascii("HelloHelloHelloHelloHello");
    Parse parse = finder.parse(data);
    ASSERT_FALSE(parse.sequences.empty());
    const auto &seq = parse.sequences[0];
    EXPECT_EQ(seq.literalLength, 5u); // first "Hello" is literal
    EXPECT_EQ(seq.offset, 5u);
    EXPECT_GE(seq.matchLength, 4u);
    EXPECT_EQ(reconstruct(parse, data), data);
}

TEST(MatchFinderTest, EmptyAndTinyInputs)
{
    MatchFinder finder(MatchFinderConfig{});
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u}) {
        Bytes data(n, 'x');
        Parse parse = finder.parse(data);
        EXPECT_EQ(reconstruct(parse, data), data) << n;
    }
}

TEST(MatchFinderTest, ReusedFinderParsesLikeAFreshOne)
{
    // A parse must not see the previous buffer's table entries: A then
    // B through one finder gives, for B, exactly a fresh finder's
    // parse. The tiny buffer between them inserts nothing, so the
    // table still holds A's entries when B arrives.
    Rng rng(17);
    const Bytes a = corpus::generate(corpus::DataClass::textLike,
                                     24 * kKiB, rng);
    const Bytes b = corpus::generate(corpus::DataClass::logLike,
                                     24 * kKiB, rng);
    const Bytes tiny(3, 'x');
    for (auto fn : {HashFunction::multiplicative,
                    HashFunction::fibonacci64}) {
        for (unsigned ways : {1u, 4u}) {
            MatchFinderConfig config;
            config.hashTable.hashFunction = fn;
            config.hashTable.ways = ways;
            config.lazyMatching = ways > 1;
            MatchFinder reused(config);
            reused.parse(a);
            reused.parse(tiny);
            MatchFinderStats reused_stats;
            const Parse again = reused.parse(b, &reused_stats);

            MatchFinder fresh(config);
            MatchFinderStats fresh_stats;
            const Parse expected = fresh.parse(b, &fresh_stats);
            EXPECT_EQ(again.sequences, expected.sequences)
                << "ways=" << ways;
            EXPECT_EQ(again.literalTailStart, expected.literalTailStart);
            EXPECT_EQ(again.inputSize, expected.inputSize);
            EXPECT_EQ(reused_stats.candidateProbes,
                      fresh_stats.candidateProbes);
        }
    }
}

TEST(MatchFinderTest, WindowBoundsOffsets)
{
    // Repeat distance 1000 with a 512-byte window: match unusable.
    Bytes motif;
    Rng rng(5);
    motif = corpus::generate(corpus::DataClass::randomBytes, 1000, rng);
    Bytes data = motif;
    data.insert(data.end(), motif.begin(), motif.end());

    MatchFinderConfig small_window;
    small_window.windowSize = 512;
    MatchFinder finder(small_window);
    Parse parse = finder.parse(data, nullptr);
    for (const auto &seq : parse.sequences)
        EXPECT_LE(seq.offset, 512u);
    EXPECT_EQ(reconstruct(parse, data), data);

    MatchFinderConfig big_window;
    big_window.windowSize = 64 * kKiB;
    MatchFinder finder2(big_window);
    Parse parse2 = finder2.parse(data, nullptr);
    bool found_long = false;
    for (const auto &seq : parse2.sequences)
        found_long |= seq.offset == 1000;
    EXPECT_TRUE(found_long);
}

TEST(MatchFinderTest, StatsAccounting)
{
    MatchFinderConfig config;
    MatchFinder finder(config);
    Rng rng(11);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 32 * kKiB,
                                  rng);
    MatchFinderStats stats;
    Parse parse = finder.parse(data, &stats);
    EXPECT_GT(stats.positionsHashed, 0u);
    EXPECT_GT(stats.matchesEmitted, 0u);
    EXPECT_EQ(stats.matchBytes + stats.literalBytes, data.size());
    EXPECT_EQ(stats.matchesEmitted, parse.sequences.size());
}

TEST(MatchFinderTest, LazyNeverWorseOnText)
{
    Rng rng(13);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 64 * kKiB,
                                  rng);
    MatchFinderConfig greedy;
    greedy.skipAcceleration = false;
    MatchFinderConfig lazy = greedy;
    lazy.lazyMatching = true;

    MatchFinderStats gs;
    MatchFinderStats ls;
    MatchFinder(greedy).parse(data, &gs);
    MatchFinder(lazy).parse(data, &ls);
    // Lazy matching should cover at least roughly as many bytes with
    // matches as greedy (small slack for heuristic interactions).
    EXPECT_GE(ls.matchBytes + ls.matchBytes / 20 + 64, gs.matchBytes);
}

struct RoundTripCase
{
    corpus::DataClass cls;
    std::size_t size;
    u64 seed;
};

class MatchFinderRoundTrip
    : public ::testing::TestWithParam<RoundTripCase>
{};

TEST_P(MatchFinderRoundTrip, ReconstructionIsExact)
{
    const auto &param = GetParam();
    Rng rng(param.seed);
    Bytes data = corpus::generate(param.cls, param.size, rng);

    for (unsigned log2_entries : {9u, 14u}) {
        for (unsigned ways : {1u, 2u}) {
            MatchFinderConfig config;
            config.hashTable.log2Entries = log2_entries;
            config.hashTable.ways = ways;
            MatchFinder finder(config);
            Parse parse = finder.parse(data);
            EXPECT_EQ(reconstruct(parse, data), data)
                << corpus::dataClassName(param.cls) << " entries=2^"
                << log2_entries << " ways=" << ways;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, MatchFinderRoundTrip,
    ::testing::Values(
        RoundTripCase{corpus::DataClass::textLike, 40 * kKiB, 1},
        RoundTripCase{corpus::DataClass::logLike, 40 * kKiB, 2},
        RoundTripCase{corpus::DataClass::numericTabular, 40 * kKiB, 3},
        RoundTripCase{corpus::DataClass::protobufLike, 40 * kKiB, 4},
        RoundTripCase{corpus::DataClass::randomBytes, 40 * kKiB, 5},
        RoundTripCase{corpus::DataClass::repetitive, 40 * kKiB, 6},
        RoundTripCase{corpus::DataClass::textLike, 333, 7},
        RoundTripCase{corpus::DataClass::repetitive, 5, 8}));

TEST(MatchFinderTest, HashFunctionSweepRoundTrips)
{
    Rng rng(21);
    Bytes data = corpus::generateMixed(96 * kKiB, rng);
    for (auto fn : {HashFunction::multiplicative, HashFunction::xorShift,
                    HashFunction::fibonacci64}) {
        MatchFinderConfig config;
        config.hashTable.hashFunction = fn;
        MatchFinder finder(config);
        Parse parse = finder.parse(data);
        EXPECT_EQ(reconstruct(parse, data), data);
    }
}

TEST(MatchFinderTest, MoreHashEntriesNeverHurtMuch)
{
    // Figure 13's premise: fewer hash entries -> more collisions ->
    // fewer match bytes. Verify the monotone trend on templated data.
    Rng rng(31);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 128 * kKiB,
                                  rng);
    u64 prev_match_bytes = 0;
    for (unsigned log2_entries : {6u, 10u, 14u}) {
        MatchFinderConfig config;
        config.hashTable.log2Entries = log2_entries;
        config.skipAcceleration = false;
        MatchFinderStats stats;
        MatchFinder(config).parse(data, &stats);
        EXPECT_GE(stats.matchBytes + stats.matchBytes / 10,
                  prev_match_bytes)
            << "entries=2^" << log2_entries;
        prev_match_bytes = stats.matchBytes;
    }
}

} // namespace
} // namespace cdpu::lz77
