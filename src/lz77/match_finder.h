/**
 * @file
 * LZ77 parser: greedy (and optionally lazy) match finding over a bounded
 * history window using MatchHashTable.
 *
 * The window size bounds the maximum offset a match may use, mirroring
 * the history SRAM capacity of the hardware LZ77 encoder (Section 5.5):
 * a candidate further back than the window cannot be used, because in
 * compression the history check is necessarily serial and cannot fall
 * back to L2 (Section 6.3).
 */

#ifndef CDPU_LZ77_MATCH_FINDER_H_
#define CDPU_LZ77_MATCH_FINDER_H_

#include "lz77/hash_table.h"
#include "lz77/sequence.h"

namespace cdpu::lz77
{

/** Parser configuration (hash table + window + effort knobs). */
struct MatchFinderConfig
{
    HashTableConfig hashTable;
    std::size_t windowSize = 64 * kKiB; ///< Max match offset.
    u32 minMatchLength = 4;             ///< Shortest emitted match.
    u32 maxMatchLength = 1u << 30;      ///< Cap (formats may bound this).
    bool lazyMatching = false;          ///< One-position lazy evaluation.
    /**
     * Snappy-style incompressible-data skip: after 32 consecutive probe
     * failures start stepping more than one byte. The paper notes the
     * hardware does NOT implement this (it costs nothing in hardware to
     * keep probing), which is why the 64K CDPU beats software ratio by
     * ~1.1% (Section 6.3). Software codecs enable it; CDPU models don't.
     */
    bool skipAcceleration = true;
};

/** Counters describing one parse, consumed by the CDPU cycle model. */
struct MatchFinderStats
{
    u64 positionsHashed = 0;   ///< Hash-table lookups issued.
    u64 candidateProbes = 0;   ///< Candidate byte-verifications performed.
    u64 matchesEmitted = 0;
    u64 matchBytes = 0;        ///< Bytes covered by matches.
    u64 literalBytes = 0;      ///< Bytes emitted as literals.
};

/**
 * Streaming LZ77 parser.
 *
 * parse() produces a Parse whose reconstruction equals the input exactly
 * (property-tested). The same instance may parse many buffers; state is
 * reset per call.
 */
class MatchFinder
{
  public:
    explicit MatchFinder(const MatchFinderConfig &config);

    /** Parses @p input into sequences; stats describe the work done. */
    Parse parse(ByteSpan input, MatchFinderStats *stats = nullptr);

    const MatchFinderConfig &config() const { return config_; }

  private:
    /** Length of the match between input[a...] and input[b...]. */
    static u32 matchLengthAt(ByteSpan input, std::size_t a, std::size_t b,
                             u32 cap);

    struct Candidate
    {
        u32 position = 0;
        u32 length = 0;
    };

    /** Best verified candidate at @p pos, or length 0. @p hash_limit
     *  is the last hashable position in this parse. */
    Candidate bestMatchAt(ByteSpan input, std::size_t pos,
                          std::size_t hash_limit,
                          MatchFinderStats &stats);

    /** Hash for @p pos, served from the batch cache. Sequential scans
     *  refill kHashBatch positions at once through the multi-lane
     *  kernel; random jumps (skip acceleration, post-match restarts)
     *  hash a single position so incompressible data pays no batch
     *  waste. Values are pure functions of the input bytes, so the
     *  cache never goes stale within a parse. */
    u32 hashFor(ByteSpan input, std::size_t pos,
                std::size_t hash_limit);

    static constexpr std::size_t kHashBatch = 16;

    MatchFinderConfig config_;
    MatchHashTable table_;
    bool tableDirty_ = false; ///< table_ holds a previous parse's entries.
    std::vector<u32> scratchCandidates_;
    std::size_t hashBase_ = 0;  ///< First position in hashBuf_.
    std::size_t hashCount_ = 0; ///< Valid entries in hashBuf_.
    u32 hashBuf_[kHashBatch] = {};
};

} // namespace cdpu::lz77

#endif // CDPU_LZ77_MATCH_FINDER_H_
