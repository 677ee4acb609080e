/**
 * @file
 * Snappy decompressor with full corruption checking.
 */

#ifndef CDPU_SNAPPY_DECOMPRESS_H_
#define CDPU_SNAPPY_DECOMPRESS_H_

#include "snappy/format.h"

namespace cdpu::snappy
{

/** Returns the uncompressed length claimed by @p data's preamble. */
Result<u64> uncompressedLength(ByteSpan data);

/**
 * Decompresses a buffer produced by compress().
 *
 * Single-pass software fast path: validates and emits in one walk over
 * the tag stream into a pre-sized output buffer, using word-wide
 * literal and match copies (common/mem.h). Corrupt input (bad varint,
 * out-of-range offsets, truncated literals, or length mismatch) yields
 * a corruptData status; the function never reads outside @p data and
 * its output is byte-identical to the decodeElements()/applyElements()
 * reference path.
 */
Result<Bytes> decompress(ByteSpan data);

/**
 * Context-reuse variant of decompress(): decodes into @p out, clearing
 * it first but keeping its capacity, so a serving loop that replays
 * many calls through one scratch buffer allocates only when a call
 * outgrows every previous one. A preamble claiming more than
 * @p max_output_bytes is corruptData before anything is reserved. On
 * error @p out is left in an unspecified (but valid) state.
 */
Status decompressInto(ByteSpan data, Bytes &out,
                      u64 max_output_bytes = kMaxDecodedBytes);

/**
 * Applies a decoded element stream to produce output. This is the
 * element-granular reference path, retained for the CDPU decompressor
 * model, which replays the same elements through its history-SRAM
 * cycle model (the software fast path is decompress() above).
 */
Status applyElements(ByteSpan data, const std::vector<Element> &elements,
                     u64 expected_size, Bytes &out);

} // namespace cdpu::snappy

#endif // CDPU_SNAPPY_DECOMPRESS_H_
