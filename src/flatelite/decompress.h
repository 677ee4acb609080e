/**
 * @file
 * FlateLite decompressor with full corruption checking.
 */

#ifndef CDPU_FLATELITE_DECOMPRESS_H_
#define CDPU_FLATELITE_DECOMPRESS_H_

#include "flatelite/format.h"

namespace cdpu::flatelite
{

/** Parses only the frame header. */
Result<FrameHeader> peekFrameHeader(ByteSpan data);

/**
 * Decompresses a FlateLite frame; validates window-bounded distances,
 * history bounds, block sizes and the content-size claim. Optionally
 * records the per-block trace for the Flate CDPU model.
 */
Result<Bytes> decompress(ByteSpan data, FileTrace *trace = nullptr);

/**
 * Context-reuse variant of decompress(): decodes into @p out, clearing
 * it first but keeping its capacity (see snappy::decompressInto). A
 * content-size claim over @p max_output_bytes is corruptData before
 * anything is reserved. On error @p out is left in an unspecified (but
 * valid) state.
 */
Status decompressInto(ByteSpan data, Bytes &out,
                      FileTrace *trace = nullptr,
                      u64 max_output_bytes = kMaxDecodedBytes);

} // namespace cdpu::flatelite

#endif // CDPU_FLATELITE_DECOMPRESS_H_
