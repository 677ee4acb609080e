/**
 * @file
 * Snappy framing format: the streaming equivalent of the buffer API
 * (the paper's Section 3.4 notes compression APIs come in stateless
 * buffer form "and a streaming equivalent").
 *
 * Implements google/snappy framing_format.txt: a stream-identifier
 * chunk followed by compressed/uncompressed data chunks of at most
 * 64 KiB of source data, each carrying a masked CRC-32C. Arbitrary
 * skippable and padding chunks are tolerated on decode.
 *
 * Both directions are incremental so the codec layer's streaming
 * sessions can run over bounded scratch: FrameWriter accepts input in
 * any granularity and emits a chunk per 64 KiB window; FrameReader
 * accepts framed bytes in any granularity and decodes every chunk the
 * moment it is complete. A stream that ends mid-chunk is corrupt —
 * finish() reports corruptData, never a short success.
 */

#ifndef CDPU_SNAPPY_FRAMING_H_
#define CDPU_SNAPPY_FRAMING_H_

#include "snappy/compress.h"

namespace cdpu::snappy
{

/** Chunk type bytes from the framing spec. */
enum class ChunkType : u8
{
    compressedData = 0x00,
    uncompressedData = 0x01,
    padding = 0xfe,
    streamIdentifier = 0xff,
};

/** Maximum uncompressed payload per data chunk (spec: 65536). */
inline constexpr std::size_t kMaxChunkPayload = 65536;

/**
 * Incremental framed compressor. Feed any amount of data through
 * write(); each internal 64 KiB window becomes one chunk (compressed
 * when that wins, uncompressed otherwise, as the spec recommends).
 * Emitted chunks depend only on cumulative input, never on write()
 * granularity, so chunked and whole-buffer use produce identical
 * streams.
 */
class FrameWriter
{
  public:
    FrameWriter();

    /** Appends more source data. */
    void write(ByteSpan data);

    /** Moves chunks finished so far to the end of @p out (incremental
     *  drain; does not flush the partial window). Returns the number
     *  of bytes appended. */
    std::size_t drainInto(Bytes &out);

    /** Flushes buffered data into a final chunk, appends everything
     *  undrained to @p out, and resets the writer for reuse. */
    void finishInto(Bytes &out);

    /** One-shot form of finishInto: returns the complete framed
     *  stream (including previously undrained chunks). */
    Bytes finish();

  private:
    void emitChunk(ByteSpan payload);

    Bytes out_;
    Bytes pending_;
    CompressorConfig config_;
};

/**
 * Incremental framed decompressor. feed() decodes every chunk that is
 * complete in the bytes seen so far (verifying the stream identifier
 * and per-chunk CRCs); drainInto() hands decoded bytes to the caller;
 * finish() validates termination — leftover partial-chunk bytes mean
 * the stream was truncated and yield corruptData.
 *
 * The stream's cumulative decoded size is held to the
 * @p max_output_bytes limit the reader is built with: a chunk whose
 * claim would cross it is corruptData before it is decoded. Chunks
 * before it were already handed out, so a rejected stream may have
 * drained a prefix, never a byte past the limit.
 *
 * Errors are sticky: after a corrupt chunk every later call reports
 * the same status.
 */
class FrameReader
{
  public:
    explicit FrameReader(u64 max_output_bytes = kMaxDecodedBytes)
        : maxOutputBytes_(max_output_bytes)
    {
    }

    /** Appends framed bytes and decodes all complete chunks. */
    Status feed(ByteSpan data);

    /** Declares end of stream; fails if a chunk is still partial or
     *  the stream identifier never appeared. */
    Status finish();

    /** Moves decoded bytes to the end of @p out; returns the count. */
    std::size_t drainInto(Bytes &out);

  private:
    Status processChunk(u8 type_byte, ByteSpan body);
    /** Bills @p bytes of chunk output against the stream limit. */
    Status claimOutput(u64 bytes);

    u64 maxOutputBytes_;
    u64 produced_ = 0;          ///< Decoded bytes so far, drained or not.
    Bytes buffer_;              ///< Undecoded framed bytes.
    std::size_t cursor_ = 0;    ///< Start of the first unparsed chunk.
    Bytes out_;                 ///< Decoded, undrained bytes.
    Bytes scratch_;             ///< Per-chunk decode scratch.
    bool sawIdentifier_ = false;
    Status failed_;
};

/** One-shot framed compression. */
Bytes frameCompress(ByteSpan data);

/**
 * Decodes a framed stream, verifying the stream identifier and every
 * chunk CRC. Returns the reassembled source data; corrupt framing,
 * bad CRCs, or truncated chunks fail with corruptData. Implemented on
 * FrameReader, so whole-buffer and incremental decode agree byte for
 * byte.
 */
Result<Bytes> frameDecompress(ByteSpan framed);

} // namespace cdpu::snappy

#endif // CDPU_SNAPPY_FRAMING_H_
