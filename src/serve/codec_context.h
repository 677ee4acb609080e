/**
 * @file
 * Per-worker codec context.
 *
 * The fleet's serving processes keep long-lived (de)compression
 * contexts so steady-state calls do not allocate (Section 3.2's
 * software cost breakdown counts allocator time against the codec).
 * A CodecContext owns one reusable output buffer and dispatches a
 * ReplayCall through the codec registry: whole-buffer calls hit the
 * codec's context-reuse entry points (*Into), streaming calls run a
 * session in chunkBytes-sized feeds. After warm-up the buffer reaches
 * the workload's maximum call size and whole-buffer calls run
 * allocation-free.
 *
 * A context is single-threaded by construction: the engine gives each
 * worker its own. Sharing one across threads is a data race.
 */

#ifndef CDPU_SERVE_CODEC_CONTEXT_H_
#define CDPU_SERVE_CODEC_CONTEXT_H_

#include "hyperbench/call_stream.h"

namespace cdpu::serve
{

class CodecContext
{
  public:
    /**
     * Executes @p call, pointing @p output at the result. The view is
     * valid until the next execute() on this context. Level/window
     * parameters outside a codec's legal range are clamped against the
     * registry's capability metadata, so any fleet-sampled call can
     * execute on any codec. An exception out of the codec comes back
     * as an internal-error Status.
     *
     * @p max_output_bytes bounds the output in both directions: a
     * decompress frame claiming more is corruptData before the scratch
     * grows; a compressed output over it is bufferTooSmall (its
     * allocation is already bounded by maxCompressedSize).
     */
    Status execute(const hcb::ReplayCall &call, ByteSpan &output,
                   u64 max_output_bytes = kMaxDecodedBytes);

    /** Bytes produced by the last successful execute(); 0 after a
     *  failed call (a failure never leaves partial output behind). */
    std::size_t lastOutputSize() const { return out_.size(); }

  private:
    Status executeInto(const hcb::ReplayCall &call,
                       u64 max_output_bytes);

    Bytes out_; ///< Reused across calls; capacity only grows.
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_CODEC_CONTEXT_H_
