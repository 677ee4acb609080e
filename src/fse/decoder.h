/**
 * @file
 * FSE (tANS) stream decoder, reading a BackwardBitReader.
 */

#ifndef CDPU_FSE_DECODER_H_
#define CDPU_FSE_DECODER_H_

#include "common/bitio.h"
#include "fse/table.h"

namespace cdpu::fse
{

/** Incremental decoder: mirrors Encoder state-for-state. */
class Decoder
{
  public:
    explicit Decoder(const DecodeTable &table) : table_(&table) {}

    /** Reads the initial state (tableLog bits); call once, first. */
    void
    initState(BackwardBitReader &reader)
    {
        state_ = static_cast<u32>(reader.read(table_->tableLog));
    }

    /** Current symbol, determined by the state alone (no bits read). */
    u8 peekSymbol() const { return table_->entries[state_].symbol; }

    /** Bits the next update() will consume. */
    unsigned nextBits() const { return table_->entries[state_].nbBits; }

    /** Advances the state by reading nbBits from @p reader. */
    void
    update(BackwardBitReader &reader)
    {
        const DecodeEntry &entry = table_->entries[state_];
        state_ = entry.nextStateBase +
                 static_cast<u32>(reader.read(entry.nbBits));
    }

    /**
     * True once the decoder has returned to the encoder's start state
     * with every bit consumed and none read past the start (an
     * underflow also leaves bitsLeft() at 0) — the stream-integrity
     * check applied after the last expected symbol.
     */
    bool atCleanEnd(const BackwardBitReader &reader) const
    {
        return state_ == 0 && reader.bitsLeft() == 0 && !reader.overrun();
    }

  private:
    const DecodeTable *table_;
    u32 state_ = 0;
};

/**
 * Convenience: decodes exactly @p count symbols written by encodeAll().
 * Checks the clean-end invariant.
 */
Status decodeAll(const DecodeTable &table, BackwardBitReader &reader,
                 std::size_t count, Bytes &out);

} // namespace cdpu::fse

#endif // CDPU_FSE_DECODER_H_
