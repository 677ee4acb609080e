#include "fse/decoder.h"

namespace cdpu::fse
{

Status
decodeAll(const DecodeTable &table, BackwardBitReader &reader,
          std::size_t count, Bytes &out)
{
    Decoder decoder(table);
    decoder.initState(reader);
    // Resize once and write by index; the count is known up front.
    const std::size_t start = out.size();
    out.resize(start + count);
    u8 *dst = out.data() + start;
    for (std::size_t i = 0; i < count; ++i) {
        dst[i] = decoder.peekSymbol();
        decoder.update(reader);
    }
    if (!decoder.atCleanEnd(reader)) {
        out.resize(start);
        return Status::corrupt(reader.overrun()
                                   ? "fse stream truncated"
                                   : "fse stream did not end cleanly");
    }
    return Status::okStatus();
}

} // namespace cdpu::fse
