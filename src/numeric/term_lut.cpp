#include "numeric/term_lut.h"

namespace fpraker {

TermLut::TermLut(TermEncoding enc)
    : encoding_(enc)
{
    TermEncoder encoder(enc);
    // significand() yields 0 or a normalized value in [0x80, 0xff];
    // the gap [1, 0x7f] is unreachable and left as empty streams.
    streams_[0] = encoder.encodeSignificand(0);
    counts_[0] = 0;
    for (int sig = 0x80; sig <= 0xff; ++sig) {
        streams_[sig] = encoder.encodeSignificand(sig);
        counts_[sig] = static_cast<uint8_t>(streams_[sig].size());
    }
}

const TermLut &
TermLut::of(TermEncoding enc)
{
    static const TermLut canonical(TermEncoding::Canonical);
    static const TermLut raw(TermEncoding::RawBits);
    return enc == TermEncoding::RawBits ? raw : canonical;
}

} // namespace fpraker
