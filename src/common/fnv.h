/**
 * @file
 * The one FNV-1a implementation for every digest in the tree
 * (Session::configDigest, Result::fingerprint, the golden checksums in
 * tests/test_sim.cpp). The digests differ only in *framing* — whether
 * a field separator is mixed in between values — so this header
 * provides both framings and the call sites pick:
 *
 *  - add(...)    — field-framed: the value's bytes followed by a 0xff
 *    separator, so {"ab","c"} and {"a","bc"} hash differently. Used
 *    by Result::fingerprint and Session::configDigest.
 *  - addRaw(...) / addBytes(...) — the bare byte stream, no
 *    separators. Used by the golden checksums in tests/test_sim.cpp,
 *    which pin these byte streams: they must not change.
 *
 * The serve layer's ResultCache keys (docs/SERVING.md) reuse the
 * framed form over the canonical JobSpec description.
 */

#ifndef FPRAKER_COMMON_FNV_H
#define FPRAKER_COMMON_FNV_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace fpraker {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Streaming 64-bit FNV-1a. */
class Fnv64
{
  public:
    /** Mix one byte (the FNV-1a core step). */
    void
    mix(unsigned char c)
    {
        hash_ ^= c;
        hash_ *= kFnvPrime;
    }

    /** Mix @p n raw bytes, no separator. */
    void
    addBytes(const void *data, size_t n)
    {
        const unsigned char *p =
            static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i)
            mix(p[i]);
    }

    /** Mix the field separator ({"ab","c"} != {"a","bc"}). */
    void sep() { mix(0xff); }

    // ------------------------------------------- field-framed adds
    void
    add(const std::string &s)
    {
        addBytes(s.data(), s.size());
        sep();
    }

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<unsigned char>(v >> (i * 8)));
        sep();
    }

    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    // ------------------------------------ raw (separator-free) adds
    void addRaw(uint64_t v) { addBytes(&v, sizeof(v)); }
    void addRaw(double v) { addBytes(&v, sizeof(v)); }

    void
    addRaw(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        addBytes(&bits, sizeof(bits));
    }

    uint64_t value() const { return hash_; }

    /** The canonical 16-hex-digit rendering used across the repo. */
    static std::string
    hex(uint64_t v)
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v));
        return buf;
    }

    std::string hex() const { return hex(hash_); }

  private:
    uint64_t hash_ = kFnvOffsetBasis;
};

} // namespace fpraker

#endif // FPRAKER_COMMON_FNV_H
