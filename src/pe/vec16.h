/**
 * @file
 * The int16 vector helpers of the FPRaker datapath bodies: the
 * lane-major column (pe/fpraker_pe.cpp) and the value MAC's 8-lane
 * body (pe/value_mac.cpp).
 *
 * A Vec is eight int16 elements in GCC vector extensions, which every
 * target compiles (to SSE2 on x86-64). Comparisons yield 0 / -1 masks,
 * and element arithmetic wraps; each body derives its own bounds.
 */

#ifndef FPRAKER_PE_VEC16_H
#define FPRAKER_PE_VEC16_H

#include <bit>
#include <cstdint>

namespace fpraker {
namespace vec16 {

/** Eight int16 elements. */
typedef int16_t Vec __attribute__((vector_size(16)));
/** Four int32 elements: half of a Vec, widened. */
typedef int32_t Vec32 __attribute__((vector_size(16)));
/** A Vec as two 64-bit halves, for the any-element tests. */
typedef uint64_t Vec64 __attribute__((vector_size(16)));

/** @p x in every element. */
constexpr Vec
splat(int x)
{
    return Vec{} + static_cast<int16_t>(x);
}

/** Elements of @p a where @p m is set, else those of @p b. */
inline Vec
select(Vec m, Vec a, Vec b)
{
    return (m & a) | (~m & b);
}

inline Vec
vmin(Vec a, Vec b)
{
    return a < b ? a : b;
}

inline Vec
vmax(Vec a, Vec b)
{
    return a > b ? a : b;
}

/** True when some element of @p m is non-zero. */
inline bool
anyElement(Vec m)
{
    const Vec64 h = std::bit_cast<Vec64>(m);
    return (h[0] | h[1]) != 0;
}

/** The OR of @p x's elements, as 16 bits. */
inline uint32_t
orElements(Vec x)
{
    const Vec64 h = std::bit_cast<Vec64>(x);
    uint64_t v = h[0] | h[1];
    v |= v >> 32;
    v |= v >> 16;
    return static_cast<uint16_t>(v);
}

/** True when every element of @p m is -1. */
inline bool
allElements(Vec m)
{
    const Vec64 h = std::bit_cast<Vec64>(m);
    return (h[0] & h[1]) == ~uint64_t(0);
}

/*
 * The reductions fold halves onto element 0; each step's shuffle only
 * has to bring the right element next to it, which keeps the last one
 * to a single pshuflw.
 */

/** The largest element of @p x. */
inline int
maxElement(Vec x)
{
    x = vmax(x, __builtin_shufflevector(x, x, 4, 5, 6, 7, 0, 1, 2, 3));
    x = vmax(x, __builtin_shufflevector(x, x, 2, 3, 0, 1, 4, 5, 6, 7));
    x = vmax(x, __builtin_shufflevector(x, x, 1, 0, 2, 3, 4, 5, 6, 7));
    return x[0];
}

/** The sum of @p x's elements, which must fit int16. */
inline int
sumElements(Vec x)
{
    x += __builtin_shufflevector(x, x, 4, 5, 6, 7, 0, 1, 2, 3);
    x += __builtin_shufflevector(x, x, 2, 3, 0, 1, 4, 5, 6, 7);
    x += __builtin_shufflevector(x, x, 1, 0, 2, 3, 4, 5, 6, 7);
    return x[0];
}

/** -1 in the elements of @p x with bit @p B set, else 0. */
template <int B>
Vec
bit(Vec x)
{
    return (x << (15 - B)) >> 15;
}

/** Elements 4H to 4H + 3 of @p x, sign-extended. */
template <int H>
Vec32
widen(Vec x)
{
    return std::bit_cast<Vec32>(__builtin_shufflevector(
               x, x, 4 * H, 4 * H, 4 * H + 1, 4 * H + 1, 4 * H + 2,
               4 * H + 2, 4 * H + 3, 4 * H + 3)) >>
           16;
}

} // namespace vec16
} // namespace fpraker

#endif // FPRAKER_PE_VEC16_H
