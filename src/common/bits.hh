/**
 * @file
 * Bit-manipulation helpers: field extraction, masks, the LSB-truncation
 * operator used by AxMemo's input approximation (Section 3.1), and the
 * FNV-1a byte hash.
 */

#ifndef AXMEMO_COMMON_BITS_HH
#define AXMEMO_COMMON_BITS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace axmemo {

/** FNV-1a-64 over the @p n bytes at @p data. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** @return a mask with the low @p n bits set (n in [0, 64]). */
constexpr std::uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

/** @return bits [lo, hi] (inclusive) of @p value, shifted down to bit 0. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned hi, unsigned lo)
{
    return (value >> lo) & maskLow(hi - lo + 1);
}

/** @return @p value with bits [lo, hi] replaced by @p field. */
constexpr std::uint64_t
insertBits(std::uint64_t value, unsigned hi, unsigned lo,
           std::uint64_t field)
{
    const std::uint64_t m = maskLow(hi - lo + 1) << lo;
    return (value & ~m) | ((field << lo) & m);
}

/** @return true if @p value is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** @return floor(log2(value)); value must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(std::countl_zero(value));
}

/** @return ceil(log2(value)); value must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t value)
{
    return isPowerOfTwo(value) ? floorLog2(value) : floorLog2(value) + 1;
}

/** @return the low @p width bits of @p v in reverse order (bit 0 of
 * the result is bit width-1 of the input); upper bits are dropped.
 * Used to derive reflected CRC polynomials from their normal form. */
constexpr std::uint64_t
bitReverse(std::uint64_t v, unsigned width)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < width; ++i)
        r = (r << 1) | ((v >> i) & 1);
    return r;
}

/**
 * Truncate the low @p n bits of a raw word before hashing.
 *
 * This is the approximation operator of ld_crc/reg_crc: clearing the n
 * least-significant bits of the IEEE-754 (or integer) representation rounds
 * the value toward zero by a relative (float) or absolute (integer)
 * precision, so nearby inputs hash identically and hit the LUT.
 */
constexpr std::uint64_t
truncateLsbs(std::uint64_t raw, unsigned n)
{
    return n == 0 ? raw : (raw & ~maskLow(n));
}

/** Bit-cast a float to its 32-bit pattern. */
inline std::uint32_t
floatBits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

/** Bit-cast a 32-bit pattern to float. */
inline float
bitsToFloat(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

/** Bit-cast a double to its 64-bit pattern. */
inline std::uint64_t
doubleBits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** Bit-cast a 64-bit pattern to double. */
inline double
bitsToDouble(std::uint64_t u)
{
    return std::bit_cast<double>(u);
}

/** Apply LSB truncation to a float value through its bit pattern. */
inline float
truncateFloat(float f, unsigned n)
{
    return bitsToFloat(
        static_cast<std::uint32_t>(truncateLsbs(floatBits(f), n)));
}

} // namespace axmemo

#endif // AXMEMO_COMMON_BITS_HH
