/**
 * @file
 * A word-sized prime modulus with precomputed reduction constants.
 *
 * The paper's RNS bases are built from 30-bit primes so that a 30x30-bit
 * product fits the FPGA DSP datapath and a 60-bit product can be reduced
 * with the sliding-window method (Sec. V-A4). This class supports primes up
 * to 2^62 (the larger Table V parameter sets stay at 30 bits, but tests
 * exercise other widths) and offers three reduction algorithms:
 *
 *  - Barrett reduction (the classic baseline the paper rejects as too
 *    costly in hardware),
 *  - Shoup multiplication for multiplications by known constants
 *    (twiddle factors) — the software library's fast path,
 *  - the paper's sliding-window reduction with a 64-entry table of
 *    w * 2^30 mod q, fully unrolled in hardware; here it is the functional
 *    model used by the hardware simulator and verified against Barrett.
 */

#ifndef HEAT_RNS_MODULUS_H
#define HEAT_RNS_MODULUS_H

#include <array>
#include <cstdint>

#include "common/bit_util.h"

namespace heat::rns {

/** Width (bits) of the RNS primes used by the paper's parameter sets. */
constexpr int kRnsPrimeBits = 30;

/** A prime modulus with precomputed Barrett and sliding-window constants. */
class Modulus
{
  public:
    Modulus() = default;

    /** Construct from a prime @p value (2 < value < 2^62). */
    explicit Modulus(uint64_t value);

    /** @return the modulus value q. */
    uint64_t value() const { return value_; }

    /** @return bit width of q. */
    int bits() const { return bits_; }

    /** @return x mod q for any 64-bit x (Barrett reduction). */
    uint64_t
    reduce(uint64_t x) const
    {
        // quot = floor(x * floor(2^64/q) / 2^64) is floor(x/q) or one
        // below it, so one conditional subtraction finishes.
        const uint64_t r = x - mulHigh64(x, barrett64_) * value_;
        return r >= value_ ? r - value_ : r;
    }

    /** @return x mod q for a 128-bit x (two-level Barrett reduction). */
    uint64_t reduce128(uint128_t x) const;

    /** @return (a + b) mod q for a, b in [0, q). */
    uint64_t
    add(uint64_t a, uint64_t b) const
    {
        uint64_t s = a + b;
        return s >= value_ ? s - value_ : s;
    }

    /** @return (a - b) mod q for a, b in [0, q). */
    uint64_t
    sub(uint64_t a, uint64_t b) const
    {
        return a >= b ? a - b : a + value_ - b;
    }

    /** @return -a mod q for a in [0, q). */
    uint64_t
    negate(uint64_t a) const
    {
        return a == 0 ? 0 : value_ - a;
    }

    /** @return (a * b) mod q for a, b in [0, q). */
    uint64_t
    mul(uint64_t a, uint64_t b) const
    {
        return reduce128(mulWide64(a, b));
    }

    /**
     * Precompute the Shoup constant floor(w * 2^64 / q) for repeated
     * multiplications by the fixed operand @p w in [0, q).
     */
    uint64_t shoupPrecompute(uint64_t w) const;

    /**
     * Shoup modular multiplication a * w mod q where @p w_shoup was
     * produced by shoupPrecompute(w). One mulhi + one mullo + one
     * conditional subtraction; this is the software NTT's inner loop.
     */
    uint64_t
    mulShoup(uint64_t a, uint64_t w, uint64_t w_shoup) const
    {
        uint64_t quot = mulHigh64(a, w_shoup);
        uint64_t r = a * w - quot * value_;
        return r >= value_ ? r - value_ : r;
    }

    /**
     * Lazy Shoup multiplication: result in [0, 2q) without the final
     * conditional subtraction. Valid for any 64-bit @p a with w < q;
     * the Harvey-style NTT keeps intermediate values in [0, 4q) and
     * uses this in its inner loop.
     */
    uint64_t
    mulShoupLazy(uint64_t a, uint64_t w, uint64_t w_shoup) const
    {
        return a * w - mulHigh64(a, w_shoup) * value_;
    }

    /** @return (base ^ exp) mod q. */
    uint64_t pow(uint64_t base, uint64_t exp) const;

    /** @return multiplicative inverse of a mod q (a != 0, q prime). */
    uint64_t inverse(uint64_t a) const;

    /**
     * Sliding-window reduction of a value x < 2^60 (a 30x30-bit product)
     * using the 64-entry table of w * 2^30 mod q. Matches the hardware
     * datapath of Fig. 4: fold the top 6 bits repeatedly, then apply at
     * most two conditional subtractions. Only valid for 30-bit moduli.
     *
     * @param x value below 2^60.
     * @return x mod q.
     */
    uint64_t slidingWindowReduce(uint64_t x) const;

    /**
     * Number of fold iterations the unrolled sliding-window circuit needs
     * for a 60-bit input (used by the hardware resource/timing model).
     */
    static constexpr int kSlidingWindowStages = 6;

    /** @return the w * 2^30 mod q reduction table (for the HW model). */
    const std::array<uint64_t, 64> &reductionTable() const { return table_; }

    bool operator==(const Modulus &o) const { return value_ == o.value_; }
    bool operator!=(const Modulus &o) const { return value_ != o.value_; }

  private:
    uint64_t value_ = 0;
    int bits_ = 0;
    /** floor(2^64 / q) for 64-bit Barrett. */
    uint64_t barrett64_ = 0;
    /** floor(2^128 / q) as two 64-bit words (hi, lo) for 128-bit Barrett. */
    uint64_t barrett128_hi_ = 0;
    uint64_t barrett128_lo_ = 0;
    /** Sliding-window table: table_[w] = w * 2^30 mod q. */
    std::array<uint64_t, 64> table_{};
};

} // namespace heat::rns

#endif // HEAT_RNS_MODULUS_H
