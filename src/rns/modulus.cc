#include "rns/modulus.h"

#include "common/panic.h"
#include "mp/bigint.h"
#include "mp/primality.h"

namespace heat::rns {

Modulus::Modulus(uint64_t value)
{
    fatalIf(value < 3, "Modulus must be at least 3");
    fatalIf(value >= (uint64_t(1) << 62), "Modulus must be below 2^62");
    value_ = value;
    bits_ = heat::bitLength(value);

    // floor(2^64 / q).
    barrett64_ = static_cast<uint64_t>(~uint128_t(0) / value) +
                 ((~uint128_t(0) % value) + 1 == value ? 1 : 0);
    // A cleaner exact computation via BigInt avoids the wraparound
    // subtlety above; overwrite with the exact value.
    {
        mp::BigInt ratio = mp::BigInt::powerOfTwo(64) / mp::BigInt(
            static_cast<int64_t>(value));
        barrett64_ = ratio.toUint64();
        mp::BigInt ratio128 = mp::BigInt::powerOfTwo(128) /
                              mp::BigInt(static_cast<int64_t>(value));
        barrett128_lo_ = (ratio128 % mp::BigInt::powerOfTwo(64)).toUint64();
        barrett128_hi_ = (ratio128 >> 64).toUint64();
    }

    if (bits_ <= kRnsPrimeBits) {
        for (uint64_t w = 0; w < 64; ++w)
            table_[w] = (w << kRnsPrimeBits) % value;
    }
}

uint64_t
Modulus::reduce128(uint128_t x) const
{
    // Two-word Barrett reduction (SEAL-style). Let x = x1*2^64 + x0 and
    // m = floor(2^128/q) = m1*2^64 + m0. Estimate floor(x/q) by the top
    // 64 bits of (x * m) / 2^128 and correct with conditional subtracts.
    const uint64_t x0 = static_cast<uint64_t>(x);
    const uint64_t x1 = static_cast<uint64_t>(x >> 64);

    // tmp1 = floor(x0 * m1 / 2^64) + floor(x1 * m0 / 2^64) fragments,
    // carefully accumulating the cross terms of the 256-bit product.
    uint128_t cross0 = mulWide64(x0, barrett128_hi_);
    uint128_t cross1 = mulWide64(x1, barrett128_lo_);
    uint128_t mid = (mulWide64(x0, barrett128_lo_) >> 64) + cross0 + cross1;
    uint64_t quot = static_cast<uint64_t>(mulWide64(
                        x1, barrett128_hi_)) +
                    static_cast<uint64_t>(mid >> 64);

    uint64_t r = x0 - quot * value_;
    while (r >= value_)
        r -= value_;
    return r;
}

uint64_t
Modulus::shoupPrecompute(uint64_t w) const
{
    panicIf(w >= value_, "shoupPrecompute operand out of range");
    // floor(w * 2^64 / q) without a 128-bit division: with m =
    // floor(2^128 / q), floor(w * m / 2^64) is the quotient or one
    // below it (w < q < 2^62). The remainder w * 2^64 - quot * q lies in
    // [0, 2q), so its low word, -quot * q, tells which.
    const uint64_t quot =
        w * barrett128_hi_ + mulHigh64(w, barrett128_lo_);
    const uint64_t rem = 0 - quot * value_;
    return rem >= value_ ? quot + 1 : quot;
}

uint64_t
Modulus::pow(uint64_t base, uint64_t exp) const
{
    return mp::powMod64(base, exp, value_);
}

uint64_t
Modulus::inverse(uint64_t a) const
{
    panicIf(a % value_ == 0, "inverse of zero");
    // q is prime: a^(q-2) mod q.
    return mp::powMod64(a, value_ - 2, value_);
}

uint64_t
Modulus::slidingWindowReduce(uint64_t x) const
{
    panicIf(bits_ > kRnsPrimeBits,
            "sliding-window reduction requires a 30-bit modulus");
    panicIf(x >> 60, "sliding-window input must be below 2^60");

    // Fold the most significant 6 bits step by step. A fold at bit
    // position p >= 30 rewrites w*2^p as (w*2^30 mod q) * 2^(p-30),
    // shrinking the operand by ~5 bits per stage. The unrolled hardware
    // uses kSlidingWindowStages such stages (Sec. V-A4).
    for (int stage = 0; stage < kSlidingWindowStages; ++stage) {
        int len = heat::bitLength(x);
        if (len <= kRnsPrimeBits + 1)
            break;
        int p = len - 6;
        if (p < kRnsPrimeBits)
            p = kRnsPrimeBits;
        uint64_t w = x >> p;
        panicIf(w >= 64, "sliding window wider than 6 bits");
        x = (x & ((uint64_t(1) << p) - 1)) +
            (table_[w] << (p - kRnsPrimeBits));
    }

    // Final correction. For primes near 2^30 (the paper's case) the
    // sub-2^31 intermediate needs at most a subtraction of q or 2q; the
    // loop also covers smaller 30-bit primes used in tests.
    while (x >= value_)
        x -= value_;
    return x;
}

} // namespace heat::rns
