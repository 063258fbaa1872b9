/**
 * @file
 * Deterministic pseudo-random number generation used across the library.
 *
 * Cryptographic deployments would use a CSPRNG; for a reproduction whose
 * goal is performance/architecture fidelity, a fast deterministic
 * xoshiro256** generator keeps every experiment repeatable.
 */

#ifndef HEAT_COMMON_RANDOM_H
#define HEAT_COMMON_RANDOM_H

#include <array>
#include <cstdint>

namespace heat {

/**
 * xoshiro256** 1.0 by Blackman and Vigna (public domain reference
 * implementation re-expressed here). Fast, 256-bit state, passes BigCrush.
 */
class Xoshiro256
{
  public:
    /** Seed the generator; a splitmix64 ladder expands the 64-bit seed. */
    explicit Xoshiro256(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** @return next 64 uniformly random bits. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** @return uniformly random value in [0, bound) (bound > 0). */
    uint64_t uniformBelow(uint64_t bound);

    /** @return uniformly random double in [0, 1). */
    double uniformDouble();

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
};

} // namespace heat

#endif // HEAT_COMMON_RANDOM_H
