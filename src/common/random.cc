#include "common/random.h"

#include "common/panic.h"

namespace heat {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Xoshiro256::Xoshiro256(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

uint64_t
Xoshiro256::uniformBelow(uint64_t bound)
{
    panicIf(bound == 0, "uniformBelow(0)");
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

double
Xoshiro256::uniformDouble()
{
    // 53 top bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace heat
