#include "fv/galois.h"

#include "common/bit_util.h"
#include "common/panic.h"
#include "mp/primality.h"

namespace heat::fv {

bool
isValidGaloisElement(uint32_t g, size_t degree)
{
    return (g & 1) != 0 && g < 2 * static_cast<uint64_t>(degree);
}

void
applyGaloisToResidue(std::span<const uint64_t> in, std::span<uint64_t> out,
                     uint32_t g, const rns::Modulus &modulus)
{
    const size_t n = in.size();
    panicIf(out.size() != n, "galois output size mismatch");
    panicIf(!isValidGaloisElement(g, n), "galois element must be odd, < 2n");
    const uint64_t mask = 2 * n - 1; // 2n is a power of two
    for (size_t i = 0; i < n; ++i) {
        const uint64_t j = (static_cast<uint64_t>(i) * g) & mask;
        if (j < n)
            out[j] = in[i];
        else
            out[j - n] = modulus.negate(in[i]);
    }
}

std::vector<size_t>
galoisNttIndexMap(size_t degree, uint32_t g)
{
    panicIf(!isValidGaloisElement(g, degree),
            "galois element must be odd, < 2n");
    const int log_n = log2Floor(degree);
    const uint64_t mask = 2 * degree - 1; // 2n is a power of two
    std::vector<size_t> map(degree);
    for (size_t j = 0; j < degree; ++j) {
        const uint64_t e = 2 * reverseBits(j, log_n) + 1;
        // e*g mod 2n is odd: the exponent 2*bitrev(j')+1 of the
        // source slot j'.
        map[j] = reverseBits(((e * g) & mask) >> 1, log_n);
    }
    return map;
}

size_t
rotationStepPeriod(size_t degree)
{
    // ord(3) mod 2^k is 2^(k-2) for k >= 3, i.e. n/2 — verified here
    // rather than assumed so a non-power-of-two ring cannot slip
    // through with a silently wrong period.
    const uint64_t two_n = 2 * degree;
    panicIf(degree < 4, "rotation period needs degree >= 4");
    const size_t period = degree / 2;
    panicIf(mp::powMod64(3, period, two_n) != 1,
            "3 does not have order n/2 modulo 2n");
    return period;
}

int
normalizeRotationSteps(int64_t steps, size_t degree)
{
    const int64_t period =
        static_cast<int64_t>(rotationStepPeriod(degree));
    const int64_t normalized = ((steps % period) + period) % period;
    return static_cast<int>(normalized);
}

uint32_t
galoisElementForStep(int steps, size_t degree)
{
    // Normalizing first maps negative steps onto the equivalent
    // positive power (3^-s = 3^(period-s)) and congruent step counts
    // onto one canonical element: 3 generates the order-n/2 subgroup
    // permuting the slot "rows", so rotations only exist modulo the
    // row length. Step 0 lands on element 1, the identity.
    const uint64_t two_n = 2 * degree;
    const uint64_t s = static_cast<uint64_t>(
        normalizeRotationSteps(steps, degree));
    return static_cast<uint32_t>(mp::powMod64(3, s, two_n));
}

} // namespace heat::fv
