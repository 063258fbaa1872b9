/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the software backbone.
 *
 * Every randomized differential test, per-worker simulator replay and
 * bench in this repo bottoms out in NTT butterflies and residue loops;
 * this module gives them vectorized bodies without giving up the
 * bit-exact scalar oracle. Three kernel tables — scalar, AVX2,
 * AVX-512 — implement the same contracts; the active table is chosen
 * once from CPUID (overridable with `HEAT_SIMD=scalar|avx2|avx512`,
 * clamped to what the CPU and build support) and every entry produces
 * canonical outputs bit-identical to the scalar implementation.
 *
 * Vector paths use 32-bit Shoup/Harvey lazy reduction (one vpmuludq
 * per 64-bit product half), which bounds lane values by 2^32: only
 * moduli below kLaneModulusBound (2^30, the paper's RNS prime width)
 * vectorize. Every kernel checks its modulus and falls back to the
 * scalar body for wider primes, so callers never need to branch. The
 * vector NTTs vectorise every stage: the stages narrower than a vector
 * run in registers on two-vector chunks, the wider ones two stages to a
 * load/store pass.
 *
 * The AVX2/AVX-512 translation units are compiled with per-file
 * `-mavx2`/`-mavx512f`; nothing else in the library is built with
 * extended ISAs, so the dispatcher — not the compiler — decides what
 * runs on a given host.
 */

#ifndef HEAT_SIMD_SIMD_H
#define HEAT_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>

namespace heat::ntt {
class NttTables;
}
namespace heat::rns {
class Modulus;
}

namespace heat::simd {

/** Instruction-set tier of a kernel table. */
enum class Level
{
    kScalar = 0, ///< portable 64-bit code — the differential oracle
    kAvx2 = 1,   ///< 4 lanes of 64-bit per op
    kAvx512 = 2, ///< 8 lanes of 64-bit per op
};

/** @return "scalar", "avx2" or "avx512". */
const char *levelName(Level level);

/**
 * Largest level both compiled into this binary and supported by the
 * CPU (cached after the first call).
 */
Level detectedLevel();

/**
 * Level of the active kernel table. Starts at detectedLevel() lowered
 * by the HEAT_SIMD environment override, if any.
 */
Level activeLevel();

/**
 * Point the dispatcher at @p level's table (clamped to
 * detectedLevel()). Intended for tests and benchmarks; the process
 * default comes from CPUID + HEAT_SIMD.
 */
void setLevel(Level level);

/**
 * Moduli must be below this bound (2^30) for the vectorized paths:
 * Harvey lazy values live in [0, 4q) and must fit the 32-bit lane
 * arithmetic. Wider moduli run the scalar fallback inside each kernel.
 */
inline constexpr uint64_t kLaneModulusBound = uint64_t(1) << 30;

/** @return true iff @p q takes the vector path of the mul kernels. */
inline bool
eligibleModulus(uint64_t q)
{
    return q < kLaneModulusBound;
}

/**
 * One dispatch table. All entries are total functions: they accept
 * any supported modulus and fall back to scalar code when the vector
 * preconditions fail, and their outputs are bit-identical to the
 * scalar table on every input.
 */
struct Kernels
{
    Level level;

    /**
     * In-place forward negacyclic NTT of tables.degree() values.
     * Accepts Harvey lazy inputs in [0, 4q) (for q >= 2^30: [0, q));
     * outputs are canonical [0, q), identical to ntt::forwardNttScalar.
     */
    void (*ntt_forward)(uint64_t *a, const ntt::NttTables &tables);

    /**
     * In-place inverse negacyclic NTT, including the n^{-1} scaling.
     * Inputs in [0, 2q); canonical outputs.
     */
    void (*ntt_inverse)(uint64_t *a, const ntt::NttTables &tables);

    /** a[i] = (a[i] + b[i]) mod q; inputs in [0, q). Any modulus. */
    void (*add_mod)(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);

    /** a[i] = (a[i] - b[i]) mod q; inputs in [0, q). Any modulus. */
    void (*sub_mod)(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);

    /** a[i] = -a[i] mod q; inputs in [0, q). Any modulus. */
    void (*negate_mod)(uint64_t *a, size_t n, uint64_t q);

    /**
     * a[i] = a[i] * w mod q with w in [0, q) and w_shoup =
     * Modulus::shoupPrecompute(w). Inputs in [0, q).
     */
    void (*mul_shoup)(uint64_t *a, size_t n, const rns::Modulus &q,
                      uint64_t w, uint64_t w_shoup);

    /** Out-of-place variant: dst[i] = src[i] * w mod q. */
    void (*mul_shoup_out)(uint64_t *dst, const uint64_t *src, size_t n,
                          const rns::Modulus &q, uint64_t w,
                          uint64_t w_shoup);

    /** a[i] = a[i] * b[i] mod q; inputs in [0, q). */
    void (*mul_mod)(uint64_t *a, const uint64_t *b, size_t n,
                    const rns::Modulus &q);

    /** acc[i] = (acc[i] + a[i] * b[i]) mod q; inputs in [0, q). */
    void (*mac_mod)(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                    size_t n, const rns::Modulus &q);

    /**
     * dst[i] = src[i] mod q for src[i] < 2^32 (the digit-broadcast
     * reduction of rnsDigits). Caller guarantees the value bound.
     */
    void (*reduce_u32)(uint64_t *dst, const uint64_t *src, size_t n,
                       const rns::Modulus &q);

    /**
     * Exact 128-bit sum of products per lane:
     *   (hi[j], lo[j]) = sum_i rows[i][j] * weights[i]
     * for j in [0, count). Preconditions: rows values < 2^30,
     * weights <= 2^60, terms <= kSopMaxTerms. This is the shared HPS
     * lift/scale inner loop (ScaleRounder / FastBaseConverter).
     */
    void (*sop128)(const uint64_t *const *rows, const uint64_t *weights,
                   size_t terms, size_t count, uint64_t *lo, uint64_t *hi);

    /** 128-bit lane add: (hi[j], lo[j]) += add[j]. */
    void (*add128_64)(uint64_t *lo, uint64_t *hi, const uint64_t *add,
                      size_t count);

    /**
     * out[j] = (x[j] + 2^(shift-1)) >> shift for the 128-bit lanes
     * x = (hi, lo); 1 <= shift <= 127 and the result must fit 64 bits.
     */
    void (*round_shift128)(const uint64_t *lo, const uint64_t *hi,
                           size_t count, int shift, uint64_t *out);

    /**
     * out[j] = (hi[j] * 2^64 + lo[j]) mod q, canonical; requires
     * hi[j] < 2^32 (Barrett-identical to Modulus::reduce128).
     */
    void (*reduce128_mod)(const uint64_t *lo, const uint64_t *hi,
                          uint64_t *out, size_t count,
                          const rns::Modulus &q);
};

/** Maximum term count sop128 accepts (64-bit partial-sum headroom). */
inline constexpr size_t kSopMaxTerms = 32;

/** @return the active kernel table (HEAT_SIMD-aware, CPU-detected). */
const Kernels &active();

/**
 * @return the table for a specific level; panics if @p level exceeds
 * detectedLevel(). Lets tests and benches pin a path explicitly.
 */
const Kernels &kernelsFor(Level level);

} // namespace heat::simd

#endif // HEAT_SIMD_SIMD_H
