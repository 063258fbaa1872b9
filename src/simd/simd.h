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
 * The kernels: forward and inverse negacyclic NTTs; the dyadic residue
 * loops (add, sub and pointwise multiply out of place, whose in-place
 * members pass dst = a; negate, Shoup multiply, MAC and the u32 digit
 * reduction); the NTT-domain automorphism (automorph_ntt, one block
 * load and one in-register lane permute per vector); and the fused HPS
 * kernels, hps_convert (Lift q->p and the p->q back-conversion) and
 * hps_scale (Scale Blocks 1-4, optionally chained into the
 * back-conversion and the WordDecomp digit broadcast), each one
 * in-register pass per vector of coefficients.
 *
 * Vector paths use 32-bit Shoup/Harvey lazy reduction (one vpmuludq
 * per 64-bit product half) and, for the pointwise product, a 32-bit
 * Barrett reduction (three vpmuludq), which bound lane values by 2^32:
 * only moduli below kLaneModulusBound (2^30, the paper's RNS prime
 * width) vectorize. Every multiplying kernel checks its modulus and falls
 * back to the scalar body for wider primes (add, sub and negate need
 * no bound), so callers never need to branch. The
 * vector NTTs vectorise every stage: the stages narrower than a vector
 * run in registers on two-vector chunks, the wider ones two stages to a
 * load/store pass.
 *
 * The scalar table has bodies of its own (simd.cc), the oracle the
 * tests hold the others to. The AVX2 and AVX-512 tables share one
 * body per kernel, written over a lane type in vector_kernels.h; each
 * ISA file supplies only its lane primitives, its in-register NTT
 * stages and a one-line table.
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
#include <vector>

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
 * Per-modulus constants for the 32-bit Shoup and Barrett reduction
 * chains of the vector kernels (mul_mod, reduce_u32 and the HPS plans).
 * Cheap to build (four divisions). Only meaningful for q <
 * kLaneModulusBound.
 */
struct Mod32Constants
{
    uint64_t q = 0;
    uint64_t phi1 = 0;      ///< floor(2^32 / q): Shoup constant for w = 1
    uint64_t c32 = 0;       ///< 2^32 mod q
    uint64_t phi_c32 = 0;   ///< floor(c32 * 2^32 / q)
    int bits = 0;           ///< k = bit length of q
    uint64_t mu = 0;        ///< floor(2^2k / q): Barrett constant, < 2^31
};

Mod32Constants mod32Constants(const rns::Modulus &q);

/** Lanes of the widest table (AVX-512's eight 64-bit lanes). */
inline constexpr size_t kMaxLanes = 8;

/**
 * Whether @p map (n entries, n a power of two) is an automorph_ntt
 * map: every entry is below n, and for each B = 2, 4, .. up to
 * min(n, kMaxLanes), every aligned block of B entries names sources in
 * one aligned block of B. In bit-reversed NTT order every
 * fv::galoisNttIndexMap has this form: within an aligned block only
 * the low b bits of j vary, and they are the top b bits of the
 * exponent 2 bitrev(j) + 1; the low bits of its product with g modulo
 * 2n depend only on the low bits of the factors, so they are fixed,
 * and bit-reversed again they are the source's high bits.
 */
bool isBlockwiseMap(const uint32_t *map, size_t n);

/**
 * Largest sum the HPS kernels take: source primes of a conversion, q
 * primes + 1 of a scale (Table V rows 0-2; the per-coefficient paths
 * cover wider bases).
 */
inline constexpr size_t kHpsMaxTerms = 32;

/**
 * Constants of one HPS base conversion from a base of from_size
 * primes q_i to one of to_size primes b_j, precomputed by
 * rns::FastBaseConverter. Every prime is below kLaneModulusBound.
 */
struct HpsConvertPlan
{
    size_t from_size = 0; ///< <= kHpsMaxTerms
    size_t to_size = 0;
    /** v' = round(sum_i lambda_i * recip[i] / 2^frac_bits);
     *  33 <= frac_bits < 96. */
    int frac_bits = 0;
    std::vector<Mod32Constants> from_mod;
    /** lambda_i = x_i * tilde[i] mod q_i, with tilde_phi[i] =
     *  floor(tilde[i] * 2^32 / q_i). */
    std::vector<uint64_t> tilde, tilde_phi;
    std::vector<uint64_t> recip; ///< <= 2^60
    /** to_size rows of from_size + 1: (q / q_i) mod b_j, then v''s
     *  weight (b_j - q mod b_j) mod b_j. */
    std::vector<uint64_t> weights;
    std::vector<Mod32Constants> to_mod;
};

/**
 * Constants of one HPS scale round(t x / q) from the full base q * p
 * into p, precomputed by rns::ScaleRounder. Every prime is below
 * kLaneModulusBound.
 */
struct HpsScalePlan
{
    size_t q_size = 0; ///< q_size + 1 <= kHpsMaxTerms
    size_t p_size = 0;
    int frac_bits = 0; ///< fixed point of frac, in [33, 96)
    std::vector<uint64_t> frac; ///< R_i * 2^frac_bits, <= 2^60
    /** p_size rows of q_size + 1: I_i mod p_j, then the weight of the
     *  coefficient's own p_j residue. */
    std::vector<uint64_t> weights;
    std::vector<Mod32Constants> p_mod;
};

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

    /**
     * Dyadic kernels: dst[i] = (a[i] op b[i]) mod q with inputs in
     * [0, q); add and sub take any modulus. @p dst may alias @p a or
     * @p b; otherwise it must not overlap either.
     */
    void (*add_mod_out)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                        size_t n, uint64_t q);
    void (*sub_mod_out)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                        size_t n, uint64_t q);

    /** a[i] = -a[i] mod q; inputs in [0, q). Any modulus. */
    void (*negate_mod)(uint64_t *a, size_t n, uint64_t q);

    /**
     * dst[i] = src[i] * w mod q with w in [0, q) and w_shoup =
     * Modulus::shoupPrecompute(w). Inputs in [0, q); @p dst may be
     * @p src.
     */
    void (*mul_shoup_out)(uint64_t *dst, const uint64_t *src, size_t n,
                          const rns::Modulus &q, uint64_t w,
                          uint64_t w_shoup);

    /** dst[i] = a[i] * b[i] mod q, aliasing as add_mod_out. */
    void (*mul_mod_out)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                        size_t n, const rns::Modulus &q);

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
     * out[j] = in[map[j]] for j < n: the NTT-domain automorphism, an
     * index-mapped read. @p map must be blockwise (isBlockwiseMap), so
     * a vector table moves each vector as one aligned block load and
     * one in-register lane permute. @p out must not overlap @p in.
     */
    void (*automorph_ntt)(uint64_t *out, const uint64_t *in,
                          const uint32_t *map, size_t n);

    /**
     * HPS base conversion, one pass per vector of coefficients:
     * out_rows[j][c] = centered x_c mod b_j, with x_c the value whose
     * residues are in_rows[i][c] (Lift q->p and Scale's p->q switch).
     * In registers per vector: lambda_i = x_i * q~_i mod q_i (Shoup),
     * v' = round(sum_i lambda_i * recip_i / 2^frac_bits) exactly, and
     * each output sum_i lambda_i * (q*_i mod b_j) + v' * (b_j - q mod
     * b_j) in a 64-bit accumulator, folded every 15 terms and reduced
     * once. Bit-identical to FastBaseConverter::convert per
     * coefficient. Preconditions: see HpsConvertPlan.
     */
    void (*hps_convert)(const HpsConvertPlan &plan,
                        const uint64_t *const *in_rows,
                        uint64_t *const *out_rows, size_t count);

    /**
     * HPS Scale (Fig. 9 Blocks 1-4), one pass per vector: y_j =
     * round(t x / q) mod p_j from the q_size + p_size full-base
     * in_rows, Block 1's fractional sum exact, Blocks 2-4 one 64-bit
     * sum of products plus the rounded term. With @p back null,
     * out_rows[j] receives y_j (p_size rows). Otherwise Block 5 runs
     * in the same registers: out_rows receive the back->to_size rows
     * of y switched by @p back (whose source base is the p base), and
     * @p broadcast_rows, when non-null, the WordDecomp digits: row
     * d * to_size + c holds output row d reduced mod destination
     * prime c. Bit-identical to ScaleRounder::scale (then
     * FastBaseConverter::convert) per coefficient.
     */
    void (*hps_scale)(const HpsScalePlan &plan, const HpsConvertPlan *back,
                      const uint64_t *const *in_rows,
                      uint64_t *const *out_rows,
                      uint64_t *const *broadcast_rows, size_t count);

    // In place: the out-of-place entries with dst = a.

    /** a[i] = (a[i] + b[i]) mod q; inputs in [0, q). Any modulus. */
    void
    add_mod(uint64_t *a, const uint64_t *b, size_t n, uint64_t q) const
    {
        add_mod_out(a, a, b, n, q);
    }

    /** a[i] = (a[i] - b[i]) mod q; inputs in [0, q). Any modulus. */
    void
    sub_mod(uint64_t *a, const uint64_t *b, size_t n, uint64_t q) const
    {
        sub_mod_out(a, a, b, n, q);
    }

    /** a[i] = a[i] * w mod q; see mul_shoup_out. */
    void
    mul_shoup(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
              uint64_t w_shoup) const
    {
        mul_shoup_out(a, a, n, q, w, w_shoup);
    }

    /** a[i] = a[i] * b[i] mod q; inputs in [0, q). */
    void
    mul_mod(uint64_t *a, const uint64_t *b, size_t n,
            const rns::Modulus &q) const
    {
        mul_mod_out(a, a, b, n, q);
    }
};

/** @return the active kernel table (HEAT_SIMD-aware, CPU-detected). */
const Kernels &active();

/**
 * @return the table for a specific level; panics if @p level exceeds
 * detectedLevel(). Lets tests and benches pin a path explicitly.
 */
const Kernels &kernelsFor(Level level);

} // namespace heat::simd

#endif // HEAT_SIMD_SIMD_H
