#include "simd/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/bit_util.h"
#include "common/panic.h"
#include "ntt/ntt.h"
#include "rns/modulus.h"
#include "simd/simd_internal.h"
#include "simd/vector_kernels.h"

namespace heat::simd {

namespace detail {

void
addModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const uint64_t s = a[i] + b[i];
        dst[i] = s >= q ? s - q : s;
    }
}

void
subModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
}

void
negateModScalar(uint64_t *a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

void
mulShoupOutScalar(uint64_t *dst, const uint64_t *src, size_t n,
                  const rns::Modulus &q, uint64_t w, uint64_t w_shoup)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.mulShoup(src[i], w, w_shoup);
}

void
mulModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                size_t n, const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.mul(a[i], b[i]);
}

void
macModScalar(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
             const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] = q.add(acc[i], q.mul(a[i], b[i]));
}

void
reduceU32Scalar(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.reduce(src[i]);
}

void
automorphNttScalar(uint64_t *out, const uint64_t *in, const uint32_t *map,
                   size_t n)
{
    for (size_t j = 0; j < n; ++j)
        out[j] = in[map[j]];
}

namespace {

/** One 64-bit lane: the HPS kernels' scalar bodies. */
struct ScalarLanes
{
    using Reg = uint64_t;
    static constexpr size_t kLanes = 1;

    static Reg load(const uint64_t *p) { return *p; }
    static void store(uint64_t *p, Reg x) { *p = x; }
    static Reg set1(uint64_t x) { return x; }
    static Reg add(Reg a, Reg b) { return a + b; }
    static Reg sub(Reg a, Reg b) { return a - b; }
    static Reg mul32(Reg a, Reg b) { return lo32(a) * lo32(b); }
    static Reg srl32(Reg a) { return a >> 32; }
    static Reg srl(Reg a, int s) { return a >> s; }
    static Reg lo32(Reg a) { return a & 0xffffffffu; }
    static Reg csub(Reg x, Reg k) { return x >= k ? x - k : x; }
};

} // namespace

void
hpsConvertScalar(const HpsConvertPlan &plan, const uint64_t *const *in_rows,
                 uint64_t *const *out_rows, size_t begin, size_t end)
{
    Hps<ScalarLanes>::convertRows(plan, in_rows, out_rows, begin, end);
}

void
hpsScaleScalar(const HpsScalePlan &plan, const HpsConvertPlan *back,
               const uint64_t *const *in_rows, uint64_t *const *out_rows,
               uint64_t *const *broadcast_rows, size_t begin, size_t end)
{
    Hps<ScalarLanes>::scaleRows(plan, back, in_rows, out_rows,
                                broadcast_rows, begin, end);
}

namespace {

void
nttForwardScalarEntry(uint64_t *a, const ntt::NttTables &tables)
{
    ntt::forwardNttScalar({a, tables.degree()}, tables);
}

void
nttInverseScalarEntry(uint64_t *a, const ntt::NttTables &tables)
{
    ntt::inverseNttScalar({a, tables.degree()}, tables);
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels table = {
        .level = Level::kScalar,
        .ntt_forward = nttForwardScalarEntry,
        .ntt_inverse = nttInverseScalarEntry,
        .add_mod_out = addModOutScalar,
        .sub_mod_out = subModOutScalar,
        .negate_mod = negateModScalar,
        .mul_shoup_out = mulShoupOutScalar,
        .mul_mod_out = mulModOutScalar,
        .mac_mod = macModScalar,
        .reduce_u32 = reduceU32Scalar,
        .automorph_ntt = automorphNttScalar,
        .hps_convert = Hps<ScalarLanes>::convertBatch,
        .hps_scale = Hps<ScalarLanes>::scaleBatch,
    };
    return table;
}

} // namespace detail

Mod32Constants
mod32Constants(const rns::Modulus &q)
{
    const uint64_t qv = q.value();
    Mod32Constants c;
    c.q = qv;
    c.phi1 = static_cast<uint64_t>((uint128_t(1) << 32) / qv);
    c.c32 = static_cast<uint64_t>((uint128_t(1) << 32) % qv);
    c.phi_c32 = static_cast<uint64_t>((uint128_t(c.c32) << 32) / qv);
    c.bits = 64 - std::countl_zero(qv);
    if (eligibleModulus(qv))
        c.mu = static_cast<uint64_t>((uint64_t(1) << (2 * c.bits)) / qv);
    return c;
}

bool
isBlockwiseMap(const uint32_t *map, size_t n)
{
    for (size_t j = 0; j < n; ++j) {
        if (map[j] >= n)
            return false;
        for (size_t block = 2; block <= std::min(n, kMaxLanes); block *= 2) {
            const uint32_t first = map[j & ~(block - 1)];
            if ((map[j] ^ first) >= block)
                return false;
        }
    }
    return true;
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::kScalar:
        return "scalar";
    case Level::kAvx2:
        return "avx2";
    case Level::kAvx512:
        return "avx512";
    }
    return "unknown";
}

Level
detectedLevel()
{
    static const Level level = [] {
#if defined(HEAT_HAVE_AVX512)
        if (__builtin_cpu_supports("avx512f"))
            return Level::kAvx512;
#endif
#if defined(HEAT_HAVE_AVX2)
        if (__builtin_cpu_supports("avx2"))
            return Level::kAvx2;
#endif
        return Level::kScalar;
    }();
    return level;
}

const Kernels &
kernelsFor(Level level)
{
    panicIf(level > detectedLevel(),
            "requested SIMD level is not available on this host/build");
    switch (level) {
    case Level::kScalar:
        return detail::scalarKernels();
    case Level::kAvx2:
#if defined(HEAT_HAVE_AVX2)
        return detail::avx2Kernels();
#else
        break;
#endif
    case Level::kAvx512:
#if defined(HEAT_HAVE_AVX512)
        return detail::avx512Kernels();
#else
        break;
#endif
    }
    panic("SIMD level not compiled into this binary");
}

namespace {

/**
 * Initial level: the detected maximum, lowered by HEAT_SIMD. Requests
 * above the detected level clamp down (so HEAT_SIMD=avx512 is safe in
 * scripts that run on mixed fleets); unrecognized values are fatal.
 */
Level
initialLevel()
{
    Level level = detectedLevel();
    const char *env = std::getenv("HEAT_SIMD");
    if (env == nullptr || *env == '\0')
        return level;
    Level requested;
    if (std::strcmp(env, "scalar") == 0)
        requested = Level::kScalar;
    else if (std::strcmp(env, "avx2") == 0)
        requested = Level::kAvx2;
    else if (std::strcmp(env, "avx512") == 0)
        requested = Level::kAvx512;
    else
        fatal("HEAT_SIMD must be scalar, avx2 or avx512");
    return requested < level ? requested : level;
}

std::atomic<const Kernels *> g_active{nullptr};

} // namespace

const Kernels &
active()
{
    const Kernels *k = g_active.load(std::memory_order_acquire);
    if (k == nullptr) {
        // Benign race: concurrent first calls resolve the same table.
        k = &kernelsFor(initialLevel());
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

Level
activeLevel()
{
    return active().level;
}

void
setLevel(Level level)
{
    if (level > detectedLevel())
        level = detectedLevel();
    g_active.store(&kernelsFor(level), std::memory_order_release);
}

} // namespace heat::simd
