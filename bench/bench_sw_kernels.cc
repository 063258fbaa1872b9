/**
 * @file
 * google-benchmark micro suite for the software kernels underpinning
 * both the evaluator and the hardware model: modular reduction variants
 * (Barrett vs Shoup vs the paper's sliding window), NTT transforms
 * across degrees, HPS Lift/Scale per-coefficient and fused batch
 * kernels, the dyadic residue loops, the set-up work (twiddle tables,
 * Gaussian sampling, encryption) and the high-level evaluator
 * operations on the paper's parameter set.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bit_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "fv/sampler.h"
#include "ntt/ntt.h"
#include "ntt/rns_poly.h"
#include "rns/base_convert.h"
#include "rns/prime_gen.h"
#include "rns/scale_round.h"
#include "simd/simd.h"

using namespace heat;

namespace {

rns::Modulus
prime30()
{
    static const uint64_t p = rns::generateNttPrimes(30, 4096, 1)[0];
    return rns::Modulus(p);
}

void
BM_ReduceBarrett(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(1);
    uint64_t x = rng.next() >> 4;
    for (auto _ : state) {
        x = q.reduce128(mulWide64(x | 1, x | 3));
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_ReduceBarrett);

void
BM_ReduceSlidingWindow(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(2);
    uint64_t a = rng.uniformBelow(q.value());
    for (auto _ : state) {
        a = q.slidingWindowReduce(a * (a | 1));
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ReduceSlidingWindow);

void
BM_MulShoup(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(3);
    const uint64_t w = rng.uniformBelow(q.value());
    const uint64_t w_shoup = q.shoupPrecompute(w);
    uint64_t a = rng.uniformBelow(q.value());
    for (auto _ : state) {
        a = q.mulShoup(a | 1, w, w_shoup);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulShoup);

void
BM_ForwardNtt(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    Xoshiro256 rng(4);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        ntt::forwardNtt(a, tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ForwardNtt)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_InverseNtt(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    Xoshiro256 rng(5);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        ntt::inverseNtt(a, tables);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_InverseNtt)->Arg(4096);

void
BM_NttTablesBuild(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    for (auto _ : state) {
        ntt::NttTables tables(q, n);
        benchmark::DoNotOptimize(tables.rootPowers());
    }
}
BENCHMARK(BM_NttTablesBuild)->Arg(1024)->Arg(4096)->Arg(16384);

/**
 * The twiddle tables by their definition, one power per entry and one
 * 128-bit division per Shoup constant: the baseline of the
 * ntt_tables_vs_pow_speedup record.
 */
struct PowPerEntryTables
{
    PowPerEntryTables(const rns::Modulus &q, size_t n)
        : root(n), root_shoup(n), inv_root(n), inv_root_shoup(n)
    {
        const int log_n = log2Floor(n);
        const uint64_t psi = rns::findPrimitiveRoot(q.value(), n);
        const uint64_t psi_inv = q.inverse(psi);
        const auto shoup = [&q](uint64_t w) {
            return static_cast<uint64_t>((uint128_t(w) << 64) / q.value());
        };
        for (size_t i = 0; i < n; ++i) {
            const uint64_t e = reverseBits(i, log_n);
            root[i] = q.pow(psi, e);
            root_shoup[i] = shoup(root[i]);
            inv_root[i] = q.pow(psi_inv, e);
            inv_root_shoup[i] = shoup(inv_root[i]);
        }
    }

    std::vector<uint64_t> root, root_shoup, inv_root, inv_root_shoup;
};

/** A Kernels entry for one NTT direction (ntt_forward or ntt_inverse). */
using NttEntry = void (*simd::Kernels::*)(uint64_t *,
                                          const ntt::NttTables &);

/**
 * One NTT direction pinned to one kernel table (registered per
 * supported level from main, so `BM_ForwardNttLevel/avx2/4096` only
 * exists on hosts that can run it). The unpinned BM_ForwardNtt and
 * BM_InverseNtt above measure whatever the dispatcher picked.
 */
void
BM_NttLevel(benchmark::State &state, simd::Level level, NttEntry entry)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    const auto transform = simd::kernelsFor(level).*entry;
    Xoshiro256 rng(14);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        transform(a.data(), tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

/** RnsPoly fixture shared by the dyadic and transform benchmarks. */
struct DyadicFixture
{
    DyadicFixture(size_t n, size_t moduli, bool ntt_form)
        : base(std::make_shared<const rns::RnsBase>(
              rns::generateNttPrimes(30, n, moduli))),
          context(*base, n),
          a(base, n),
          b(base, n)
    {
        Xoshiro256 rng(15);
        for (size_t i = 0; i < a.residueCount(); ++i) {
            const uint64_t q_i = base->modulus(i).value();
            for (size_t j = 0; j < n; ++j) {
                a.residue(i)[j] = rng.uniformBelow(q_i);
                b.residue(i)[j] = rng.uniformBelow(q_i);
            }
        }
        if (ntt_form) {
            a.toNtt(context);
            b.toNtt(context);
        }
    }

    std::shared_ptr<const rns::RnsBase> base;
    ntt::NttContext context;
    ntt::RnsPoly a, b;
};

/** Restores the process-wide thread count on scope exit. */
struct ThreadGuard
{
    unsigned saved = threadCount();
    ~ThreadGuard() { setThreadCount(saved); }
};

constexpr size_t kDyadicModuli = 3;

/** Full RnsPoly forward+inverse transform pair across residues. */
void
BM_PolyNttRoundTrip(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/false);
    for (auto _ : state) {
        f.a.toNtt(f.context);
        f.a.toCoeff(f.context);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(2 * kDyadicModuli * n));
}
BENCHMARK(BM_PolyNttRoundTrip)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

/** Dyadic ciphertext kernel: residue-wise pointwise multiply. */
void
BM_DyadicMulPointwise(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/true);
    for (auto _ : state) {
        f.a.mulPointwiseInPlace(f.b);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kDyadicModuli * n));
}
BENCHMARK(BM_DyadicMulPointwise)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

/** Dyadic ciphertext kernel: residue-wise addition. */
void
BM_DyadicAdd(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/true);
    for (auto _ : state) {
        f.a.addInPlace(f.b);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kDyadicModuli * n));
}
BENCHMARK(BM_DyadicAdd)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

/** Random operands of the dyadic kernels under a 30-bit prime. */
struct DyadicOperands
{
    explicit DyadicOperands(size_t n)
        : q(prime30()), a(n), b(n), src32(n), dst(n)
    {
        Xoshiro256 rng(18);
        for (size_t i = 0; i < n; ++i) {
            a[i] = rng.uniformBelow(q.value());
            b[i] = rng.uniformBelow(q.value());
            src32[i] = rng.next() >> 32;
        }
        w = rng.uniformBelow(q.value());
        w_shoup = q.shoupPrecompute(w);
    }

    rns::Modulus q;
    uint64_t w = 0, w_shoup = 0;
    std::vector<uint64_t> a, b, src32;
    std::vector<uint64_t> dst; ///< the output; mac_mod's accumulator
};

/** One dyadic entry of a table, run once on the operands. */
using DyadicRun = void (*)(const simd::Kernels &, DyadicOperands &);

/** The seven dyadic entries, by Kernels member name. */
const std::pair<const char *, DyadicRun> kDyadicEntries[] = {
    {"add_mod_out",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.add_mod_out(o.dst.data(), o.a.data(), o.b.data(), o.a.size(),
                       o.q.value());
     }},
    {"sub_mod_out",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.sub_mod_out(o.dst.data(), o.a.data(), o.b.data(), o.a.size(),
                       o.q.value());
     }},
    {"negate_mod",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.negate_mod(o.dst.data(), o.dst.size(), o.q.value());
     }},
    {"mul_shoup_out",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.mul_shoup_out(o.dst.data(), o.a.data(), o.a.size(), o.q, o.w,
                         o.w_shoup);
     }},
    {"mul_mod_out",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.mul_mod_out(o.dst.data(), o.a.data(), o.b.data(), o.a.size(),
                       o.q);
     }},
    {"mac_mod",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.mac_mod(o.dst.data(), o.a.data(), o.b.data(), o.a.size(), o.q);
     }},
    {"reduce_u32",
     [](const simd::Kernels &k, DyadicOperands &o) {
         k.reduce_u32(o.dst.data(), o.src32.data(), o.src32.size(), o.q);
     }},
};

/**
 * One dyadic entry pinned to one kernel table at n = 4096 (registered
 * per supported level from main, like BM_ForwardNttLevel).
 */
void
BM_DyadicLevel(benchmark::State &state, simd::Level level, DyadicRun run)
{
    constexpr size_t kDegree = 4096;
    DyadicOperands o(kDegree);
    const simd::Kernels &k = simd::kernelsFor(level);
    for (auto _ : state) {
        run(k, o);
        benchmark::DoNotOptimize(o.dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kDegree));
}

void
BM_LiftCoefficient(benchmark::State &state)
{
    auto params = fv::FvParams::paper();
    const auto &conv = params->liftConverter();
    Xoshiro256 rng(6);
    std::vector<uint64_t> in(params->qBase()->size());
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = rng.uniformBelow(params->qBase()->modulus(i).value());
    std::vector<uint64_t> out(params->pBase()->size());
    for (auto _ : state) {
        conv.convert(in, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LiftCoefficient);

void
BM_ScaleCoefficient(benchmark::State &state)
{
    auto params = fv::FvParams::paper();
    const auto &scaler = params->scaler();
    Xoshiro256 rng(7);
    std::vector<uint64_t> in(params->fullBase()->size());
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = rng.uniformBelow(params->fullBase()->modulus(i).value());
    std::vector<uint64_t> out(params->pBase()->size());
    for (auto _ : state) {
        scaler.scale(in, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ScaleCoefficient);

/**
 * The paper set's HPS batch operands at n = 4096: random q rows (the
 * Lift's input), random full-base rows (the Scale's) and q-row outputs.
 */
struct HpsFixture
{
    HpsFixture()
        : params(fv::FvParams::paper()),
          q_rows(randomRows(*params->qBase())),
          full_rows(randomRows(*params->fullBase())),
          p_out(params->pBase()->size(),
                std::vector<uint64_t>(params->degree())),
          q_out(params->qBase()->size(),
                std::vector<uint64_t>(params->degree()))
    {
        for (const auto &r : q_rows)
            q_ptrs.push_back(r.data());
        for (const auto &r : full_rows)
            full_ptrs.push_back(r.data());
        for (auto &r : p_out)
            p_ptrs.push_back(r.data());
        for (auto &r : q_out)
            q_out_ptrs.push_back(r.data());
    }

    std::vector<std::vector<uint64_t>>
    randomRows(const rns::RnsBase &base) const
    {
        Xoshiro256 rng(17);
        std::vector<std::vector<uint64_t>> rows(
            base.size(), std::vector<uint64_t>(params->degree()));
        for (size_t i = 0; i < base.size(); ++i)
            for (auto &x : rows[i])
                x = rng.uniformBelow(base.modulus(i).value());
        return rows;
    }

    /** Lift q -> p: one hps_convert call of @p k. */
    void
    lift(const simd::Kernels &k)
    {
        k.hps_convert(*params->liftConverter().batchPlan(), q_ptrs.data(),
                      p_ptrs.data(), params->degree());
    }

    /** Scale Q -> q, Blocks 1-5: one hps_scale call of @p k. */
    void
    scale(const simd::Kernels &k)
    {
        k.hps_scale(*params->scaler().batchPlan(),
                    params->scaleBackConverter().batchPlan(),
                    full_ptrs.data(), q_out_ptrs.data(), nullptr,
                    params->degree());
    }

    std::shared_ptr<const fv::FvParams> params;
    std::vector<std::vector<uint64_t>> q_rows, full_rows, p_out, q_out;
    std::vector<const uint64_t *> q_ptrs, full_ptrs;
    std::vector<uint64_t *> p_ptrs, q_out_ptrs;
};

/**
 * The fused HPS Lift or Scale pinned to one kernel table (registered
 * per supported level from main, like BM_ForwardNttLevel).
 */
void
BM_HpsLevel(benchmark::State &state, simd::Level level, bool scale)
{
    HpsFixture f;
    const simd::Kernels &k = simd::kernelsFor(level);
    for (auto _ : state) {
        if (scale)
            f.scale(k);
        else
            f.lift(k);
        benchmark::DoNotOptimize(scale ? f.q_out_ptrs.data()
                                       : f.p_ptrs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(f.params->degree()));
}

/** Shared fixture for the paper-parameter evaluator benchmarks. */
struct EvalFixture
{
    EvalFixture()
        : params(fv::FvParams::paper()),
          keygen(params, 8),
          sk(keygen.generateSecretKey()),
          pk(keygen.generatePublicKey(sk)),
          rlk(keygen.generateRelinKeys(sk)),
          encryptor(params, pk, 9),
          evaluator(params, fv::ArithPath::kHps),
          exact_evaluator(params, fv::ArithPath::kExactCrt)
    {
        fv::Plaintext m;
        m.coeffs.assign(params->degree(), 1);
        a = encryptor.encrypt(m);
        b = encryptor.encrypt(m);
    }

    static EvalFixture &
    instance()
    {
        static EvalFixture fixture;
        return fixture;
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::KeyGenerator keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    fv::Encryptor encryptor;
    fv::Evaluator evaluator;
    fv::Evaluator exact_evaluator;
    fv::Ciphertext a, b;
};

void
BM_EvaluatorAdd(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.evaluator.add(f.a, f.b);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorAdd)->Unit(benchmark::kMillisecond);

void
BM_SampleGaussianQ(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    fv::Sampler sampler(f.params, 10);
    for (auto _ : state) {
        ntt::RnsPoly e = sampler.gaussianQ();
        benchmark::DoNotOptimize(e.data().data());
    }
}
BENCHMARK(BM_SampleGaussianQ)->Unit(benchmark::kMicrosecond);

void
BM_EncryptPaper(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    fv::Plaintext m;
    m.coeffs.assign(f.params->degree(), 1);
    for (auto _ : state) {
        fv::Ciphertext c = f.encryptor.encrypt(m);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EncryptPaper)->Unit(benchmark::kMicrosecond);

void
BM_EvaluatorMultHps(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.evaluator.multiply(f.a, f.b, f.rlk);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorMultHps)->Unit(benchmark::kMillisecond);

void
BM_EvaluatorMultExactCrt(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.exact_evaluator.multiply(f.a, f.b, f.rlk);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorMultExactCrt)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/**
 * Console output as usual, plus one JSON-lines record per benchmark
 * (ns per iteration) through the shared reporter when --json is given.
 */
class JsonLinesReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonLinesReporter(const heat::bench::JsonReporter &json)
        : json_(json)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const auto &run : runs) {
            if (run.run_type != Run::RT_Iteration || run.iterations == 0)
                continue;
            const double ns = run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e9;
            json_.record(run.benchmark_name(), ns, "ns");
        }
    }

  private:
    const heat::bench::JsonReporter &json_;
};

/** A random canonical NTT operand with its tables at degree n. */
struct NttOperand
{
    explicit NttOperand(size_t n)
        : q(rns::generateNttPrimes(30, n, 1)[0]), tables(q, n), a(n)
    {
        Xoshiro256 rng(16);
        for (auto &x : a)
            x = rng.uniformBelow(q.value());
    }

    rns::Modulus q;
    ntt::NttTables tables;
    std::vector<uint64_t> a;
};

/**
 * Best-of-reps seconds per call of @p first and of @p second (@p iters
 * calls per rep), timed with a plain steady_clock loop so their ratio
 * can be emitted as a single JSON record for a CI gate. Reps alternate
 * between the two, so a slow phase of a shared host lands on both
 * sides of the ratio instead of one.
 */
template <typename First, typename Second>
std::pair<double, double>
bestSecondsPerCall(First &&first, Second &&second, int iters = 200)
{
    const int warmup = std::max(1, iters / 10);
    constexpr int kReps = 5;
    const auto time = [iters](auto &run) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            run();
        const auto stop = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(stop - start).count() /
               iters;
    };
    for (int i = 0; i < warmup; ++i) {
        first();
        second();
    }
    std::pair<double, double> best{1e300, 1e300};
    for (int rep = 0; rep < kReps; ++rep) {
        best.first = std::min(best.first, time(first));
        best.second = std::min(best.second, time(second));
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    heat::bench::JsonReporter json("sw_kernels", argc, argv);

    // Level-pinned NTT benches for every table this host can run.
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                              simd::Level::kAvx512}) {
        if (level > simd::detectedLevel())
            break;
        for (const auto &[prefix, entry] :
             {std::pair<const char *, NttEntry>{
                  "BM_ForwardNttLevel/", &simd::Kernels::ntt_forward},
              std::pair<const char *, NttEntry>{
                  "BM_InverseNttLevel/", &simd::Kernels::ntt_inverse}}) {
            const std::string name =
                std::string(prefix) + simd::levelName(level);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [level, entry = entry](benchmark::State &state) {
                    BM_NttLevel(state, level, entry);
                })
                ->Arg(4096)
                ->Arg(8192);
        }
        for (const auto &[kernel, run] : kDyadicEntries) {
            const std::string name = std::string("BM_DyadicLevel/") +
                                     kernel + "/" + simd::levelName(level);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [level, run = run](benchmark::State &state) {
                    BM_DyadicLevel(state, level, run);
                });
        }
        for (const auto &[prefix, scale] :
             {std::pair<const char *, bool>{"BM_HpsLiftLevel/", false},
              std::pair<const char *, bool>{"BM_HpsScaleLevel/", true}}) {
            const std::string name =
                std::string(prefix) + simd::levelName(level);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [level, scale = scale](benchmark::State &state) {
                    BM_HpsLevel(state, level, scale);
                });
        }
    }

    // Strip --json <path> before google-benchmark sees the arguments;
    // it rejects flags it does not know.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json") {
            if (i + 1 < argc &&
                !std::string_view(argv[i + 1]).starts_with("--"))
                ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;

    JsonLinesReporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);

    // Dispatched-vs-scalar NTT ratios for the CI gates. The dispatched
    // table is whatever CPUID + HEAT_SIMD selected, so on a
    // forced-scalar run (or a host without AVX2) the ratios are ~1.
    {
        constexpr size_t kSpeedupDegree = 8192;
        const simd::Kernels &scalar =
            simd::kernelsFor(simd::Level::kScalar);
        const simd::Kernels &active = simd::active();
        NttOperand op(kSpeedupDegree);
        const auto [forward_scalar, forward_active] = bestSecondsPerCall(
            [&] { scalar.ntt_forward(op.a.data(), op.tables); },
            [&] { active.ntt_forward(op.a.data(), op.tables); });
        const auto [inverse_scalar, inverse_active] = bestSecondsPerCall(
            [&] { scalar.ntt_inverse(op.a.data(), op.tables); },
            [&] { active.ntt_inverse(op.a.data(), op.tables); });
        benchmark::DoNotOptimize(op.a.data());
        const double forward_speedup = forward_scalar / forward_active;
        const double inverse_speedup = inverse_scalar / inverse_active;
        heat::bench::printHeader("SIMD dispatch");
        heat::bench::printInfo(
            std::string("active level: ") +
                simd::levelName(simd::activeLevel()),
            static_cast<double>(simd::activeLevel()), "");
        heat::bench::printInfo("forward NTT scalar (n=8192)",
                               forward_scalar * 1e6, "us");
        heat::bench::printInfo("forward NTT dispatched (n=8192)",
                               forward_active * 1e6, "us");
        heat::bench::printInfo("ntt_simd_vs_scalar_speedup",
                               forward_speedup, "x");
        heat::bench::printInfo("inverse NTT scalar (n=8192)",
                               inverse_scalar * 1e6, "us");
        heat::bench::printInfo("inverse NTT dispatched (n=8192)",
                               inverse_active * 1e6, "us");
        heat::bench::printInfo("ntt_inverse_simd_vs_scalar_speedup",
                               inverse_speedup, "x");
        json.record("cpu_simd_level",
                    static_cast<double>(simd::detectedLevel()), "level");
        json.record("active_simd_level",
                    static_cast<double>(simd::activeLevel()), "level");
        json.record("ntt_simd_vs_scalar_speedup", forward_speedup, "x",
                    kSpeedupDegree, 1);
        json.record("ntt_inverse_simd_vs_scalar_speedup", inverse_speedup,
                    "x", kSpeedupDegree, 1);

        // The same ratios for the fused HPS Lift and Scale (Blocks 1-5)
        // at the paper set.
        HpsFixture hps;
        const size_t n = hps.params->degree();
        const size_t moduli = hps.params->fullBase()->size();
        const auto [lift_scalar, lift_active] = bestSecondsPerCall(
            [&] { hps.lift(scalar); }, [&] { hps.lift(active); });
        const auto [scale_scalar, scale_active] = bestSecondsPerCall(
            [&] { hps.scale(scalar); }, [&] { hps.scale(active); });
        benchmark::DoNotOptimize(hps.p_ptrs.data());
        benchmark::DoNotOptimize(hps.q_out_ptrs.data());
        const double lift_speedup = lift_scalar / lift_active;
        const double scale_speedup = scale_scalar / scale_active;
        heat::bench::printInfo("HPS lift scalar (n=4096)",
                               lift_scalar * 1e6, "us");
        heat::bench::printInfo("HPS lift dispatched (n=4096)",
                               lift_active * 1e6, "us");
        heat::bench::printInfo("hps_lift_simd_vs_scalar_speedup",
                               lift_speedup, "x");
        heat::bench::printInfo("HPS scale scalar (n=4096)",
                               scale_scalar * 1e6, "us");
        heat::bench::printInfo("HPS scale dispatched (n=4096)",
                               scale_active * 1e6, "us");
        heat::bench::printInfo("hps_scale_simd_vs_scalar_speedup",
                               scale_speedup, "x");
        json.record("hps_lift_simd_vs_scalar_speedup", lift_speedup, "x", n,
                    moduli);
        json.record("hps_scale_simd_vs_scalar_speedup", scale_speedup, "x",
                    n, moduli);

        // And for the dyadic multiply, out of place: a vector loop that
        // fell through to its scalar tail would still be bit-identical,
        // but would read ~1x here.
        DyadicOperands dy(kSpeedupDegree);
        const auto mul = [&](const simd::Kernels &k) {
            k.mul_mod_out(dy.dst.data(), dy.a.data(), dy.b.data(),
                          kSpeedupDegree, dy.q);
        };
        const auto [mul_scalar, mul_active] = bestSecondsPerCall(
            [&] { mul(scalar); }, [&] { mul(active); });
        benchmark::DoNotOptimize(dy.dst.data());
        const double mul_speedup = mul_scalar / mul_active;
        heat::bench::printInfo("dyadic mul scalar (n=8192)",
                               mul_scalar * 1e6, "us");
        heat::bench::printInfo("dyadic mul dispatched (n=8192)",
                               mul_active * 1e6, "us");
        heat::bench::printInfo("dyadic_mul_simd_vs_scalar_speedup",
                               mul_speedup, "x");
        json.record("dyadic_mul_simd_vs_scalar_speedup", mul_speedup, "x",
                    kSpeedupDegree, 1);
    }

    // Set-up: one 30-bit prime's twiddle tables by running products
    // against one power per entry, for the CI >= 3x gate. A
    // same-process ratio, so the runner's speed cancels.
    {
        constexpr size_t kTablesDegree = 4096;
        const rns::Modulus q(rns::generateNttPrimes(30, kTablesDegree, 1)[0]);
        const auto [built_s, pow_s] = bestSecondsPerCall(
            [&] {
                ntt::NttTables tables(q, kTablesDegree);
                benchmark::DoNotOptimize(tables.rootPowers());
            },
            [&] {
                PowPerEntryTables tables(q, kTablesDegree);
                benchmark::DoNotOptimize(tables.root.data());
            },
            /*iters=*/10);
        const double tables_speedup = pow_s / built_s;
        heat::bench::printHeader("set-up");
        heat::bench::printInfo("NTT tables, running products (n=4096)",
                               built_s * 1e6, "us");
        heat::bench::printInfo("NTT tables, pow per entry (n=4096)",
                               pow_s * 1e6, "us");
        heat::bench::printInfo("ntt_tables_vs_pow_speedup", tables_speedup,
                               "x");
        json.record("ntt_tables_vs_pow_speedup", tables_speedup, "x",
                    kTablesDegree, 1);
    }

    // Disabled-instrumentation overhead of the OBS_SPAN macro on the
    // forward-NTT dispatcher, for the CI < 2% gate: the raw kernel
    // table against the instrumented ntt::forwardNtt, which with no
    // tracer installed must cost one relaxed atomic load + branch.
    // Best-of-reps on both sides so scheduler noise cancels; the
    // result can go slightly negative on a quiet machine.
    {
        constexpr size_t kOverheadDegree = 8192;
        const simd::Kernels &active = simd::active();
        NttOperand op(kOverheadDegree);
        const auto [raw_secs, instrumented_secs] = bestSecondsPerCall(
            [&] { active.ntt_forward(op.a.data(), op.tables); },
            [&] { ntt::forwardNtt(op.a, op.tables); });
        benchmark::DoNotOptimize(op.a.data());
        const double overhead_pct =
            (instrumented_secs / raw_secs - 1.0) * 100.0;
        heat::bench::printHeader("observability overhead");
        heat::bench::printInfo("forward NTT raw table (n=8192)",
                               raw_secs * 1e6, "us");
        heat::bench::printInfo("forward NTT instrumented (n=8192)",
                               instrumented_secs * 1e6, "us");
        heat::bench::printInfo("obs_span_disabled_overhead_pct",
                               overhead_pct, "%");
        json.record("obs_span_disabled_overhead_pct", overhead_pct, "%",
                    kOverheadDegree, 1);
    }

    benchmark::Shutdown();
    return 0;
}
