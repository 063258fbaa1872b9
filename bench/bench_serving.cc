/**
 * @file
 * Multi-tenant serving benchmark: modeled p50/p99 request latency of
 * the hardened ExecutionService under open-loop mixed-tenant load, and
 * the steady-state speedup of the coprocessor-resident ciphertext
 * cache over re-uploading hot operands per request.
 *
 * Two parts:
 *
 *  1. Residency ablation (single coprocessor, deterministic): a
 *     PIR-style circuit — K database shard ciphertexts masked with
 *     plaintext selectors, aggregated, and blinded with the request
 *     ciphertext — executed (a) with the shards re-uploaded on every
 *     request (the plain compiled path) and (b) warm from the pinned
 *     memory-file prefix (runCompiledCircuitWarm). The per-request
 *     modeled-time ratio is the `resident_vs_upload_speedup` record the
 *     CI perf gate asserts to be >= 1.2x.
 *
 *  2. Open-loop serving load: three tenant sessions with independent
 *     key sets submit 10k+ requests (adds, mults, resident PIR
 *     circuits) with exponential inter-arrival times targeting ~80%
 *     modeled utilization. The service's modeled latency distribution
 *     (completion minus arrival on the worker clocks) is reported as
 *     p50/p99.
 *
 * A small ring (n = 256, 3 q-primes) keeps the functional simulation
 * fast; the modeled clocks still use the paper's hardware model, so
 * latency ratios are meaningful.
 */

#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "service/service.h"

using namespace heat;

namespace {

struct Tenant
{
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    service::TenantId id = service::kDefaultTenant;
    std::vector<service::PinnedHandle> handles;
};

/** PIR-style request circuit: K resident database shards, each masked
 *  with a plaintext selector, aggregated, then blinded with the
 *  request ciphertext. Input 0..K-1 are the shards, input K the
 *  request. */
compiler::Circuit
pirCircuit(size_t shards, const fv::FvParams &params, Xoshiro256 &rng)
{
    compiler::CircuitBuilder b;
    std::vector<compiler::ValueId> db;
    for (size_t k = 0; k < shards; ++k)
        db.push_back(b.input());
    const compiler::ValueId query = b.input();
    compiler::ValueId acc = compiler::kNoValue;
    for (size_t k = 0; k < shards; ++k) {
        fv::Plaintext mask;
        mask.coeffs.resize(params.degree());
        for (auto &c : mask.coeffs)
            c = rng.uniformBelow(params.plainModulus());
        const compiler::ValueId sel = b.multPlain(db[k], mask);
        acc = (k == 0) ? sel : b.add(acc, sel);
    }
    b.output(b.add(acc, query));
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("bench_serving", argc, argv);

    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    auto params = fv::FvParams::create(cfg);
    // Keep the paper's full 7-RPAU memory file: the pinned database
    // prefix (16 slots at 8 shards) must coexist with the circuit's
    // working set.
    const hw::HwConfig hw = hw::HwConfig::paper();

    Xoshiro256 rng(1234);
    const size_t kShards = 8;
    const compiler::Circuit pir = pirCircuit(kShards, *params, rng);

    // --- Part 1: residency ablation -------------------------------------
    compiler::CompilerOptions copts;
    copts.hw = hw;
    auto uploaded = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, pir, copts));
    for (uint32_t k = 0; k < kShards; ++k)
        copts.resident_inputs.push_back(k);
    auto resident = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, pir, copts));

    fv::KeyGenerator keygen0(params, 42);
    fv::SecretKey sk0 = keygen0.generateSecretKey();
    fv::PublicKey pk0 = keygen0.generatePublicKey(sk0);
    fv::RelinKeys rlk0 = keygen0.generateRelinKeys(sk0);
    fv::Encryptor enc0(params, pk0, 43);

    std::vector<fv::Ciphertext> full_inputs;
    for (size_t k = 0; k <= kShards; ++k) {
        fv::Plaintext m;
        m.coeffs.resize(params->degree());
        for (auto &c : m.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        full_inputs.push_back(enc0.encrypt(m));
    }
    const std::vector<fv::Ciphertext> request = {full_inputs.back()};

    hw::Coprocessor cp(params, hw, &rlk0);
    compiler::CircuitRunStats upload_stats;
    const std::vector<fv::Ciphertext> via_upload =
        compiler::runCompiledCircuit(cp, *uploaded, full_inputs,
                                     &upload_stats);
    compiler::CircuitRunStats cold_stats;
    const std::vector<fv::Ciphertext> via_cold =
        compiler::runCompiledCircuit(cp, *resident, full_inputs,
                                     &cold_stats);
    compiler::CircuitRunStats warm_stats;
    const std::vector<fv::Ciphertext> via_warm =
        compiler::runCompiledCircuitWarm(cp, *resident, request,
                                         &warm_stats);
    if (via_upload != via_cold || via_cold != via_warm) {
        std::fprintf(stderr, "FAIL: residency changed the result\n");
        return 1;
    }

    const double upload_us = upload_stats.modeledUs(hw);
    const double warm_us = warm_stats.modeledUs(hw);
    const double speedup = upload_us / warm_us;

    bench::printHeader("resident ciphertext cache (PIR, 8 shards)");
    bench::printInfo("per-request modeled us, re-upload path",
                     upload_us, "us");
    bench::printInfo("per-request modeled us, resident warm path",
                     warm_us, "us");
    bench::printInfo("steady-state residency speedup", speedup, "x");
    reporter.record("resident_upload_us", upload_us, "us",
                    params->degree(), params->qBase()->size());
    reporter.record("resident_warm_us", warm_us, "us",
                    params->degree(), params->qBase()->size());
    reporter.record("resident_vs_upload_speedup", speedup, "x",
                    params->degree(), params->qBase()->size());

    // --- Part 2: open-loop mixed-tenant load ----------------------------
    const size_t kTenants = 3;
    const size_t kRequests = 10000;
    const size_t kWorkers = 4;

    service::ServiceConfig scfg;
    scfg.workers = kWorkers;
    scfg.max_batch = 8;
    scfg.hw = hw;
    scfg.admission = compiler::NoiseCheck::kReject;

    std::vector<Tenant> tenants(kTenants);
    std::unique_ptr<service::ExecutionService> svc;
    for (size_t t = 0; t < kTenants; ++t) {
        fv::KeyGenerator keygen(params, 100 + t);
        tenants[t].sk = keygen.generateSecretKey();
        tenants[t].pk = keygen.generatePublicKey(tenants[t].sk);
        tenants[t].rlk = keygen.generateRelinKeys(tenants[t].sk);
        tenants[t].encryptor = std::make_unique<fv::Encryptor>(
            params, tenants[t].pk, 200 + t);
        if (t == 0) {
            svc = std::make_unique<service::ExecutionService>(
                params, tenants[t].rlk, scfg);
        } else {
            char name[16];
            std::snprintf(name, sizeof name, "tenant-%zu", t);
            tenants[t].id = svc->registerTenant(name, tenants[t].rlk);
        }
    }

    // Pin each tenant's database shards once.
    for (Tenant &t : tenants) {
        for (size_t k = 0; k < kShards; ++k) {
            fv::Plaintext m;
            m.coeffs.resize(params->degree());
            for (auto &c : m.coeffs)
                c = rng.uniformBelow(params->plainModulus());
            t.handles.push_back(
                svc->pinInput(t.id, t.encryptor->encrypt(m)));
        }
    }

    // Operand pool per tenant (cloned per request; encryption wall time
    // would otherwise dominate the functional simulation).
    std::vector<std::vector<fv::Ciphertext>> pools(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
        for (size_t i = 0; i < 8; ++i) {
            fv::Plaintext m;
            m.coeffs.resize(params->degree());
            for (auto &c : m.coeffs)
                c = rng.uniformBelow(params->plainModulus());
            pools[t].push_back(tenants[t].encryptor->encrypt(m));
        }
    }

    // Calibrate the mean modeled service time with a short closed-loop
    // warmup, then target ~80% utilization of the worker pool.
    {
        std::vector<std::future<fv::Ciphertext>> warmup;
        for (size_t i = 0; i < 64; ++i) {
            const size_t t = i % kTenants;
            warmup.push_back(svc->submit(
                tenants[t].id,
                i % 4 == 0 ? service::Op::kMult : service::Op::kAdd,
                pools[t][i % pools[t].size()],
                pools[t][(i + 3) % pools[t].size()]));
        }
        for (auto &f : warmup)
            f.get();
        svc->drain();
    }
    const double mean_cost_us = svc->stats().makespan_us *
                                static_cast<double>(kWorkers) / 64.0;
    const double inter_arrival_us =
        mean_cost_us / (0.8 * static_cast<double>(kWorkers));

    std::vector<std::future<fv::Ciphertext>> op_futures;
    std::vector<std::future<std::vector<fv::Ciphertext>>> pir_futures;
    double arrival = 0.0;
    for (size_t i = 0; i < kRequests; ++i) {
        arrival += -std::log(1.0 - rng.uniformDouble()) *
                   inter_arrival_us;
        const size_t t = rng.uniformBelow(kTenants);
        const uint64_t kind = rng.uniformBelow(100);
        const std::vector<fv::Ciphertext> &pool = pools[t];
        if (kind < 70) {
            op_futures.push_back(svc->submit(
                tenants[t].id, service::Op::kAdd,
                pool[rng.uniformBelow(pool.size())],
                pool[rng.uniformBelow(pool.size())], arrival));
        } else if (kind < 85) {
            op_futures.push_back(svc->submit(
                tenants[t].id, service::Op::kMult,
                pool[rng.uniformBelow(pool.size())],
                pool[rng.uniformBelow(pool.size())], arrival));
        } else {
            pir_futures.push_back(svc->submitCompiledResident(
                tenants[t].id, resident, tenants[t].handles,
                {pool[rng.uniformBelow(pool.size())]}, arrival));
        }
    }
    for (auto &f : op_futures)
        f.get();
    for (auto &f : pir_futures)
        f.get();
    svc->drain();

    const service::ServiceSnapshot snap = svc->snapshot();
    const service::ServiceStats &stats = snap.stats;
    const service::LatencySnapshot &lat = snap.latency;

    bench::printHeader("open-loop serving load (3 tenants, 10k reqs)");
    bench::printInfo("requests completed",
                     static_cast<double>(stats.ops_completed +
                                         stats.circuits_completed),
                     "req");
    bench::printInfo("modeled p50 latency", lat.p50_us, "us");
    bench::printInfo("modeled p99 latency", lat.p99_us, "us");
    bench::printInfo("modeled mean latency", lat.mean_us, "us");
    bench::printInfo("resident warm-run fraction",
                     stats.resident_warm_runs /
                         static_cast<double>(stats.resident_cold_runs +
                                             stats.resident_warm_runs),
                     "");
    bench::printInfo("worker key swaps",
                     static_cast<double>(stats.key_swaps), "");
    bench::printInfo("shared DMA utilization", stats.dmaUtilization(), "");

    reporter.record("serving_p50_us", lat.p50_us, "us",
                    params->degree(), params->qBase()->size());
    reporter.record("serving_p99_us", lat.p99_us, "us",
                    params->degree(), params->qBase()->size());
    reporter.record("serving_mean_us", lat.mean_us, "us",
                    params->degree(), params->qBase()->size());
    reporter.record("serving_key_swaps",
                    static_cast<double>(stats.key_swaps), "",
                    params->degree(), params->qBase()->size());
    // The service's whole metrics registry (queue gauge, per-tenant
    // counters, the latency histogram's summary samples) rides along
    // in the same JSON-lines trajectory.
    reporter.recordMetrics(svc->metrics(), params->degree(),
                           params->qBase()->size());

    if (stats.ops_failed != 0 || stats.ops_rejected != 0) {
        std::fprintf(stderr, "FAIL: %llu failed, %llu rejected\n",
                     static_cast<unsigned long long>(stats.ops_failed),
                     static_cast<unsigned long long>(stats.ops_rejected));
        return 1;
    }
    if (lat.samples < kRequests + 64) {
        std::fprintf(stderr, "FAIL: latency samples %zu < requests\n",
                     lat.samples);
        return 1;
    }
    if (speedup < 1.2) {
        std::fprintf(stderr,
                     "FAIL: residency speedup %.3fx below the 1.2x "
                     "steady-state floor\n",
                     speedup);
        return 1;
    }
    std::printf("\nserving benchmark OK\n");
    return 0;
}
