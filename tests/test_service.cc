/**
 * @file
 * Tests of the asynchronous execution service: single operations
 * served through the cached, verified one-node circuits, concurrent
 * multi-client submission across worker-pool sizes with deterministic
 * bit-exact results, operand validation, statistics accounting, the
 * batch-width-independent modeled price of a job, and the
 * shutdown-while-queued regression (cancelled futures must fail fast,
 * never hang).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/panic.h"
#include "common/parallel.h"
#include "common/random.h"
#include "compiler/attribution.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "obs/trace.h"
#include "service/service.h"

namespace heat::service {
namespace {

using fv::Ciphertext;
using fv::Plaintext;

struct ServiceRig
{
    ServiceRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        fv::KeyGenerator keygen(params, 99);
        sk = keygen.generateSecretKey();
        pk = keygen.generatePublicKey(sk);
        rlk = keygen.generateRelinKeys(sk);
        evaluator = std::make_unique<fv::Evaluator>(params);
        hw = hw::HwConfig::paper();
        hw.n_rpaus = (params->fullBase()->size() + 1) / 2;
    }

    ServiceConfig
    serviceConfig(size_t workers, size_t max_batch = 4) const
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.max_batch = max_batch;
        cfg.hw = hw;
        return cfg;
    }

    Plaintext
    randomPlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Evaluator> evaluator;
    hw::HwConfig hw;
};

TEST(Service, OpCircuitsAreVerifiedOnceForAnySubmitCount)
{
    // submit(Op) runs the one-node circuits compiled at construction;
    // admission verifies each once, however many ops follow.
    ServiceRig rig;
    ServiceConfig cfg = rig.serviceConfig(2);
    ExecutionService svc(rig.params, rig.rlk, cfg);
    EXPECT_EQ(svc.stats().circuits_verified, 0u);
    fv::Encryptor encryptor(rig.params, rig.pk, 5);
    std::vector<std::future<Ciphertext>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(svc.submit(
            i % 2 == 0 ? Op::kAdd : Op::kMult,
            encryptor.encrypt(rig.randomPlain(i)),
            encryptor.encrypt(rig.randomPlain(10 + i))));
    }
    for (auto &f : futures)
        f.get();
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.circuits_verified, 2u);
    EXPECT_EQ(stats.verify_rejected, 0u);
    EXPECT_EQ(stats.ops_completed, 6u);
    EXPECT_EQ(stats.circuits_completed, 0u);
}

/** Client workload: submit pairs, remember the evaluator's answers. */
struct ClientRun
{
    std::vector<std::future<Ciphertext>> futures;
    std::vector<Ciphertext> expected;
};

ClientRun
submitMixedOps(ServiceRig &rig, ExecutionService &svc, uint64_t seed,
               size_t ops)
{
    fv::Encryptor encryptor(rig.params, rig.pk, seed);
    ClientRun run;
    for (size_t i = 0; i < ops; ++i) {
        Ciphertext x =
            encryptor.encrypt(rig.randomPlain(seed * 1000 + 2 * i));
        Ciphertext y =
            encryptor.encrypt(rig.randomPlain(seed * 1000 + 2 * i + 1));
        if (i % 2 == 0) {
            run.expected.push_back(
                rig.evaluator->multiply(x, y, rig.rlk));
            run.futures.push_back(
                svc.submit(Op::kMult, std::move(x), std::move(y)));
        } else {
            run.expected.push_back(rig.evaluator->add(x, y));
            run.futures.push_back(
                svc.submit(Op::kAdd, std::move(x), std::move(y)));
        }
    }
    return run;
}

class ServiceMatrix
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(ServiceMatrix, ConcurrentClientsGetBitExactResults)
{
    const auto [n_clients, n_workers] = GetParam();
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk,
                         rig.serviceConfig(n_workers));

    const size_t ops_per_client = 4;
    std::vector<ClientRun> runs(n_clients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            runs[c] = submitMixedOps(rig, svc, 10 + c, ops_per_client);
        });
    }
    for (std::thread &t : clients)
        t.join();

    fv::Decryptor decryptor(rig.params, fv::SecretKey{rig.sk.s_ntt});
    for (size_t c = 0; c < n_clients; ++c) {
        for (size_t i = 0; i < runs[c].futures.size(); ++i) {
            Ciphertext got = runs[c].futures[i].get();
            // Results are deterministic — bit-exact against the
            // software evaluator — regardless of which worker ran the
            // op or how ops were batched.
            EXPECT_EQ(got, runs[c].expected[i])
                << "client " << c << " op " << i;
            EXPECT_EQ(decryptor.decrypt(got),
                      decryptor.decrypt(runs[c].expected[i]));
        }
    }
    svc.drain();
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.ops_completed, n_clients * ops_per_client);
    EXPECT_EQ(stats.ops_rejected, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_GT(stats.makespan_us, 0.0);
    EXPECT_GT(stats.modeledOpsPerSecond(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ClientsByWorkers, ServiceMatrix,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(2u, 4u),
                      std::make_pair(8u, 1u), std::make_pair(8u, 4u)));

TEST(Service, ResultsIdenticalAcrossWorkerCounts)
{
    ServiceRig rig;
    std::vector<std::vector<Ciphertext>> outcomes;
    for (size_t workers : {1u, 4u}) {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(workers, 2));
        ClientRun run = submitMixedOps(rig, svc, 5, 6);
        std::vector<Ciphertext> results;
        for (auto &f : run.futures)
            results.push_back(f.get());
        outcomes.push_back(std::move(results));
    }
    ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
    for (size_t i = 0; i < outcomes[0].size(); ++i)
        EXPECT_EQ(outcomes[0][i], outcomes[1][i]) << "op " << i;
}

TEST(Service, ShutdownWhileQueuedFailsFuturesFast)
{
    // Regression: jobs still queued at shutdown must fail with
    // ServiceStoppedError — nothing may hang, and accounting must add
    // up. The service starts paused so the queue is provably deep when
    // shutdown runs.
    ServiceRig rig;
    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/1);
    cfg.start_paused = true;
    ExecutionService svc(rig.params, rig.rlk, cfg);

    fv::Encryptor encryptor(rig.params, rig.pk, 31);
    const size_t submitted = 24;
    std::vector<std::future<Ciphertext>> futures;
    for (size_t i = 0; i < submitted; ++i) {
        futures.push_back(svc.submit(
            Op::kMult, encryptor.encrypt(rig.randomPlain(2 * i)),
            encryptor.encrypt(rig.randomPlain(2 * i + 1))));
    }
    EXPECT_EQ(svc.queueDepth(), submitted);
    svc.shutdown();
    EXPECT_TRUE(svc.stopped());

    size_t completed = 0, rejected = 0;
    for (auto &f : futures) {
        try {
            f.get();
            ++completed;
        } catch (const ServiceStoppedError &) {
            ++rejected;
        }
    }
    EXPECT_EQ(completed + rejected, submitted);
    EXPECT_GE(rejected, 1u) << "queue should not have drained before "
                               "shutdown with a single serial worker";
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.ops_completed, completed);
    EXPECT_EQ(stats.ops_rejected, rejected);

    // Submitting after shutdown is refused synchronously.
    EXPECT_THROW(svc.submit(Op::kAdd,
                            encryptor.encrypt(rig.randomPlain(100)),
                            encryptor.encrypt(rig.randomPlain(101))),
                 ServiceStoppedError);
}

TEST(Service, ShutdownIsIdempotentAndDestructorSafe)
{
    ServiceRig rig;
    fv::Encryptor encryptor(rig.params, rig.pk, 37);
    std::future<Ciphertext> orphan;
    {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(1, 1));
        for (int i = 0; i < 6; ++i) {
            orphan = svc.submit(
                Op::kMult, encryptor.encrypt(rig.randomPlain(50 + i)),
                encryptor.encrypt(rig.randomPlain(60 + i)));
        }
        svc.shutdown();
        svc.shutdown(); // idempotent
    } // destructor runs shutdown again
    // The last-submitted future resolved one way or the other.
    EXPECT_NO_THROW({
        try {
            orphan.get();
        } catch (const ServiceStoppedError &) {
        }
    });
}

TEST(Service, DrainWaitsForQueuedWork)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(2));
    fv::Encryptor encryptor(rig.params, rig.pk, 41);
    std::vector<std::future<Ciphertext>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(svc.submit(
            Op::kAdd, encryptor.encrypt(rig.randomPlain(70 + i)),
            encryptor.encrypt(rig.randomPlain(80 + i))));
    }
    svc.drain();
    EXPECT_EQ(svc.queueDepth(), 0u);
    for (auto &f : futures) {
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    }
}

TEST(Service, MalformedOperandsRejectedSynchronously)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));
    fv::Encryptor encryptor(rig.params, rig.pk, 43);
    Ciphertext good = encryptor.encrypt(rig.randomPlain(1));

    Ciphertext three = good;
    three.polys.push_back(good[0]);
    EXPECT_THROW(svc.submit(Op::kAdd, three, good), FatalError);

    // Mismatched parameter set (different q-base size).
    fv::FvConfig other_cfg;
    other_cfg.degree = 256;
    other_cfg.plain_modulus = 4;
    other_cfg.sigma = 3.2;
    other_cfg.q_prime_count = 4;
    auto other = fv::FvParams::create(other_cfg);
    fv::KeyGenerator other_keygen(other, 1);
    fv::Encryptor other_encryptor(
        other, other_keygen.generatePublicKey(
                   other_keygen.generateSecretKey()),
        2);
    Ciphertext alien = other_encryptor.encrypt(rig.randomPlain(2));
    EXPECT_THROW(svc.submit(Op::kAdd, alien, alien), FatalError);
}

TEST(Service, RejectsMismatchedRelinKeys)
{
    ServiceRig rig;
    fv::KeyGenerator keygen(rig.params, 3);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::RelinKeys positional =
        keygen.generatePositionalRelinKeys(sk, 45);
    EXPECT_THROW(ExecutionService(rig.params, positional,
                                  rig.serviceConfig(1)),
                 FatalError);
}

TEST(Service, ModeledMultPriceIsIndependentOfBatchWidth)
{
    // Every served job is priced as the fused program it runs: compute
    // cycles plus one Arm dispatch, key DMA, and the host transfers.
    // The same 8-Mult workload therefore costs the same at batch width
    // 1 and 8. The services start paused so the whole workload is
    // queued before the worker's first dequeue.
    ServiceRig rig;
    const compiler::CircuitRunStats job =
        compiler::attributeCompiledCircuit(
            compiler::compileOpCircuit(rig.params, compiler::NodeKind::kMult,
                                       rig.hw))
            .cold.totals;
    const auto dispatch = static_cast<hw::Cycle>(rig.hw.dispatch_overhead);
    const double job_us = job.modeledUs(rig.hw);

    double makespan[2];
    int idx = 0;
    for (size_t batch : {1u, 8u}) {
        ServiceConfig cfg = rig.serviceConfig(1, batch);
        cfg.start_paused = true;
        ExecutionService svc(rig.params, rig.rlk, cfg);
        fv::Encryptor encryptor(rig.params, rig.pk, 47);
        std::vector<std::future<Ciphertext>> futures;
        for (int i = 0; i < 8; ++i) {
            futures.push_back(svc.submit(
                Op::kMult, encryptor.encrypt(rig.randomPlain(i)),
                encryptor.encrypt(rig.randomPlain(100 + i))));
        }
        svc.start();
        for (auto &f : futures)
            f.get();
        svc.drain();
        const ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.batches, 8u / batch);
        EXPECT_EQ(stats.fpga_cycles, 8 * job.fpga_cycles);
        EXPECT_EQ(stats.unitCycles(hw::Unit::kArmUnit), 8 * dispatch);
        makespan[idx++] = stats.makespan_us;
    }
    EXPECT_DOUBLE_EQ(makespan[0], makespan[1]);
    EXPECT_NEAR(makespan[1], 8.0 * job_us, 1e-9 * makespan[1]);
}

TEST(Service, MultiTenantKeySetsStayIsolated)
{
    // Two tenants with independent secret keys on one worker pool: each
    // tenant's Mults must relinearize with *its* keys (a cross-tenant
    // key would decrypt to garbage). start_paused + one worker forces
    // both tenants into one batch, so the worker provably swaps key
    // sets mid-batch.
    ServiceRig rig;
    fv::KeyGenerator keygen_b(rig.params, 777);
    fv::SecretKey sk_b = keygen_b.generateSecretKey();
    fv::PublicKey pk_b = keygen_b.generatePublicKey(sk_b);
    fv::RelinKeys rlk_b = keygen_b.generateRelinKeys(sk_b);

    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/16);
    cfg.start_paused = true;
    ExecutionService svc(rig.params, rig.rlk, cfg);
    const TenantId tenant_b = svc.registerTenant("tenant-b", rlk_b);
    EXPECT_EQ(svc.tenantCount(), 2u);

    fv::Encryptor enc_a(rig.params, rig.pk, 5);
    fv::Encryptor enc_b(rig.params, pk_b, 6);
    std::vector<std::future<Ciphertext>> futures;
    std::vector<Ciphertext> expected;
    for (int i = 0; i < 4; ++i) {
        Ciphertext xa = enc_a.encrypt(rig.randomPlain(100 + i));
        Ciphertext ya = enc_a.encrypt(rig.randomPlain(200 + i));
        expected.push_back(rig.evaluator->multiply(xa, ya, rig.rlk));
        futures.push_back(svc.submit(kDefaultTenant, Op::kMult,
                                     std::move(xa), std::move(ya)));
        Ciphertext xb = enc_b.encrypt(rig.randomPlain(300 + i));
        Ciphertext yb = enc_b.encrypt(rig.randomPlain(400 + i));
        expected.push_back(rig.evaluator->multiply(xb, yb, rlk_b));
        futures.push_back(svc.submit(tenant_b, Op::kMult,
                                     std::move(xb), std::move(yb)));
    }
    svc.start();
    std::vector<Ciphertext> results;
    for (size_t i = 0; i < futures.size(); ++i) {
        results.push_back(futures[i].get());
        EXPECT_EQ(results.back(), expected[i]) << "job " << i;
    }

    // Tenant B's products decrypt under B's secret key to the same
    // plaintext the software evaluator produced with B's keys — proof
    // the worker relinearized them with B's key set, not A's.
    fv::Decryptor dec_b(rig.params, fv::SecretKey{sk_b.s_ntt});
    EXPECT_EQ(dec_b.decrypt(results[1]), dec_b.decrypt(expected[1]));

    svc.drain();
    EXPECT_GE(svc.stats().key_swaps, 1u)
        << "one worker serving two tenants must have re-attached keys";
}

TEST(Service, RejectsCircuitWhoseGaloisKeysTheTenantLacks)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));

    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    b.output(b.rotate(x, 1));
    const compiler::Circuit circuit = b.build();
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(rig.params, circuit, copts));
    ASSERT_FALSE(compiled->galois_elements.empty());

    fv::Encryptor encryptor(rig.params, rig.pk, 51);
    // The default session holds no Galois keys: rejected synchronously.
    EXPECT_THROW(svc.submitCompiled(
                     kDefaultTenant, compiled,
                     {encryptor.encrypt(rig.randomPlain(1))}),
                 FatalError);

    // A session registered with the circuit's keys is accepted, and the
    // result matches the software evaluator. Reseeding the rig's
    // keygen reproduces its secret key, so these Galois keys switch
    // back to the same secret the rig's ciphertexts live under.
    fv::KeyGenerator keygen(rig.params, 99);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::GaloisKeys gkeys = keygen.generateGaloisKeys(
        sk, compiler::requiredGaloisElements(circuit,
                                             rig.params->degree()));
    const TenantId rotator =
        svc.registerTenant("rotator", rig.rlk, gkeys);
    const std::vector<Ciphertext> inputs = {
        encryptor.encrypt(rig.randomPlain(2))};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *rig.evaluator, &rig.rlk, circuit, inputs, &gkeys);
    std::future<std::vector<Ciphertext>> fut =
        svc.submitCompiled(rotator, compiled, inputs);
    EXPECT_EQ(fut.get(), reference);
}

TEST(Service, RejectsCircuitCompiledForAnotherExtensionBase)
{
    // Same n, t and q primes, two more p primes: the verifier's slot
    // proof and the static price were computed for the wider base, so
    // admission must refuse the artifact rather than run it.
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));

    fv::FvConfig wider = rig.params->config();
    wider.p_prime_count = rig.params->pBase()->size() + 2;
    const auto wider_params = fv::FvParams::create(wider);
    ASSERT_TRUE(*wider_params->qBase() == *rig.params->qBase());
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(b.mult(x, y));
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(wider_params, b.build(), copts));

    fv::Encryptor encryptor(rig.params, rig.pk, 53);
    EXPECT_THROW(svc.submitCompiled(
                     kDefaultTenant, compiled,
                     {encryptor.encrypt(rig.randomPlain(1)),
                      encryptor.encrypt(rig.randomPlain(2))}),
                 FatalError);
    EXPECT_EQ(svc.stats().circuits_verified, 0u);
}

TEST(Service, RejectsSessionKeysForInvalidGaloisElements)
{
    // A key stored under an even or >= 2n element would pass
    // checkCompiled and the verifier's declaration check, then panic in
    // the worker; registration refuses it up front.
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));
    fv::KeyGenerator keygen(rig.params, 99);
    fv::SecretKey sk = keygen.generateSecretKey();
    const fv::GaloisKeys valid = keygen.generateGaloisKeys(sk, {3u});
    const uint32_t two_n = static_cast<uint32_t>(2 * rig.params->degree());
    for (uint32_t bad : {2u, two_n}) {
        fv::GaloisKeys gkeys = valid;
        gkeys.keys.emplace(bad, valid.keys.at(3));
        EXPECT_THROW(svc.registerTenant("bad", rig.rlk, gkeys), FatalError)
            << bad;
    }
    EXPECT_NO_THROW(svc.registerTenant("good", rig.rlk, valid));
}

TEST(Service, BoundedTenantQueueShedsOverload)
{
    ServiceRig rig;
    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/1);
    cfg.start_paused = true;
    cfg.max_queue_per_tenant = 4;
    ExecutionService svc(rig.params, rig.rlk, cfg);

    fv::Encryptor encryptor(rig.params, rig.pk, 53);
    std::vector<std::future<Ciphertext>> accepted;
    for (int i = 0; i < 4; ++i) {
        accepted.push_back(svc.submit(
            Op::kAdd, encryptor.encrypt(rig.randomPlain(2 * i)),
            encryptor.encrypt(rig.randomPlain(2 * i + 1))));
    }
    EXPECT_EQ(svc.queueDepth(), 4u);

    // The bound is reached: further submissions shed synchronously.
    for (int i = 0; i < 2; ++i) {
        EXPECT_THROW(
            svc.submit(Op::kAdd, encryptor.encrypt(rig.randomPlain(90)),
                       encryptor.encrypt(rig.randomPlain(91))),
            ServiceOverloadedError);
    }
    EXPECT_EQ(svc.stats().ops_shed, 2u);

    // Shedding is per tenant: another tenant still has headroom.
    const TenantId other = svc.registerTenant("other", rig.rlk);
    std::future<Ciphertext> other_fut =
        svc.submit(other, Op::kAdd, encryptor.encrypt(rig.randomPlain(92)),
                   encryptor.encrypt(rig.randomPlain(93)));

    // Accepted work still completes once the workers run.
    svc.start();
    for (auto &f : accepted)
        EXPECT_NO_THROW(f.get());
    EXPECT_NO_THROW(other_fut.get());
    svc.drain();
    EXPECT_EQ(svc.stats().ops_completed, 5u);
}

TEST(Service, AdmissionRejectsNoiseExhaustedCircuit)
{
    // A squaring chain far beyond the 3-prime budget: no level
    // assignment can rescue it, so kReject admission must refuse it
    // synchronously with the node-level diagnostic.
    ServiceRig rig;
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    compiler::ValueId v = x;
    for (int i = 0; i < 8; ++i)
        v = b.square(v);
    b.output(v);
    const compiler::Circuit circuit = b.build();

    fv::Encryptor encryptor(rig.params, rig.pk, 59);

    ServiceConfig cfg = rig.serviceConfig(1);
    cfg.admission = compiler::NoiseCheck::kReject;
    ExecutionService svc(rig.params, rig.rlk, cfg);
    try {
        svc.submitCircuit(kDefaultTenant, circuit,
                          {encryptor.encrypt(rig.randomPlain(1))});
        FAIL() << "expected AdmissionRejectedError";
    } catch (const AdmissionRejectedError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node"), std::string::npos) << what;
        EXPECT_NE(what.find("bits"), std::string::npos) << what;
    }
    EXPECT_EQ(svc.stats().admission_rejected, 1u);

    // The default (kWarn) policy keeps accepting the same circuit —
    // existing pipelines are unaffected by admission control.
    ExecutionService lenient(rig.params, rig.rlk, rig.serviceConfig(1));
    std::future<std::vector<fv::Ciphertext>> fut = lenient.submitCircuit(
        kDefaultTenant, circuit, {encryptor.encrypt(rig.randomPlain(2))});
    EXPECT_NO_THROW(fut.get());
    EXPECT_EQ(lenient.stats().admission_rejected, 0u);
}

TEST(Service, ResidentCacheIsBitExactAcrossWorkerCounts)
{
    // PIR-flavoured workload: a pinned "database" ciphertext multiplied
    // by fresh per-request queries. Warm runs skip the database upload;
    // results must be bit-identical to cold runs and to the software
    // evaluator at every worker count.
    ServiceRig rig;
    fv::Encryptor encryptor(rig.params, rig.pk, 61);

    compiler::CircuitBuilder b;
    const compiler::ValueId db = b.input();
    const compiler::ValueId query = b.input();
    b.output(b.mult(db, query));
    const compiler::Circuit circuit = b.build();
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    copts.resident_inputs = {0};
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(rig.params, circuit, copts));

    const Ciphertext hot = encryptor.encrypt(rig.randomPlain(7));
    const size_t requests = 6;
    std::vector<Ciphertext> queries;
    std::vector<Ciphertext> expected;
    for (size_t i = 0; i < requests; ++i) {
        queries.push_back(encryptor.encrypt(rig.randomPlain(10 + i)));
        expected.push_back(
            rig.evaluator->multiply(hot, queries.back(), rig.rlk));
    }

    for (size_t workers : {1u, 3u}) {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(workers, 4));
        const PinnedHandle handle = svc.pinInput(kDefaultTenant, hot);
        const std::vector<PinnedHandle> handles = {handle};

        // An unknown handle is rejected synchronously.
        const std::vector<PinnedHandle> bogus = {handle + 7};
        EXPECT_THROW(svc.submitCompiledResident(kDefaultTenant, compiled,
                                                bogus, {queries[0]}),
                     FatalError);

        std::vector<std::future<std::vector<Ciphertext>>> futures;
        for (size_t i = 0; i < requests; ++i) {
            futures.push_back(svc.submitCompiledResident(
                kDefaultTenant, compiled, handles, {queries[i]}));
        }
        for (size_t i = 0; i < requests; ++i) {
            std::vector<Ciphertext> outs = futures[i].get();
            ASSERT_EQ(outs.size(), 1u);
            EXPECT_EQ(outs[0], expected[i])
                << "workers " << workers << " request " << i;
        }
        svc.drain();
        ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.resident_cold_runs + stats.resident_warm_runs,
                  requests);
        EXPECT_GE(stats.resident_cold_runs, 1u);
        EXPECT_LE(stats.resident_cold_runs, workers);
        if (workers == 1) {
            // One serial worker: exactly one upload of the database,
            // every subsequent request runs warm.
            EXPECT_EQ(stats.resident_cold_runs, 1u);
            EXPECT_EQ(stats.resident_warm_runs, requests - 1);
        }
    }
}

/** Modeled service time of one lone Mult on @p rig's hardware. */
double
loneMultUs(ServiceRig &rig)
{
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));
    fv::Encryptor encryptor(rig.params, rig.pk, 3);
    svc.submit(Op::kMult, encryptor.encrypt(rig.randomPlain(1)),
               encryptor.encrypt(rig.randomPlain(2)))
        .get();
    svc.drain();
    return svc.latency().max_us;
}

/** What a traced start_paused run left behind. */
struct TracedRun
{
    ServiceSnapshot snap;
    std::vector<obs::SpanRecord> spans;
};

/** Submissions of one open-loop job: tenant, kind, arrival. */
struct Arrival
{
    TenantId tenant = 0;
    /** 0 = Add, 1 = Mult, 2 = resident PIR-style Mult. */
    int kind = 0;
    double arrival_us = 0.0;
};

/**
 * Queue @p schedule on a start_paused service with @p workers workers
 * and three tenants (the default one plus two registered, the last
 * with weight 2), each with one pinned "database" ciphertext, then
 * release it under a tracer and wait for every result.
 */
/** The resident PIR-style job of a schedule: a pinned "database"
 *  ciphertext times the request's query. */
std::shared_ptr<const compiler::CompiledCircuit>
compilePir(const ServiceRig &rig)
{
    compiler::CircuitBuilder b;
    const compiler::ValueId db = b.input();
    const compiler::ValueId query = b.input();
    b.output(b.mult(db, query));
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    copts.resident_inputs = {0};
    return std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(rig.params, b.build(), copts));
}

TracedRun
runSchedule(ServiceRig &rig, size_t workers,
            const std::vector<Arrival> &schedule)
{
    const auto pir = compilePir(rig);
    fv::Encryptor encryptor(rig.params, rig.pk, 17);
    std::vector<Ciphertext> pool;
    for (int i = 0; i < 4; ++i)
        pool.push_back(encryptor.encrypt(rig.randomPlain(300 + i)));

    ServiceConfig cfg = rig.serviceConfig(workers, 4);
    cfg.start_paused = true;
    obs::Tracer tracer(1u << 20);
    obs::Tracer *const prev = obs::setActiveTracer(&tracer);
    TracedRun run;
    {
        ExecutionService svc(rig.params, rig.rlk, cfg);
        svc.registerTenant("t1", rig.rlk);
        svc.registerTenant("t2", rig.rlk, {}, 2);
        std::vector<std::vector<PinnedHandle>> handles;
        for (TenantId t = 0; t < 3; ++t)
            handles.push_back({svc.pinInput(t, pool[t])});
        std::vector<std::future<Ciphertext>> ops;
        std::vector<std::future<std::vector<Ciphertext>>> circuits;
        for (size_t i = 0; i < schedule.size(); ++i) {
            const Arrival &a = schedule[i];
            const Ciphertext &x = pool[i % pool.size()];
            const Ciphertext &y = pool[(i + 1) % pool.size()];
            if (a.kind == 2)
                circuits.push_back(svc.submitCompiledResident(
                    a.tenant, pir, handles[a.tenant], {x}, a.arrival_us));
            else
                ops.push_back(svc.submit(a.tenant,
                                         a.kind == 0 ? Op::kAdd : Op::kMult,
                                         x, y, a.arrival_us));
        }
        svc.start();
        for (auto &f : ops)
            f.get();
        for (auto &f : circuits)
            f.get();
        svc.drain();
        run.snap = svc.snapshot();
    }
    obs::setActiveTracer(prev);
    for (obs::SpanRecord &sp : tracer.spans())
        if (sp.pid == obs::kModeledPid)
            run.spans.push_back(std::move(sp));
    EXPECT_EQ(tracer.droppedSpans(), 0u);
    return run;
}

/** Tenant-mix-style schedule: three tenants, 60% Add / 20% Mult / 20%
 *  resident, Poisson arrivals with mean gap @p gap_us. */
std::vector<Arrival>
tenantMix(size_t jobs, double gap_us)
{
    Xoshiro256 rng(2024);
    std::vector<Arrival> schedule;
    double arrival = 0.0;
    for (size_t i = 0; i < jobs; ++i) {
        Arrival a;
        a.tenant = static_cast<TenantId>(rng.uniformBelow(3));
        const double u = rng.uniformDouble();
        a.kind = u < 0.6 ? 0 : u < 0.8 ? 1 : 2;
        arrival += -std::log(1.0 - rng.uniformDouble()) * gap_us;
        a.arrival_us = arrival;
        schedule.push_back(a);
    }
    return schedule;
}

const std::string &
spanArg(const obs::SpanRecord &span, const std::string &key)
{
    for (const auto &[k, v] : span.args)
        if (k == key)
            return v;
    static const std::string none;
    return none;
}

TEST(Service, LightLoadHasNoQueueWait)
{
    // Each job arrives after the previous one's modeled completion, so
    // no job ever waits: not for a worker, not for the DMA engine, and
    // not behind a later-arriving job of a lower-numbered tenant (a
    // batch regroups by tenant only among jobs that have arrived).
    ServiceRig rig;
    const double price = loneMultUs(rig);
    ASSERT_GT(price, 0.0);
    std::vector<Arrival> schedule;
    for (size_t i = 0; i < 8; ++i) {
        Arrival a;
        a.tenant = static_cast<TenantId>(1 - i % 2);
        a.kind = 1;
        a.arrival_us = static_cast<double>(i) * (price + 10.0);
        schedule.push_back(a);
    }
    for (size_t workers : {1u, 3u}) {
        const TracedRun run = runSchedule(rig, workers, schedule);
        size_t requests = 0;
        for (const obs::SpanRecord &sp : run.spans) {
            EXPECT_NE(sp.name, "queue-wait") << workers << " workers";
            EXPECT_NE(sp.name, "dma-wait") << workers << " workers";
            if (sp.name != "request:op")
                continue;
            ++requests;
            const size_t job = std::stoul(spanArg(sp, "job"));
            ASSERT_LT(job, schedule.size());
            EXPECT_EQ(sp.start_us, schedule[job].arrival_us)
                << "job " << job << " at " << workers << " workers";
            EXPECT_NEAR(std::stod(spanArg(sp, "latency_us")), price,
                        1e-9 * price);
        }
        EXPECT_EQ(requests, schedule.size());
        EXPECT_NEAR(run.snap.latency.max_us, price, 1e-9 * price);
        EXPECT_NEAR(run.snap.latency.mean_us, price, 1e-9 * price);
    }
}

TEST(Service, ModeledFiguresIndependentOfHostThreads)
{
    // Every modeled figure is a function of the submissions alone: the
    // same start_paused open-loop schedule gives bit-identical results
    // whatever the host thread count (and so whichever worker thread
    // happens to finish first).
    ServiceRig rig;
    const std::vector<Arrival> schedule =
        tenantMix(48, 0.4 * loneMultUs(rig));
    const unsigned prev_threads = threadCount();
    for (size_t workers : {1u, 2u, 3u}) {
        TracedRun runs[2];
        for (unsigned threads : {1u, 4u}) {
            setThreadCount(threads);
            runs[threads == 1 ? 0 : 1] = runSchedule(rig, workers, schedule);
        }
        const ServiceSnapshot &a = runs[0].snap;
        const ServiceSnapshot &b = runs[1].snap;
        EXPECT_EQ(a.latency.samples, schedule.size());
        EXPECT_EQ(a.latency.p50_us, b.latency.p50_us) << workers;
        EXPECT_EQ(a.latency.p99_us, b.latency.p99_us) << workers;
        EXPECT_EQ(a.latency.mean_us, b.latency.mean_us) << workers;
        EXPECT_EQ(a.latency.max_us, b.latency.max_us) << workers;
        EXPECT_EQ(a.stats.makespan_us, b.stats.makespan_us) << workers;
        EXPECT_EQ(a.stats.key_swaps, b.stats.key_swaps) << workers;
        EXPECT_EQ(a.stats.resident_cold_runs, b.stats.resident_cold_runs);
        EXPECT_EQ(a.stats.resident_warm_runs, b.stats.resident_warm_runs);
        EXPECT_EQ(a.stats.dma_busy_us, b.stats.dma_busy_us) << workers;
        EXPECT_GT(a.stats.dma_busy_us, 0.0);
        EXPECT_LT(a.stats.dmaUtilization(), 1.0);
        using Key = std::tuple<std::string, double, double, uint32_t>;
        std::vector<Key> spans[2];
        for (int r = 0; r < 2; ++r) {
            for (const obs::SpanRecord &sp : runs[r].spans)
                spans[r].emplace_back(sp.name, sp.start_us, sp.dur_us,
                                      sp.track);
            std::sort(spans[r].begin(), spans[r].end());
        }
        EXPECT_FALSE(spans[0].empty());
        EXPECT_TRUE(spans[0] == spans[1]) << workers << " workers";
    }
    setThreadCount(prev_threads);
}

TEST(Service, LatencyDecomposesIntoWaitsAndBusySpans)
{
    // Under load with three workers sharing one DMA engine, each job's
    // latency is exactly its queue wait plus its request span, and the
    // request span is exactly its DMA waits plus its phase spans —
    // the transfers, instructions and Arm dispatches the engine placed
    // inside it — which sum to its priced busy time.
    ServiceRig rig;
    const std::vector<Arrival> schedule =
        tenantMix(48, 0.3 * loneMultUs(rig));
    const TracedRun run = runSchedule(rig, 3, schedule);

    // The priced busy time of each job kind (a resident job runs cold
    // or warm).
    const auto busyOf = [&](const compiler::CompiledCircuit &c) {
        const compiler::CircuitAttribution a =
            compiler::attributeCompiledCircuit(c);
        return std::pair(a.cold.totals.modeledUs(rig.hw),
                         a.warm.totals.modeledUs(rig.hw));
    };
    const auto add = busyOf(compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kAdd, rig.hw));
    const auto mult = busyOf(compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kMult, rig.hw));
    const auto pir = busyOf(*compilePir(rig));

    std::vector<double> queued(schedule.size(), 0.0);
    std::vector<const obs::SpanRecord *> requests(schedule.size(), nullptr);
    std::vector<double> waits(schedule.size(), 0.0);
    size_t dma_waits = 0;
    for (const obs::SpanRecord &sp : run.spans) {
        if (sp.category != "service")
            continue;
        const size_t job = std::stoul(spanArg(sp, "job"));
        ASSERT_LT(job, schedule.size());
        if (sp.name == "queue-wait") {
            queued[job] += sp.dur_us;
        } else if (sp.name == "dma-wait") {
            waits[job] += sp.dur_us;
            ++dma_waits;
        } else {
            ASSERT_TRUE(sp.name.starts_with("request:")) << sp.name;
            requests[job] = &sp;
        }
    }
    EXPECT_GT(dma_waits, 0u) << "the schedule should contend for the DMA";

    double total = 0.0;
    uint64_t warm_runs = 0;
    for (size_t j = 0; j < schedule.size(); ++j) {
        ASSERT_NE(requests[j], nullptr) << "job " << j << " has no request";
        const obs::SpanRecord &req = *requests[j];
        const double latency = std::stod(spanArg(req, "latency_us"));
        const double busy = std::stod(spanArg(req, "busy_us"));
        EXPECT_NEAR(queued[j] + req.dur_us, latency, 1e-9 * latency)
            << "job " << j;
        total += latency;

        // The job's phase spans: every span on its worker's track that
        // lies inside the request span, bar its DMA waits.
        const double end = req.start_us + req.dur_us;
        double phases = 0.0;
        for (const obs::SpanRecord &sp : run.spans) {
            if (sp.track != req.track || sp.start_us < req.start_us ||
                sp.start_us >= end || sp.category == "service")
                continue;
            EXPECT_LE(sp.start_us + sp.dur_us, end)
                << sp.name << " leaves job " << j << "'s request span";
            if (sp.category == "host" || sp.category == "hw.instr" ||
                sp.name == "arm-dispatch")
                phases += sp.dur_us;
        }
        EXPECT_NEAR(req.dur_us, waits[j] + phases, 1e-9 * req.dur_us)
            << "job " << j;
        EXPECT_NEAR(phases, busy, 1e-9 * busy) << "job " << j;

        const auto [cold, warm] = schedule[j].kind == 0   ? add
                                  : schedule[j].kind == 1 ? mult
                                                          : pir;
        EXPECT_TRUE(busy == cold || busy == warm) << "job " << j;
        warm_runs += schedule[j].kind == 2 && busy == warm;
    }
    EXPECT_EQ(warm_runs, run.snap.stats.resident_warm_runs);
    const double recorded = run.snap.latency.mean_us *
                            static_cast<double>(run.snap.latency.samples);
    EXPECT_NEAR(total, recorded, 1e-9 * recorded);
}

TEST(Service, OpenLoopSpansNestPerTrack)
{
    // One worker under open-loop load: every job after the first
    // waits while earlier ones run, so its queue wait overlaps other
    // requests and other waits. Queue waits are async spans; every
    // other span on a (pid, track) nests in or stays clear of the
    // others, and the Chrome export pairs each async span once.
    ServiceRig rig;
    const std::vector<Arrival> schedule =
        tenantMix(24, 0.3 * loneMultUs(rig));
    const TracedRun run = runSchedule(rig, 1, schedule);

    size_t waits = 0;
    std::map<std::pair<uint32_t, uint32_t>, std::vector<obs::SpanRecord>>
        tracks;
    for (const obs::SpanRecord &sp : run.spans) {
        if (sp.name == "queue-wait") {
            EXPECT_TRUE(sp.async);
            ++waits;
        } else {
            EXPECT_FALSE(sp.async) << sp.name;
        }
        if (sp.pid == obs::kModeledPid && !sp.async)
            tracks[{sp.pid, sp.track}].push_back(sp);
    }
    EXPECT_GT(waits, schedule.size() / 2) << "the load should queue";
    for (auto &[key, spans] : tracks) {
        std::stable_sort(spans.begin(), spans.end(),
                         [](const obs::SpanRecord &a,
                            const obs::SpanRecord &b) {
                             if (a.start_us != b.start_us)
                                 return a.start_us < b.start_us;
                             return a.dur_us > b.dur_us;
                         });
        std::vector<const obs::SpanRecord *> open;
        for (const obs::SpanRecord &sp : spans) {
            const double end = sp.start_us + sp.dur_us;
            while (!open.empty() &&
                   open.back()->start_us + open.back()->dur_us <=
                       sp.start_us)
                open.pop_back();
            if (!open.empty()) {
                EXPECT_LE(end, open.back()->start_us + open.back()->dur_us)
                    << sp.name << " at " << sp.start_us
                    << " partially overlaps " << open.back()->name;
            }
            open.push_back(&sp);
        }
    }

    obs::Tracer tracer;
    for (const obs::SpanRecord &sp : run.spans)
        tracer.addSpan(sp);
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    const auto count = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count(R"("ph":"b")"), waits);
    EXPECT_EQ(count(R"("ph":"e")"), waits);
    EXPECT_EQ(count(R"("ph":"B")"), count(R"("ph":"E")"));
}

TEST(Service, TenantNamesRenderAsEscapedPrometheusLabels)
{
    // A tenant name is untrusted input: quotes, backslashes and
    // newlines in it are escaped, so it can neither close its label
    // block nor forge a series of its own.
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));
    svc.registerTenant("x\"} 1\nforged_total 99\n#", rig.rlk);
    svc.registerTenant("y\\\"} 2\nforged_total 7\n#", rig.rlk);
    const std::string text = svc.metrics().renderText();

    std::vector<std::string> forged;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        EXPECT_FALSE(line.starts_with("forged_total")) << line;
        if (line.find("forged_total") != std::string::npos)
            forged.push_back(line);
    }
    // Each forged-looking name sits inside one label per counter.
    std::vector<std::string> expected;
    for (const std::string family :
         {"heat_service_jobs_arrived_total", "heat_service_jobs_shed_total",
          "heat_service_admission_rejected_total",
          "heat_service_jobs_completed_total"}) {
        expected.push_back(family +
                           R"({tenant="x\"} 1\nforged_total 99\n#"} 0)");
        expected.push_back(family +
                           R"({tenant="y\\\"} 2\nforged_total 7\n#"} 0)");
    }
    std::sort(forged.begin(), forged.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(forged, expected);
}

TEST(Service, SnapshotIsInternallyConsistentUnderLoad)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(4));

    // An observer thread snapshots continuously while two clients
    // submit. snapshot() captures stats, latency and queue depth under
    // ONE lock acquisition, and workers observe latencies into the
    // histogram BEFORE retiring the batch under that lock — so no
    // snapshot may ever show more completed jobs than latency samples,
    // and the per-unit cycle buckets must sum exactly to fpga_cycles
    // at every instant. (The TSan CI leg runs this suite.)
    std::atomic<bool> done{false};
    std::thread observer([&] {
        while (!done.load(std::memory_order_relaxed)) {
            const ServiceSnapshot snap = svc.snapshot();
            const ServiceStats &st = snap.stats;
            EXPECT_GE(snap.latency.samples,
                      st.ops_completed + st.circuits_completed);
            EXPECT_LE(snap.latency.p50_us, snap.latency.p99_us);
            EXPECT_LE(snap.latency.p99_us, snap.latency.max_us);
            hw::Cycle unit_sum = 0;
            for (hw::Cycle c : st.unit_cycles)
                unit_sum += c;
            EXPECT_EQ(unit_sum, st.fpga_cycles);
            uint64_t tenant_completed = 0;
            uint64_t tenant_arrivals = 0;
            for (const TenantStats &t : st.tenants) {
                tenant_completed += t.completed;
                tenant_arrivals += t.arrivals;
            }
            // Tenant slices retire in the same critical section as the
            // aggregate counters.
            EXPECT_EQ(tenant_completed,
                      st.ops_completed + st.circuits_completed);
            EXPECT_GE(tenant_arrivals, tenant_completed);
            std::this_thread::yield();
        }
    });

    const size_t kClients = 2;
    const size_t kOps = 12;
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back(
            [&, c] { runs[c] = submitMixedOps(rig, svc, 31 + c, kOps); });
    for (std::thread &t : clients)
        t.join();
    for (ClientRun &r : runs)
        for (auto &f : r.futures)
            f.get();
    svc.drain();
    done.store(true, std::memory_order_relaxed);
    observer.join();

    const ServiceSnapshot fin = svc.snapshot();
    EXPECT_EQ(fin.stats.ops_completed, kClients * kOps);
    EXPECT_EQ(fin.latency.samples, kClients * kOps);
    EXPECT_EQ(fin.queue_depth, 0u);
    ASSERT_EQ(fin.stats.tenants.size(), 1u);
    EXPECT_EQ(fin.stats.tenants[0].arrivals, kClients * kOps);
    EXPECT_EQ(fin.stats.tenants[0].completed, kClients * kOps);
    EXPECT_EQ(fin.stats.tenants[0].shed, 0u);
}

} // namespace
} // namespace heat::service
