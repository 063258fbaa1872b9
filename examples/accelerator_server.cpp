/**
 * @file
 * The cloud-accelerator demo, now on the serving layer: an
 * ExecutionService shards homomorphic operations across N simulated
 * coprocessors while a synthetic multi-client load driver (one thread
 * per client, each with its own keys-sharing encryptor seed) submits
 * interleaved Add and Mult requests and verifies every decrypted
 * result against plaintext arithmetic. One hardware Mult is also
 * checked bit-exactly against the software evaluator — the
 * conformance oracle the differential test suite runs at scale.
 */

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/power_model.h"
#include "service/service.h"

using namespace heat;

namespace {

struct ClientResult
{
    size_t ops = 0;
    size_t wrong = 0;
};

/** One synthetic client: encrypts random bits, submits pairs of
 *  requests, and checks the decrypted results. */
ClientResult
runClient(size_t client_id, size_t ops,
          service::ExecutionService &svc,
          const std::shared_ptr<const fv::FvParams> &params,
          const fv::PublicKey &pk, const fv::SecretKey &sk)
{
    fv::Encryptor encryptor(params, pk, /*seed=*/1000 + client_id);
    fv::Decryptor decryptor(params, fv::SecretKey{sk.s_ntt});
    Xoshiro256 rng(77 * (client_id + 1));
    const uint64_t t = params->plainModulus();

    ClientResult result;
    std::vector<std::future<fv::Ciphertext>> futures;
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < ops; ++i) {
        // Degree-0 messages keep the plaintext check trivial: the
        // constant coefficient of x+y resp. x*y mod t.
        const uint64_t m0 = rng.uniformBelow(t);
        const uint64_t m1 = rng.uniformBelow(t);
        fv::Ciphertext x = encryptor.encrypt(fv::Plaintext({m0}));
        fv::Ciphertext y = encryptor.encrypt(fv::Plaintext({m1}));
        const bool mult = i % 2 == 0;
        futures.push_back(svc.submit(mult ? service::Op::kMult
                                          : service::Op::kAdd,
                                     std::move(x), std::move(y)));
        expected.push_back(mult ? m0 * m1 % t : (m0 + m1) % t);
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        fv::Plaintext got = decryptor.decrypt(futures[i].get());
        const uint64_t c0 = got.coeffs.empty() ? 0 : got.coeffs[0];
        ++result.ops;
        if (c0 != expected[i])
            ++result.wrong;
    }
    return result;
}

} // namespace

int
main()
{
    auto params = fv::FvParams::paper(/*t=*/65537);
    fv::KeyGenerator keygen(params, 777);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);

    // --- conformance: one hardware Mult vs the software evaluator -------
    {
        fv::Encryptor encryptor(params, pk, 3);
        fv::Evaluator evaluator(params);
        fv::Ciphertext x = encryptor.encrypt(fv::Plaintext({3, 0, 1}));
        fv::Ciphertext y = encryptor.encrypt(fv::Plaintext({5, 2}));

        service::ServiceConfig probe_cfg;
        probe_cfg.workers = 1;
        service::ExecutionService probe(params, rlk, probe_cfg);
        fv::Ciphertext hw_result =
            probe.submit(service::Op::kMult, x, y).get();
        const bool bit_exact =
            hw_result == evaluator.multiply(x, y, rlk);
        std::printf("hardware Mult vs software evaluator: %s\n",
                    bit_exact ? "bit-exact" : "MISMATCH");
        if (!bit_exact)
            return 1;
    }

    // --- the serving run: clients x workers ------------------------------
    const size_t n_workers = 2;   // the paper's two-coprocessor system
    const size_t n_clients = 4;   // synthetic load driver threads
    const size_t ops_per_client = 6;

    service::ServiceConfig cfg;
    cfg.workers = n_workers;
    cfg.max_batch = 4;
    service::ExecutionService svc(params, rlk, cfg);

    std::vector<std::thread> clients;
    std::vector<ClientResult> results(n_clients);
    for (size_t c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            results[c] =
                runClient(c, ops_per_client, svc, params, pk, sk);
        });
    }
    for (std::thread &t : clients)
        t.join();
    svc.drain();

    service::ServiceStats stats = svc.stats();
    size_t total_ops = 0, total_wrong = 0;
    for (const ClientResult &r : results) {
        total_ops += r.ops;
        total_wrong += r.wrong;
    }
    std::printf("\nserving run: %zu clients -> %zu workers, "
                "%zu ops (%zu batches)\n",
                n_clients, svc.workerCount(),
                static_cast<size_t>(stats.ops_completed),
                static_cast<size_t>(stats.batches));
    std::printf("  decrypted results: %zu/%zu correct\n",
                total_ops - total_wrong, total_ops);
    std::printf("  modeled accelerator makespan: %.1f ms -> %.0f ops/s\n",
                stats.makespan_us / 1e3, stats.modeledOpsPerSecond());
    std::printf("  modeled host transfer time: %.1f ms, key DMA: "
                "%.1f ms\n",
                stats.host_us / 1e3, stats.dma_us / 1e3);

    std::printf("  shared DMA engine busy %.0f%% of the makespan\n",
                stats.dmaUtilization() * 100.0);

    // --- context: the paper's batch throughput ----------------------------
    // A start_paused run: the whole batch is queued before the workers
    // start, so every dequeue runs at full batch width.
    service::ServiceConfig batch_cfg = cfg;
    batch_cfg.start_paused = true;
    service::ExecutionService batch_svc(params, rlk, batch_cfg);
    fv::Encryptor encryptor(params, pk, 5);
    const fv::Ciphertext x = encryptor.encrypt(fv::Plaintext({2}));
    const fv::Ciphertext y = encryptor.encrypt(fv::Plaintext({3}));
    std::vector<std::future<fv::Ciphertext>> batch;
    for (int i = 0; i < 64; ++i)
        batch.push_back(batch_svc.submit(service::Op::kMult, x, y));
    batch_svc.start();
    for (auto &f : batch)
        f.get();
    batch_svc.drain();
    const double mps = batch_svc.stats().modeledOpsPerSecond();
    hw::PowerModel power;
    std::printf("\nbatch of 64 Mults on %zu coprocessors sharing one DMA "
                "engine:\n", n_workers);
    std::printf("  %.0f Mult/s (paper: 400), %.1f W total -> %.1f mJ "
                "per Mult\n",
                mps, power.totalW(n_workers),
                power.energyPerMultMj(mps, n_workers));
    return total_wrong == 0 ? 0 : 1;
}
