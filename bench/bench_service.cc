/**
 * @file
 * Serving-layer throughput: ops/sec through the ExecutionService at
 * worker counts {1, 2, 4, 8}.
 *
 * Two numbers per worker count:
 *  - modeled ops/s: the simulated hardware's throughput (per-worker
 *    modeled clocks; each Mult costs its fused program's compute plus
 *    one Arm dispatch, key DMA and transfers) — the scaling criterion:
 *    it must grow monotonically from 1 to 4 workers;
 *  - wall ops/s: host wall-clock throughput of the functional
 *    simulation itself (bounded by the machine's cores, reported for
 *    context).
 *
 * The DMA-arbitrated HeatSystem throughput at the same coprocessor
 * count is printed alongside as the contention-aware reference.
 */

#include <chrono>
#include <future>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/system.h"
#include "service/service.h"

using namespace heat;

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("bench_service", argc, argv);

    auto params = fv::FvParams::paper(/*t=*/2);
    fv::KeyGenerator keygen(params, 42);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 43);

    const size_t ops = 32;
    Xoshiro256 rng(7);

    // Pre-encrypt one operand pool; submission clones from it.
    std::vector<fv::Ciphertext> pool;
    for (size_t i = 0; i < 8; ++i) {
        fv::Plaintext m;
        m.coeffs = {rng.uniformBelow(2), rng.uniformBelow(2)};
        pool.push_back(encryptor.encrypt(m));
    }

    // Shared per-Mult profile: cheap HeatSystem construction per row.
    const hw::MultJobProfile profile =
        hw::profileMultJob(params, hw::HwConfig::paper());

    bench::printHeader("serving layer: ops/sec vs worker count "
                       "(32 Mults each)");
    double prev_modeled = 0.0;
    bool monotonic = true;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
        service::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.max_batch = 8;
        service::ExecutionService svc(params, rlk, cfg);

        std::vector<std::future<fv::Ciphertext>> futures;
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < ops; ++i) {
            futures.push_back(svc.submit(service::Op::kMult,
                                         pool[i % pool.size()],
                                         pool[(i + 3) % pool.size()]));
        }
        for (auto &f : futures)
            f.get();
        const auto t1 = std::chrono::steady_clock::now();
        svc.drain();

        const double wall_s =
            std::chrono::duration<double>(t1 - t0).count();
        const service::ServiceStats stats = svc.stats();
        const double modeled = stats.modeledOpsPerSecond();
        const double wall =
            static_cast<double>(stats.ops_completed) / wall_s;

        hw::HeatSystem system(params, cfg.hw, workers, profile);
        const double arbitrated =
            system.simulate(200).mults_per_second;

        char label[64];
        std::snprintf(label, sizeof label,
                      "workers=%zu modeled ops/s", workers);
        bench::printInfo(label, modeled, "op/s");
        std::snprintf(label, sizeof label,
                      "workers=%zu wall ops/s", workers);
        bench::printInfo(label, wall, "op/s");
        std::snprintf(label, sizeof label,
                      "workers=%zu DMA-arbitrated Mult/s", workers);
        bench::printInfo(label, arbitrated, "op/s");

        std::snprintf(label, sizeof label, "modeled_ops_per_sec_w%zu",
                      workers);
        reporter.record(label, modeled, "op/s", params->degree(),
                        params->qBase()->size());
        std::snprintf(label, sizeof label, "wall_ops_per_sec_w%zu",
                      workers);
        reporter.record(label, wall, "op/s", params->degree(),
                        params->qBase()->size());
        std::snprintf(label, sizeof label,
                      "dma_arbitrated_mult_per_sec_w%zu", workers);
        reporter.record(label, arbitrated, "op/s", params->degree(),
                        params->qBase()->size());

        if (workers <= 4) {
            if (modeled < prev_modeled)
                monotonic = false;
            prev_modeled = modeled;
        }
    }
    std::printf("\nmodeled scaling 1 -> 4 workers: %s\n",
                monotonic ? "monotonic" : "NOT monotonic");
    return monotonic ? 0 : 1;
}
