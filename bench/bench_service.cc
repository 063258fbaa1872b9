/**
 * @file
 * Serving-layer throughput: ops/sec through the ExecutionService at
 * worker counts {1, 2, 4, 8}, 32 Mults queued on a start_paused
 * service and then released.
 *
 * Three numbers per worker count:
 *  - modeled ops/s: the simulated hardware's throughput on the
 *    service's one modeled clock (each Mult costs its fused program's
 *    compute plus one Arm dispatch, key DMA and transfers, and the
 *    workers share one DMA engine) — the scaling criterion: it must
 *    grow monotonically from 1 to 4 workers;
 *  - DMA utilization: the shared DMA engine's busy fraction of the
 *    modeled makespan;
 *  - wall ops/s: host wall-clock throughput of the functional
 *    simulation itself (bounded by the machine's cores, reported for
 *    context).
 */

#include <chrono>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"

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

    // Every Mult clones the same two operands.
    std::vector<fv::Ciphertext> operands;
    for (size_t i = 0; i < 2; ++i) {
        fv::Plaintext m;
        m.coeffs = {rng.uniformBelow(2), rng.uniformBelow(2)};
        operands.push_back(encryptor.encrypt(m));
    }

    bench::printHeader("serving layer: ops/sec vs worker count "
                       "(32 Mults each)");
    double prev_modeled = 0.0;
    bool monotonic = true;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
        // Batches of 4 give every one of 8 workers a batch.
        const auto t0 = std::chrono::steady_clock::now();
        const service::ServiceStats stats =
            bench::runMults(params, rlk, operands[0], operands[1],
                            workers, ops, /*max_batch=*/4);
        const auto t1 = std::chrono::steady_clock::now();

        const double wall_s =
            std::chrono::duration<double>(t1 - t0).count();
        const double modeled = stats.modeledOpsPerSecond();
        const double wall =
            static_cast<double>(stats.ops_completed) / wall_s;
        const double dma = stats.dmaUtilization();

        char label[64];
        std::snprintf(label, sizeof label,
                      "workers=%zu modeled ops/s", workers);
        bench::printInfo(label, modeled, "op/s");
        std::snprintf(label, sizeof label,
                      "workers=%zu DMA utilization", workers);
        bench::printInfo(label, dma, "  ");
        std::snprintf(label, sizeof label,
                      "workers=%zu wall ops/s", workers);
        bench::printInfo(label, wall, "op/s");

        std::snprintf(label, sizeof label, "modeled_ops_per_sec_w%zu",
                      workers);
        reporter.record(label, modeled, "op/s", params->degree(),
                        params->qBase()->size());
        std::snprintf(label, sizeof label, "dma_utilization_w%zu",
                      workers);
        reporter.record(label, dma, "fraction", params->degree(),
                        params->qBase()->size());
        std::snprintf(label, sizeof label, "wall_ops_per_sec_w%zu",
                      workers);
        reporter.record(label, wall, "op/s", params->degree(),
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
