/**
 * @file
 * Reproduces the Sec. VI-C power measurements and the Sec. VI-E
 * comparison against CPU/GPU power envelopes.
 */

#include <cstdio>

#include "bench_util.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/power_model.h"

using namespace heat;
using namespace heat::hw;

int
main(int argc, char **argv)
{
    bench::JsonReporter json("power", argc, argv);
    PowerModel power;

    bench::printHeader("Sec. VI-C: power (W)");
    bench::printRow("Static power", 5.3, power.staticW(), "W ");
    bench::printRow("Dynamic, single-core Mult", 2.2, power.dynamicW(1),
                    "W ");
    bench::printRow("Dynamic, dual-core Mult", 3.4, power.dynamicW(2),
                    "W ");
    bench::printRow("Peak total", 8.7, power.totalW(2), "W ");

    // Energy per multiplication at the simulated throughput.
    auto params = fv::FvParams::paper();
    fv::KeyGenerator keygen(params, 5);
    const fv::SecretKey sk = keygen.generateSecretKey();
    fv::Encryptor encryptor(params, keygen.generatePublicKey(sk), 6);
    const fv::Ciphertext x = encryptor.encrypt(fv::Plaintext({1}));
    const fv::Ciphertext y = encryptor.encrypt(fv::Plaintext({2}));
    const double mps =
        bench::runMults(params, keygen.generateRelinKeys(sk), x, y, 2, 64)
            .modeledOpsPerSecond();
    std::printf("\nEnergy per Mult at %.0f Mult/s (2 coprocessors): "
                "%.1f mJ\n",
                mps, power.energyPerMultMj(mps, 2));
    std::printf("Intel i5 under heavy load (~40 W) at the paper's 30.3 "
                "Mult/s: %.0f mJ per Mult (~%.0fx more energy)\n",
                40.0 / 30.3 * 1e3,
                (40.0 / 30.3 * 1e3) / power.energyPerMultMj(mps, 2));

    json.record("power_static", power.staticW(), "W", params->degree(),
                params->qBase()->size());
    json.record("power_peak_total", power.totalW(2), "W",
                params->degree(), params->qBase()->size());
    json.record("energy_per_mult", power.energyPerMultMj(mps, 2), "mJ",
                params->degree(), params->qBase()->size());
    return 0;
}
