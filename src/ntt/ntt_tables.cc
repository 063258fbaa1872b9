#include "ntt/ntt_tables.h"

#include "common/bit_util.h"
#include "common/panic.h"
#include "rns/prime_gen.h"

namespace heat::ntt {

NttTables::NttTables(const rns::Modulus &modulus, size_t n)
    : modulus_(modulus), n_(n)
{
    fatalIf(!isPowerOfTwo(n), "NTT degree must be a power of two");
    log_n_ = log2Floor(n);
    fatalIf((modulus.value() - 1) % (2 * n) != 0,
            "modulus is not NTT-friendly for this degree");

    psi_ = rns::findPrimitiveRoot(modulus.value(), n);

    root_powers_.resize(n);
    root_shoup_.resize(n);
    inv_root_powers_.resize(n);
    inv_root_shoup_.resize(n);

    // Walk psi^j and psi^-j as running products, one Shoup multiply by
    // the fixed psi or psi^-1 each (no division), and store them at
    // i = bitrev(j), kept by a bit-reversed counter.
    const uint64_t psi_inv = modulus.inverse(psi_);
    const uint64_t psi_shoup = modulus.shoupPrecompute(psi_);
    const uint64_t psi_inv_shoup = modulus.shoupPrecompute(psi_inv);
    uint64_t power = 1;
    uint64_t inv_power = 1;
    size_t i = 0;
    for (size_t j = 0; j < n; ++j) {
        root_powers_[i] = power;
        root_shoup_[i] = modulus.shoupPrecompute(power);
        inv_root_powers_[i] = inv_power;
        inv_root_shoup_[i] = modulus.shoupPrecompute(inv_power);
        power = modulus.mulShoup(power, psi_, psi_shoup);
        inv_power = modulus.mulShoup(inv_power, psi_inv, psi_inv_shoup);
        // i = bitrev(j + 1): add one at the top bit, carrying downward.
        size_t bit = n >> 1;
        while (i & bit) {
            i ^= bit;
            bit >>= 1;
        }
        i |= bit;
    }

    inv_degree_ = modulus.inverse(n % modulus.value());
    inv_degree_shoup_ = modulus.shoupPrecompute(inv_degree_);
}

NttContext::NttContext(const rns::RnsBase &base, size_t n) : n_(n)
{
    tables_.reserve(base.size());
    for (size_t i = 0; i < base.size(); ++i)
        tables_.push_back(std::make_shared<NttTables>(base.modulus(i), n));
}

NttContext
NttContext::select(const NttContext &parent,
                   const std::vector<size_t> &indices)
{
    NttContext context;
    context.n_ = parent.n_;
    context.tables_.reserve(indices.size());
    for (size_t index : indices) {
        fatalIf(index >= parent.size(),
                "NttContext::select index out of range");
        context.tables_.push_back(parent.tables_[index]);
    }
    return context;
}

} // namespace heat::ntt
