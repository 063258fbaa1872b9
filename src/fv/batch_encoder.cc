#include "fv/batch_encoder.h"

#include "common/panic.h"
#include "fv/galois.h"
#include "mp/primality.h"
#include "ntt/ntt.h"

namespace heat::fv {

BatchEncoder::BatchEncoder(std::shared_ptr<const FvParams> params)
    : params_(std::move(params))
{
    const uint64_t t = params_->plainModulus();
    const size_t n = params_->degree();
    fatalIf(!mp::isPrime(t), "batching requires a prime plain modulus");
    fatalIf((t - 1) % (2 * n) != 0,
            "batching requires t = 1 (mod 2n); try t = 65537 for n<=4096");
    tables_ = std::make_shared<ntt::NttTables>(rns::Modulus(t), n);
}

Plaintext
BatchEncoder::encode(const std::vector<uint64_t> &slots) const
{
    const size_t n = params_->degree();
    fatalIf(slots.size() > n, "more slots than the ring degree");
    const uint64_t t = params_->plainModulus();

    std::vector<uint64_t> values(n, 0);
    for (size_t i = 0; i < slots.size(); ++i)
        values[i] = slots[i] % t;
    // Slots live in the evaluation domain; the plaintext polynomial is
    // their inverse NTT.
    ntt::inverseNtt(values, *tables_);
    return Plaintext(std::move(values));
}

std::vector<size_t>
BatchEncoder::slotPermutation(uint32_t galois_element) const
{
    const size_t n = params_->degree();
    fatalIf(!isValidGaloisElement(galois_element, n),
            "Galois element ", galois_element, " is not odd and < 2n");
    return galoisNttIndexMap(n, galois_element);
}

std::vector<uint64_t>
BatchEncoder::decode(const Plaintext &plain) const
{
    const size_t n = params_->degree();
    fatalIf(plain.coeffs.size() > n, "plaintext longer than ring degree");
    const uint64_t t = params_->plainModulus();

    std::vector<uint64_t> values(n, 0);
    for (size_t i = 0; i < plain.coeffs.size(); ++i)
        values[i] = plain.coeffs[i] % t;
    ntt::forwardNtt(values, *tables_);
    return values;
}

} // namespace heat::fv
