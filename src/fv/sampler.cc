#include "fv/sampler.h"

#include <bit>
#include <cmath>

namespace heat::fv {

namespace {

/** Draws at or above this are redrawn by Xoshiro256::uniformBelow. */
uint64_t
rejectionLimit(uint64_t bound)
{
    return UINT64_MAX - UINT64_MAX % bound;
}

/** The first draw below @p limit, taken as uniformBelow takes it. */
uint64_t
drawBelow(Xoshiro256 &rng, uint64_t limit)
{
    uint64_t v;
    do {
        v = rng.next();
    } while (v >= limit);
    return v;
}

/**
 * Write the signed values @p e (|e| <= max_abs) into every residue of
 * @p poly, residue-major. Where max_abs < q_i a negative e is e + q_i,
 * with no division or branch.
 */
void
writeSigned(ntt::RnsPoly &poly, const std::vector<int64_t> &e,
            uint64_t max_abs)
{
    const size_t n = poly.degree();
    uint64_t *out = poly.data().data();
    for (size_t i = 0; i < poly.residueCount(); ++i, out += n) {
        const uint64_t q = poly.base().modulus(i).value();
        if (max_abs < q) {
            for (size_t j = 0; j < n; ++j) {
                const uint64_t negative = e[j] < 0;
                out[j] = static_cast<uint64_t>(e[j]) + (q & (0 - negative));
            }
            continue;
        }
        for (size_t j = 0; j < n; ++j) {
            const uint64_t mag =
                static_cast<uint64_t>(e[j] < 0 ? -e[j] : e[j]) % q;
            out[j] = e[j] < 0 && mag != 0 ? q - mag : mag;
        }
    }
}

} // namespace

GaussianCdt::GaussianCdt(double sigma)
{
    // Tail cut at 12 sigma: the mass beyond is ~exp(-72) < 2^-100.
    const int tail = static_cast<int>(std::ceil(12.0 * sigma));
    std::vector<long double> weights(tail + 1);
    long double total = 0.0L;
    for (int x = 0; x <= tail; ++x) {
        long double w = std::exp(
            -static_cast<long double>(x) * x / (2.0L * sigma * sigma));
        if (x == 0)
            w *= 0.5L; // zero is sampled once but gets two signs
        weights[x] = w;
        total += w;
    }
    cdt_.resize(tail + 1);
    long double cum = 0.0L;
    const long double scale = 9223372036854775808.0L; // 2^63
    for (int x = 0; x <= tail; ++x) {
        cum += weights[x];
        long double v = cum / total * scale;
        cdt_[x] = v >= scale ? (uint64_t(1) << 63)
                             : static_cast<uint64_t>(v);
    }
    cdt_.back() = uint64_t(1) << 63;

    padded_ = cdt_;
    padded_.resize(std::bit_ceil(cdt_.size()), uint64_t(1) << 63);
}

Sampler::Sampler(std::shared_ptr<const FvParams> params, uint64_t seed)
    : params_(std::move(params)), rng_(seed), cdt_(params_->sigma())
{
}

int64_t
Sampler::gaussianScalar()
{
    const uint64_t r = rng_.next();
    const int64_t sign = -static_cast<int64_t>(r & 1); // 0 or -1
    const int64_t mag = static_cast<int64_t>(cdt_.search(r >> 1));
    return (mag ^ sign) - sign;
}

ntt::RnsPoly
Sampler::uniformQ()
{
    const auto &base = params_->qBase();
    const size_t n = params_->degree();
    ntt::RnsPoly poly(base, n, ntt::PolyForm::kCoeff);
    // CRT is a bijection, so independently uniform residues represent a
    // uniformly random element of [0, q). Each draw consumes the stream
    // as uniformBelow(q_i) does.
    uint64_t *out = poly.data().data();
    for (size_t i = 0; i < base->size(); ++i, out += n) {
        const rns::Modulus &q_i = base->modulus(i);
        const uint64_t limit = rejectionLimit(q_i.value());
        for (size_t j = 0; j < n; ++j)
            out[j] = q_i.reduce(drawBelow(rng_, limit));
    }
    return poly;
}

ntt::RnsPoly
Sampler::ternaryQ()
{
    const size_t n = params_->degree();
    // uniformBelow(3) per coefficient: 0, 1, 2 -> -1, 1, 0.
    constexpr int64_t kValue[3] = {-1, 1, 0};
    const uint64_t limit = rejectionLimit(3);
    std::vector<int64_t> e(n);
    for (size_t j = 0; j < n; ++j)
        e[j] = kValue[drawBelow(rng_, limit) % 3];
    ntt::RnsPoly poly(params_->qBase(), n, ntt::PolyForm::kCoeff);
    writeSigned(poly, e, 1);
    return poly;
}

ntt::RnsPoly
Sampler::gaussianQ()
{
    const size_t n = params_->degree();
    std::vector<int64_t> e(n);
    for (size_t j = 0; j < n; ++j)
        e[j] = gaussianScalar();
    ntt::RnsPoly poly(params_->qBase(), n, ntt::PolyForm::kCoeff);
    writeSigned(poly, e, static_cast<uint64_t>(tailBound()));
    return poly;
}

} // namespace heat::fv
