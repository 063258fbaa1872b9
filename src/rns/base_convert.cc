#include "rns/base_convert.h"

#include "common/bit_util.h"
#include "common/panic.h"
#include "obs/trace.h"

namespace heat::rns {

FastBaseConverter::FastBaseConverter(const RnsBase &from, const RnsBase &to)
    : from_(from), to_(to)
{
    // Common fixed-point scale for all reciprocals. For 30-bit primes this
    // is 89 fractional bits: the top 29 are zero, leaving 60 significant
    // bits so each reciprocal fits one 64-bit word (paper Sec. V-B2).
    int min_bits = 64;
    for (const auto &m : from_.moduli())
        min_bits = std::min(min_bits, m.bits());
    frac_bits_ = min_bits - 1 + 60;

    recip_.resize(from_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        mp::BigInt scaled = mp::BigInt::powerOfTwo(frac_bits_);
        mp::BigInt q_i = mp::BigInt::fromUint64(from_.modulus(i).value());
        // round(2^frac / q_i)
        mp::BigInt r = (scaled * mp::BigInt(2) + q_i) / (q_i * mp::BigInt(2));
        recip_[i] = r.toUint64();
    }

    qstar_mod_.assign(from_.size(),
                      std::vector<uint64_t>(to_.size(), 0));
    q_mod_.resize(to_.size());
    for (size_t j = 0; j < to_.size(); ++j) {
        const uint64_t b_j = to_.modulus(j).value();
        q_mod_[j] = from_.product().modUint64(b_j);
        for (size_t i = 0; i < from_.size(); ++i)
            qstar_mod_[i][j] = from_.puncturedProduct(i).modUint64(b_j);
    }

    // The batch kernel needs every prime of both bases inside the
    // 32-bit lanes and the source base within its term budget.
    // recip_[i] <= 2^60 since q_i >= 2^(min_bits - 1).
    bool eligible = from_.size() <= simd::kHpsMaxTerms;
    for (const auto &m : from_.moduli())
        eligible = eligible && simd::eligibleModulus(m.value());
    for (const auto &m : to_.moduli())
        eligible = eligible && simd::eligibleModulus(m.value());
    if (eligible) {
        const size_t kq = from_.size();
        simd::HpsConvertPlan &plan = plan_.emplace();
        plan.from_size = kq;
        plan.to_size = to_.size();
        plan.frac_bits = frac_bits_;
        plan.recip = recip_;
        for (size_t i = 0; i < kq; ++i) {
            const Modulus &q_i = from_.modulus(i);
            plan.from_mod.push_back(simd::mod32Constants(q_i));
            plan.tilde.push_back(from_.crtInverse(i));
            plan.tilde_phi.push_back(
                q_i.shoupPrecompute(from_.crtInverse(i)) >> 32);
        }
        for (size_t j = 0; j < to_.size(); ++j) {
            const uint64_t b_j = to_.modulus(j).value();
            for (size_t i = 0; i < kq; ++i)
                plan.weights.push_back(qstar_mod_[i][j]);
            plan.weights.push_back((b_j - q_mod_[j]) % b_j);
            plan.to_mod.push_back(simd::mod32Constants(to_.modulus(j)));
        }
    }
}

void
FastBaseConverter::computeLambdas(std::span<const uint64_t> in,
                                  std::vector<uint64_t> &lambda) const
{
    panicIf(in.size() != from_.size(), "input size mismatch");
    lambda.resize(from_.size());
    for (size_t i = 0; i < from_.size(); ++i)
        lambda[i] = from_.modulus(i).mul(in[i], from_.crtInverse(i));
}

uint64_t
FastBaseConverter::roundedQuotient(std::span<const uint64_t> lambda) const
{
    // v' = round(sum lambda_i / q_i) evaluated with 60-significant-bit
    // fixed-point reciprocals. lambda_i < 2^30 and recip_i < 2^61, so the
    // accumulated sum stays far below 2^128 even for 48-prime bases.
    uint128_t acc = 0;
    for (size_t i = 0; i < lambda.size(); ++i)
        acc += mulWide64(lambda[i], recip_[i]);
    acc += uint128_t(1) << (frac_bits_ - 1);
    return static_cast<uint64_t>(acc >> frac_bits_);
}

void
FastBaseConverter::convert(std::span<const uint64_t> in,
                           std::span<uint64_t> out) const
{
    panicIf(out.size() != to_.size(), "output size mismatch");
    std::vector<uint64_t> lambda;
    computeLambdas(in, lambda);
    const uint64_t v = roundedQuotient(lambda);

    for (size_t j = 0; j < to_.size(); ++j) {
        const Modulus &b_j = to_.modulus(j);
        // sum_i lambda_i * (q*_i mod b_j): each product is < 2^60 and at
        // most 48 terms accumulate, so a 128-bit accumulator suffices.
        uint128_t acc = 0;
        for (size_t i = 0; i < from_.size(); ++i)
            acc += mulWide64(lambda[i], qstar_mod_[i][j]);
        uint64_t s = b_j.reduce128(acc);
        uint64_t corr = b_j.mul(b_j.reduce(v), q_mod_[j]);
        out[j] = b_j.sub(s, corr);
    }
}

void
FastBaseConverter::convertBatch(const uint64_t *const *in_rows,
                                uint64_t *const *out_rows,
                                size_t count) const
{
    OBS_SPAN("rns.convert_batch", "kernel");
    if (plan_) {
        simd::active().hps_convert(*plan_, in_rows, out_rows, count);
        return;
    }
    const size_t kq = from_.size();
    const size_t kb = to_.size();
    std::vector<uint64_t> in(kq);
    std::vector<uint64_t> out(kb);
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < kq; ++i)
            in[i] = in_rows[i][c];
        convert(in, out);
        for (size_t j = 0; j < kb; ++j)
            out_rows[j][c] = out[j];
    }
}

void
FastBaseConverter::convertExact(std::span<const uint64_t> in,
                                std::span<uint64_t> out) const
{
    panicIf(in.size() != from_.size(), "input size mismatch");
    panicIf(out.size() != to_.size(), "output size mismatch");
    std::vector<uint64_t> residues(in.begin(), in.end());
    mp::BigInt x = from_.composeCentered(residues);
    for (size_t j = 0; j < to_.size(); ++j) {
        mp::BigInt b_j(static_cast<int64_t>(to_.modulus(j).value()));
        out[j] = x.mod(b_j).toUint64();
    }
}

} // namespace heat::rns
