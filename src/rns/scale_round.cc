#include "rns/scale_round.h"

#include "common/bit_util.h"
#include "common/panic.h"
#include "obs/trace.h"

namespace heat::rns {

ScaleRounder::ScaleRounder(const RnsBase &q_base, const RnsBase &p_base,
                           uint64_t t)
    : q_(q_base), p_(p_base), full_(RnsBase::concat(q_base, p_base)), t_(t)
{
    fatalIf(t == 0, "plaintext modulus must be positive");

    const mp::BigInt t_big = mp::BigInt::fromUint64(t);
    const mp::BigInt &p_prod = p_.product();

    rfrac_.resize(q_.size());
    imod_.assign(q_.size(), std::vector<uint64_t>(p_.size(), 0));
    for (size_t i = 0; i < q_.size(); ++i) {
        const uint64_t q_i = q_.modulus(i).value();
        // Q~_i = (Q / q_i)^{-1} mod q_i, taken from the full base.
        const uint64_t qtilde_i = full_.crtInverse(i);
        // numerator = t * Q~_i * p; constant c_i = numerator / q_i.
        mp::BigInt num = t_big * mp::BigInt::fromUint64(qtilde_i) * p_prod;
        mp::BigInt rem;
        mp::BigInt integer_part = num.divMod(
            mp::BigInt::fromUint64(q_i), rem);
        // R_i = frac = rem / q_i, stored as round(rem * 2^60 / q_i).
        mp::BigInt r_fixed =
            (rem * mp::BigInt::powerOfTwo(kFracBits) * mp::BigInt(2) +
             mp::BigInt::fromUint64(q_i)) /
            (mp::BigInt::fromUint64(q_i) * mp::BigInt(2));
        rfrac_[i] = r_fixed.toUint64();
        for (size_t j = 0; j < p_.size(); ++j)
            imod_[i][j] = integer_part.modUint64(p_.modulus(j).value());
    }

    cj_.resize(p_.size());
    for (size_t j = 0; j < p_.size(); ++j) {
        const uint64_t p_j = p_.modulus(j).value();
        const uint64_t qtilde_j = full_.crtInverse(q_.size() + j);
        mp::BigInt pstar_j = p_prod / mp::BigInt::fromUint64(p_j);
        mp::BigInt c = t_big * mp::BigInt::fromUint64(qtilde_j) * pstar_j;
        cj_[j] = c.modUint64(p_j);
    }

    // The batch kernel needs every full-base prime inside the 32-bit
    // lanes and the q residues plus the own p residue within its term
    // budget. rfrac_[i] <= 2^60 since rem < q_i.
    bool eligible = q_.size() + 1 <= simd::kHpsMaxTerms;
    for (const auto &m : full_.moduli())
        eligible = eligible && simd::eligibleModulus(m.value());
    if (eligible) {
        simd::HpsScalePlan &plan = plan_.emplace();
        plan.q_size = q_.size();
        plan.p_size = p_.size();
        plan.frac_bits = kFracBits;
        plan.frac = rfrac_;
        for (size_t j = 0; j < p_.size(); ++j) {
            for (size_t i = 0; i < q_.size(); ++i)
                plan.weights.push_back(imod_[i][j]);
            plan.weights.push_back(cj_[j]);
            plan.p_mod.push_back(simd::mod32Constants(p_.modulus(j)));
        }
    }
}

void
ScaleRounder::scale(std::span<const uint64_t> in,
                    std::span<uint64_t> out) const
{
    panicIf(in.size() != q_.size() + p_.size(), "input size mismatch");
    panicIf(out.size() != p_.size(), "output size mismatch");

    // Block 1: fractional sum-of-products. Each term is < 2^30 * 2^60 and
    // at most 48 terms accumulate: fits 128 bits.
    uint128_t sop_r = 0;
    for (size_t i = 0; i < q_.size(); ++i)
        sop_r += mulWide64(in[i], rfrac_[i]);
    const uint64_t rounded_r = static_cast<uint64_t>(
        (sop_r + (uint128_t(1) << (kFracBits - 1))) >> kFracBits);

    for (size_t j = 0; j < p_.size(); ++j) {
        const Modulus &p_j = p_.modulus(j);
        // Block 2: integer sum-of-products modulo p_j.
        uint128_t acc = 0;
        for (size_t i = 0; i < q_.size(); ++i)
            acc += mulWide64(in[i], imod_[i][j]);
        // Block 3: contribution of x's own p-base residue.
        acc += mulWide64(in[q_.size() + j], cj_[j]);
        // Block 4: add the rounded fractional part and reduce.
        acc += rounded_r;
        out[j] = p_j.reduce128(acc);
    }
}

void
ScaleRounder::scaleBatch(const uint64_t *const *in_rows,
                         uint64_t *const *out_rows, size_t count,
                         const FastBaseConverter *back,
                         uint64_t *const *broadcast_rows) const
{
    OBS_SPAN("rns.scale_batch", "kernel");
    panicIf(back != nullptr && back->fromBase().size() != p_.size(),
            "back-conversion must start from the p base");
    panicIf(back == nullptr && broadcast_rows != nullptr,
            "a digit broadcast needs a back-conversion");
    const simd::HpsConvertPlan *back_plan =
        back != nullptr ? back->batchPlan() : nullptr;
    if (plan_ && (back == nullptr || back_plan != nullptr)) {
        simd::active().hps_scale(*plan_, back_plan, in_rows, out_rows,
                                 broadcast_rows, count);
        return;
    }

    const size_t kp = p_.size();
    const size_t kb = back != nullptr ? back->toBase().size() : 0;
    std::vector<uint64_t> in(full_.size()), mid(kp), res(kb);
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < full_.size(); ++i)
            in[i] = in_rows[i][c];
        scale(in, mid);
        if (back == nullptr) {
            for (size_t j = 0; j < kp; ++j)
                out_rows[j][c] = mid[j];
            continue;
        }
        back->convert(mid, res);
        for (size_t d = 0; d < kb; ++d) {
            out_rows[d][c] = res[d];
            if (broadcast_rows == nullptr)
                continue;
            for (size_t ch = 0; ch < kb; ++ch)
                broadcast_rows[d * kb + ch][c] =
                    back->toBase().modulus(ch).reduce(res[d]);
        }
    }
}

void
ScaleRounder::scaleExact(std::span<const uint64_t> in,
                         std::span<uint64_t> out) const
{
    panicIf(in.size() != full_.size(), "input size mismatch");
    panicIf(out.size() != p_.size(), "output size mismatch");

    std::vector<uint64_t> residues(in.begin(), in.end());
    mp::BigInt x = full_.composeCentered(residues);
    const mp::BigInt q_prod = q_.product();
    // Round half up: floor((2*t*x + q) / (2*q)) — floor division, which
    // for negative numerators needs an explicit adjustment because BigInt
    // division truncates toward zero.
    mp::BigInt numer = mp::BigInt::fromUint64(t_) * x * mp::BigInt(2) +
                       q_prod;
    mp::BigInt denom = q_prod * mp::BigInt(2);
    mp::BigInt rem;
    mp::BigInt y = numer.divMod(denom, rem);
    if (rem.isNegative())
        y -= mp::BigInt(1);

    for (size_t j = 0; j < p_.size(); ++j) {
        mp::BigInt p_j(static_cast<int64_t>(p_.modulus(j).value()));
        out[j] = y.mod(p_j).toUint64();
    }
}

} // namespace heat::rns
