#include "fv/evaluator.h"

#include <algorithm>

#include "common/panic.h"
#include "common/parallel.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace heat::fv {

namespace {

/**
 * Coefficient-block size of one parallelFor task over the lift/scale
 * batch kernels: large enough to amortize the per-task row pointers,
 * small enough to spread a polynomial over the worker threads.
 */
constexpr size_t kCoeffGrain = 512;

} // namespace

Evaluator::Evaluator(std::shared_ptr<const FvParams> params, ArithPath path)
    : params_(std::move(params)), path_(path)
{
}

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    Ciphertext c = a;
    addInPlace(c, b);
    return c;
}

void
Evaluator::addInPlace(Ciphertext &a, const Ciphertext &b) const
{
    OBS_SPAN("fv.add", "evaluator");
    panicIf(a.size() != b.size(), "ciphertext size mismatch in add");
    panicIf(a.level != b.level, "ciphertext level mismatch in add");
    for (size_t i = 0; i < a.size(); ++i)
        a[i].addInPlace(b[i]);
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    OBS_SPAN("fv.sub", "evaluator");
    panicIf(a.size() != b.size(), "ciphertext size mismatch in sub");
    panicIf(a.level != b.level, "ciphertext level mismatch in sub");
    Ciphertext c = a;
    for (size_t i = 0; i < c.size(); ++i)
        c[i].subInPlace(b[i]);
    return c;
}

void
Evaluator::negateInPlace(Ciphertext &a) const
{
    for (auto &poly : a.polys)
        poly.negateInPlace();
}

ntt::RnsPoly
Evaluator::scaledPlain(const Plaintext &plain, size_t level) const
{
    fatalIf(plain.coeffs.size() > params_->degree(), "plaintext too long");
    const auto &base = params_->qBase(level);
    const auto &delta = params_->deltaResidues(level);
    ntt::RnsPoly poly(base, params_->degree(), ntt::PolyForm::kCoeff);
    const uint64_t t = params_->plainModulus();
    const size_t count = plain.coeffs.size();
    // m mod t once; each residue is then one Shoup multiply by its
    // Delta_l mod q_i (m mod t < q_i whenever t <= q_i).
    std::vector<uint64_t> m(count);
    for (size_t j = 0; j < count; ++j)
        m[j] = plain.coeffs[j] % t;
    const simd::Kernels &kernels = simd::active();
    for (size_t i = 0; i < base->size(); ++i) {
        const rns::Modulus &q_i = base->modulus(i);
        uint64_t *r = poly.residue(i).data();
        if (t <= q_i.value()) {
            kernels.mul_shoup_out(r, m.data(), count, q_i, delta[i],
                                  q_i.shoupPrecompute(delta[i]));
            continue;
        }
        for (size_t j = 0; j < count; ++j)
            r[j] = q_i.mul(delta[i], m[j]);
    }
    return poly;
}

ntt::RnsPoly
Evaluator::embeddedPlain(const Plaintext &plain, size_t level) const
{
    fatalIf(plain.coeffs.size() > params_->degree(), "plaintext too long");
    const auto &base = params_->qBase(level);
    ntt::RnsPoly poly(base, params_->degree(), ntt::PolyForm::kCoeff);
    const uint64_t t = params_->plainModulus();
    for (size_t i = 0; i < base->size(); ++i) {
        auto r = poly.residue(i);
        const rns::Modulus &q_i = base->modulus(i);
        for (size_t j = 0; j < plain.coeffs.size(); ++j)
            r[j] = q_i.reduce(plain.coeffs[j] % t);
    }
    return poly;
}

void
Evaluator::addPlainInPlace(Ciphertext &ct, const Plaintext &plain) const
{
    ct[0].addInPlace(scaledPlain(plain, ct.level));
}

void
Evaluator::subPlainInPlace(Ciphertext &ct, const Plaintext &plain) const
{
    ct[0].subInPlace(scaledPlain(plain, ct.level));
}

Ciphertext
Evaluator::multiplyPlain(const Ciphertext &ct, const Plaintext &plain) const
{
    // Embed the plaintext unscaled in R_{q_l} and multiply both
    // ciphertext polynomials by it in the NTT domain.
    const auto &ctx = params_->qContext(ct.level);
    ntt::RnsPoly p = embeddedPlain(plain, ct.level);
    p.toNtt(ctx);

    Ciphertext out = ct;
    for (auto &poly : out.polys) {
        poly.toNtt(ctx);
        poly.mulPointwiseInPlace(p);
        poly.toCoeff(ctx);
    }
    return out;
}

ntt::RnsPoly
Evaluator::liftToFull(const ntt::RnsPoly &q_poly) const
{
    panicIf(q_poly.form() != ntt::PolyForm::kCoeff,
            "lift requires coefficient form");
    const size_t n = params_->degree();
    const size_t level = levelOf(q_poly);
    const auto &conv = params_->liftConverter(level);
    const size_t kq = q_poly.residueCount();
    const size_t kp = params_->pBase()->size();

    ntt::RnsPoly out(params_->fullBase(level), n, ntt::PolyForm::kCoeff);
    if (path_ == ArithPath::kHps) {
        parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
            // q residues are unchanged by the centered lift (x == x - q
            // mod q_i); the p residues come from the batch converter.
            std::vector<const uint64_t *> in_rows(kq);
            std::vector<uint64_t *> out_rows(kp);
            for (size_t i = 0; i < kq; ++i) {
                auto src = q_poly.residue(i);
                std::copy(src.begin() + begin, src.begin() + end,
                          out.residue(i).begin() + begin);
                in_rows[i] = src.data() + begin;
            }
            for (size_t i = 0; i < kp; ++i)
                out_rows[i] = out.residue(kq + i).data() + begin;
            conv.convertBatch(in_rows.data(), out_rows.data(),
                              end - begin);
        });
        return out;
    }
    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        std::vector<uint64_t> in(kq), ext(kp);
        for (size_t j = begin; j < end; ++j) {
            q_poly.gatherCoefficient(j, in);
            conv.convertExact(in, ext);
            for (size_t i = 0; i < kq; ++i)
                out.residue(i)[j] = in[i];
            for (size_t i = 0; i < kp; ++i)
                out.residue(kq + i)[j] = ext[i];
        }
    });
    return out;
}

ntt::RnsPoly
Evaluator::scaleToQ(const ntt::RnsPoly &full_poly) const
{
    panicIf(full_poly.form() != ntt::PolyForm::kCoeff,
            "scale requires coefficient form");
    const size_t n = params_->degree();
    const size_t kp = params_->pBase()->size();
    const size_t level =
        params_->levelForResidueCount(full_poly.residueCount());
    const auto &scaler = params_->scaler(level);
    const auto &back = params_->scaleBackConverter(level);
    const size_t kq = full_poly.residueCount() - kp;

    ntt::RnsPoly out(params_->qBase(level), n, ntt::PolyForm::kCoeff);
    if (path_ == ArithPath::kHps) {
        parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
            // Scale and switch back to the q base in one pass.
            std::vector<const uint64_t *> in_rows(kq + kp);
            for (size_t i = 0; i < kq + kp; ++i)
                in_rows[i] = full_poly.residue(i).data() + begin;
            std::vector<uint64_t *> out_rows(kq);
            for (size_t i = 0; i < kq; ++i)
                out_rows[i] = out.residue(i).data() + begin;
            scaler.scaleBatch(in_rows.data(), out_rows.data(), end - begin,
                              &back);
        });
        return out;
    }
    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        std::vector<uint64_t> in(kq + kp), mid(kp), res(kq);
        for (size_t j = begin; j < end; ++j) {
            full_poly.gatherCoefficient(j, in);
            scaler.scaleExact(in, mid);
            back.convertExact(mid, res);
            out.scatterCoefficient(j, res);
        }
    });
    return out;
}

Ciphertext
Evaluator::multiplyNoRelin(const Ciphertext &a, const Ciphertext &b) const
{
    OBS_SPAN("fv.multiply_no_relin", "evaluator");
    panicIf(a.size() != 2 || b.size() != 2,
            "multiply expects 2-element ciphertexts");
    panicIf(a.level != b.level, "ciphertext level mismatch in multiply");

    // Step 1: Lift q->Q (Fig. 2 left column).
    ntt::RnsPoly a0 = liftToFull(a[0]);
    ntt::RnsPoly a1 = liftToFull(a[1]);
    ntt::RnsPoly b0 = liftToFull(b[0]);
    ntt::RnsPoly b1 = liftToFull(b[1]);

    // Step 2: tensor product via NTT over R_Q.
    const auto &ctx = params_->fullContext(a.level);
    a0.toNtt(ctx);
    a1.toNtt(ctx);
    b0.toNtt(ctx);
    b1.toNtt(ctx);

    ntt::RnsPoly t0 = a0;
    t0.mulPointwiseInPlace(b0);
    ntt::RnsPoly t1 = a0;
    t1.mulPointwiseInPlace(b1);
    t1.addMulPointwise(a1, b0);
    ntt::RnsPoly t2 = a1;
    t2.mulPointwiseInPlace(b1);

    t0.toCoeff(ctx);
    t1.toCoeff(ctx);
    t2.toCoeff(ctx);

    // Step 3: Scale Q->q (round(t x / q)).
    Ciphertext out;
    out.level = a.level;
    out.polys.push_back(scaleToQ(t0));
    out.polys.push_back(scaleToQ(t1));
    out.polys.push_back(scaleToQ(t2));
    return out;
}

std::vector<ntt::RnsPoly>
Evaluator::rnsDigits(const ntt::RnsPoly &poly) const
{
    panicIf(poly.form() != ntt::PolyForm::kCoeff,
            "digit decomposition requires coefficient form");
    const auto &base = params_->qBase(levelOf(poly));
    const size_t k = base->size();
    const size_t n = params_->degree();

    // Digit i broadcasts residue polynomial i to every channel; values
    // are < 2^30, so reduction mod the other primes is at most one
    // conditional subtraction — the paper's "cheap bit manipulation".
    const simd::Kernels &kern = simd::active();
    std::vector<ntt::RnsPoly> digits;
    digits.reserve(k);
    for (size_t i = 0; i < k; ++i) {
        ntt::RnsPoly d(base, n, ntt::PolyForm::kCoeff);
        auto src = poly.residue(i);
        parallelFor(k, [&](size_t c) {
            kern.reduce_u32(d.residue(c).data(), src.data(), n,
                            base->modulus(c));
        });
        digits.push_back(std::move(d));
    }
    return digits;
}

std::vector<ntt::RnsPoly>
Evaluator::positionalDigits(const ntt::RnsPoly &poly, int digit_bits) const
{
    panicIf(poly.form() != ntt::PolyForm::kCoeff,
            "digit decomposition requires coefficient form");
    const size_t level = levelOf(poly);
    const auto &base = params_->qBase(level);
    const size_t k = base->size();
    const size_t n = params_->degree();
    const int q_bits = params_->qBits(level);
    const size_t count =
        (static_cast<size_t>(q_bits) + digit_bits - 1) / digit_bits;

    // Positional decomposition needs the positional coefficient value:
    // exactly the CRT reconstruction the traditional architecture
    // materializes inside Scale (Sec. VI-C).
    std::vector<ntt::RnsPoly> digits(
        count, ntt::RnsPoly(base, n, ntt::PolyForm::kCoeff));
    std::vector<uint64_t> residues(k);
    for (size_t j = 0; j < n; ++j) {
        poly.gatherCoefficient(j, residues);
        mp::BigInt x = base->compose(residues);
        for (size_t d = 0; d < count; ++d) {
            mp::BigInt digit = (x >> static_cast<int>(d) * digit_bits) %
                               mp::BigInt::powerOfTwo(digit_bits);
            for (size_t c = 0; c < k; ++c) {
                digits[d].residue(c)[j] =
                    digit.modUint64(base->modulus(c).value());
            }
        }
    }
    return digits;
}

size_t
Evaluator::levelOf(const ntt::RnsPoly &q_poly) const
{
    const size_t kq = params_->qBase()->size();
    const size_t count = q_poly.residueCount();
    panicIf(count == 0 || count > kq,
            "polynomial residue count matches no level's q base");
    return kq - count;
}

ntt::RnsPoly
Evaluator::keyPolyAtLevel(const ntt::RnsPoly &key_poly, size_t level) const
{
    const auto &base = params_->qBase(level);
    ntt::RnsPoly out(base, params_->degree(), key_poly.form());
    for (size_t i = 0; i < base->size(); ++i) {
        auto src = key_poly.residue(i);
        auto dst = out.residue(i);
        std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
}

void
Evaluator::keySwitchAccumulate(std::vector<ntt::RnsPoly> &digits,
                               const RelinKeys &key, size_t level,
                               ntt::RnsPoly &acc0, ntt::RnsPoly &acc1) const
{
    panicIf(digits.size() > key.digitCount(),
            "digit count exceeds key count");
    const auto &ctx = params_->qContext(level);
    for (size_t i = 0; i < digits.size(); ++i) {
        digits[i].toNtt(ctx);
        if (level == 0) {
            acc0.addMulPointwise(digits[i], key.keys[i][0]);
            acc1.addMulPointwise(digits[i], key.keys[i][1]);
        } else {
            acc0.addMulPointwise(digits[i],
                                 keyPolyAtLevel(key.keys[i][0], level));
            acc1.addMulPointwise(digits[i],
                                 keyPolyAtLevel(key.keys[i][1], level));
        }
    }
    acc0.toCoeff(ctx);
    acc1.toCoeff(ctx);
}

void
Evaluator::relinearizeInPlace(Ciphertext &ct, const RelinKeys &rlk) const
{
    OBS_SPAN("fv.relinearize", "evaluator");
    panicIf(ct.size() != 3, "relinearization expects a 3-element ct");

    std::vector<ntt::RnsPoly> digits =
        rlk.kind == DecompKind::kRnsDigits
            ? rnsDigits(ct[2])
            : positionalDigits(ct[2], rlk.digit_bits);
    panicIf(ct.level == 0 && digits.size() != rlk.digitCount(),
            "digit count does not match key count");

    ntt::RnsPoly acc0(params_->qBase(ct.level), params_->degree(),
                      ntt::PolyForm::kNtt);
    ntt::RnsPoly acc1(params_->qBase(ct.level), params_->degree(),
                      ntt::PolyForm::kNtt);
    keySwitchAccumulate(digits, rlk, ct.level, acc0, acc1);

    ct[0].addInPlace(acc0);
    ct[1].addInPlace(acc1);
    ct.polys.pop_back();
}

Ciphertext
Evaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                    const RelinKeys &rlk) const
{
    OBS_SPAN("fv.multiply", "evaluator");
    Ciphertext c = multiplyNoRelin(a, b);
    relinearizeInPlace(c, rlk);
    return c;
}

Ciphertext
Evaluator::square(const Ciphertext &ct, const RelinKeys &rlk) const
{
    return multiply(ct, ct, rlk);
}

ntt::RnsPoly
Evaluator::modSwitchPoly(const ntt::RnsPoly &poly, size_t from_level) const
{
    panicIf(poly.form() != ntt::PolyForm::kCoeff,
            "mod-switch requires coefficient form");
    panicIf(from_level >= params_->maxLevel(),
            "cannot mod-switch past the last level");
    panicIf(levelOf(poly) != from_level,
            "polynomial residue count does not match from_level");
    const size_t n = params_->degree();
    const size_t live = params_->qPrimeCount(from_level);
    const auto &rounder = params_->modSwitchRounder(from_level);

    ntt::RnsPoly out(params_->qBase(from_level + 1), n,
                     ntt::PolyForm::kCoeff);
    if (path_ == ArithPath::kHps) {
        parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
            // ScaleRounder input order: dropped-prime residue first
            // (its "q" base), then the surviving residues (its "p").
            std::vector<const uint64_t *> in_rows(live);
            in_rows[0] = poly.residue(live - 1).data() + begin;
            for (size_t i = 0; i + 1 < live; ++i)
                in_rows[i + 1] = poly.residue(i).data() + begin;
            std::vector<uint64_t *> out_rows(live - 1);
            for (size_t i = 0; i + 1 < live; ++i)
                out_rows[i] = out.residue(i).data() + begin;
            rounder.scaleBatch(in_rows.data(), out_rows.data(),
                               end - begin);
        });
        return out;
    }
    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        std::vector<uint64_t> res(live), in(live), next(live - 1);
        for (size_t j = begin; j < end; ++j) {
            poly.gatherCoefficient(j, res);
            in[0] = res[live - 1];
            for (size_t i = 0; i + 1 < live; ++i)
                in[i + 1] = res[i];
            rounder.scaleExact(in, next);
            out.scatterCoefficient(j, next);
        }
    });
    return out;
}

Ciphertext
Evaluator::modSwitch(const Ciphertext &ct) const
{
    OBS_SPAN("fv.mod_switch", "evaluator");
    Ciphertext out;
    out.level = ct.level + 1;
    out.polys.reserve(ct.size());
    for (const auto &poly : ct.polys)
        out.polys.push_back(modSwitchPoly(poly, ct.level));
    return out;
}

void
Evaluator::modSwitchInPlace(Ciphertext &ct) const
{
    ct = modSwitch(ct);
}

Ciphertext
Evaluator::modSwitchTo(const Ciphertext &ct, size_t level) const
{
    panicIf(level < ct.level, "modSwitchTo cannot raise the level");
    Ciphertext out = ct;
    while (out.level < level)
        out = modSwitch(out);
    return out;
}

Ciphertext
Evaluator::applyGalois(const Ciphertext &ct, uint32_t galois_element,
                       const GaloisKeys &gkeys) const
{
    OBS_SPAN("fv.apply_galois", "evaluator");
    panicIf(ct.size() != 2, "applyGalois expects a 2-element ciphertext");
    // tau_1 is the identity: no permutation moves and no key-switch is
    // needed (or allowed to spend noise budget / require a key).
    if (galois_element == 1)
        return ct;
    fatalIf(!gkeys.has(galois_element), "missing Galois key for element ",
            galois_element);
    const RelinKeys &key = gkeys.keys.at(galois_element);
    const size_t n = params_->degree();
    const auto &base = params_->qBase(ct.level);

    // Permute both polynomials in coefficient representation.
    Ciphertext permuted;
    permuted.level = ct.level;
    for (int half = 0; half < 2; ++half) {
        ntt::RnsPoly out(base, n, ntt::PolyForm::kCoeff);
        for (size_t k = 0; k < base->size(); ++k) {
            applyGaloisToResidue(ct[half].residue(k), out.residue(k),
                                 galois_element, base->modulus(k));
        }
        permuted.polys.push_back(std::move(out));
    }

    // Key-switch tau_g(c1) from s(x^g) back to s:
    //   c0' = tau_g(c0) + sum_i D_i(tau_g(c1)) * key0_i
    //   c1' =            sum_i D_i(tau_g(c1)) * key1_i
    std::vector<ntt::RnsPoly> digits = rnsDigits(permuted[1]);
    ntt::RnsPoly acc0(base, n, ntt::PolyForm::kNtt);
    ntt::RnsPoly acc1(base, n, ntt::PolyForm::kNtt);
    keySwitchAccumulate(digits, key, ct.level, acc0, acc1);

    Ciphertext out;
    out.level = ct.level;
    acc0.addInPlace(permuted[0]);
    out.polys.push_back(std::move(acc0));
    out.polys.push_back(std::move(acc1));
    return out;
}

Ciphertext
Evaluator::applyGaloisHoisted(const Ciphertext &ct,
                              uint32_t galois_element,
                              const GaloisKeys &gkeys) const
{
    OBS_SPAN("fv.apply_galois_hoisted", "evaluator");
    panicIf(ct.size() != 2,
            "applyGaloisHoisted expects a 2-element ciphertext");
    if (galois_element == 1)
        return ct; // identity — see applyGalois
    fatalIf(!gkeys.has(galois_element), "missing Galois key for element ",
            galois_element);
    const RelinKeys &key = gkeys.keys.at(galois_element);
    const size_t n = params_->degree();
    const auto &base = params_->qBase(ct.level);
    const auto &ctx = params_->qContext(ct.level);

    // Decompose first, permute each digit afterwards: the decompose
    // (and the digits' forward NTTs) is what multiple rotations of one
    // ciphertext share on the hardware path.
    std::vector<ntt::RnsPoly> digits = rnsDigits(ct[1]);
    ntt::RnsPoly acc0(base, n, ntt::PolyForm::kNtt);
    ntt::RnsPoly acc1(base, n, ntt::PolyForm::kNtt);
    ntt::RnsPoly permuted(base, n, ntt::PolyForm::kCoeff);
    for (size_t i = 0; i < digits.size(); ++i) {
        for (size_t k = 0; k < base->size(); ++k) {
            applyGaloisToResidue(digits[i].residue(k),
                                 permuted.residue(k), galois_element,
                                 base->modulus(k));
        }
        permuted.setForm(ntt::PolyForm::kCoeff);
        permuted.toNtt(ctx);
        if (ct.level == 0) {
            acc0.addMulPointwise(permuted, key.keys[i][0]);
            acc1.addMulPointwise(permuted, key.keys[i][1]);
        } else {
            acc0.addMulPointwise(
                permuted, keyPolyAtLevel(key.keys[i][0], ct.level));
            acc1.addMulPointwise(
                permuted, keyPolyAtLevel(key.keys[i][1], ct.level));
        }
    }
    acc0.toCoeff(ctx);
    acc1.toCoeff(ctx);

    // c0' = tau_g(c0) + acc0, c1' = acc1.
    ntt::RnsPoly p0(base, n, ntt::PolyForm::kCoeff);
    for (size_t k = 0; k < base->size(); ++k) {
        applyGaloisToResidue(ct[0].residue(k), p0.residue(k),
                             galois_element, base->modulus(k));
    }
    p0.addInPlace(acc0);

    Ciphertext out;
    out.level = ct.level;
    out.polys.push_back(std::move(p0));
    out.polys.push_back(std::move(acc1));
    return out;
}

Ciphertext
Evaluator::rotateSlots(const Ciphertext &ct, int steps,
                       const GaloisKeys &gkeys) const
{
    return applyGalois(ct, galoisElementForStep(steps, params_->degree()),
                       gkeys);
}

Ciphertext
Evaluator::rotateColumns(const Ciphertext &ct,
                         const GaloisKeys &gkeys) const
{
    return applyGalois(
        ct, static_cast<uint32_t>(2 * params_->degree() - 1), gkeys);
}

Ciphertext
Evaluator::sumAllSlots(const Ciphertext &ct, const GaloisKeys &gkeys) const
{
    OBS_SPAN("fv.sum_all_slots", "evaluator");
    // Rotate-and-add over the row orbit (size n/2), then fold in the
    // conjugate column.
    Ciphertext acc = ct;
    for (size_t step = 1; step <= params_->degree() / 4; step *= 2) {
        Ciphertext rotated =
            rotateSlots(acc, static_cast<int>(step), gkeys);
        addInPlace(acc, rotated);
    }
    Ciphertext swapped = rotateColumns(acc, gkeys);
    addInPlace(acc, swapped);
    return acc;
}

} // namespace heat::fv
