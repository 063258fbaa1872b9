#include "ntt/rns_poly.h"

#include "common/panic.h"
#include "common/parallel.h"
#include "ntt/ntt.h"
#include "simd/simd.h"

namespace heat::ntt {

RnsPoly::RnsPoly(std::shared_ptr<const rns::RnsBase> base, size_t n,
                 PolyForm form)
    : base_(std::move(base)), n_(n), form_(form)
{
    panicIf(!base_, "RnsPoly needs a base");
    data_.assign(base_->size() * n_, 0);
}

RnsPoly::RnsPoly(std::shared_ptr<const rns::RnsBase> base, size_t n,
                 std::span<const uint64_t> data, PolyForm form)
    : base_(std::move(base)), n_(n), form_(form)
{
    panicIf(!base_, "RnsPoly needs a base");
    panicIf(data.size() != base_->size() * n_,
            "RnsPoly data does not match its base and degree");
    data_.assign(data.begin(), data.end());
}

std::span<uint64_t>
RnsPoly::residue(size_t i)
{
    panicIf(i >= residueCount(), "residue index out of range");
    return {data_.data() + i * n_, n_};
}

std::span<const uint64_t>
RnsPoly::residue(size_t i) const
{
    panicIf(i >= residueCount(), "residue index out of range");
    return {data_.data() + i * n_, n_};
}

void
RnsPoly::gatherCoefficient(size_t coeff, std::span<uint64_t> out) const
{
    panicIf(coeff >= n_, "coefficient index out of range");
    panicIf(out.size() != residueCount(), "gather size mismatch");
    for (size_t i = 0; i < residueCount(); ++i)
        out[i] = data_[i * n_ + coeff];
}

void
RnsPoly::scatterCoefficient(size_t coeff, std::span<const uint64_t> in)
{
    panicIf(coeff >= n_, "coefficient index out of range");
    panicIf(in.size() != residueCount(), "scatter size mismatch");
    for (size_t i = 0; i < residueCount(); ++i)
        data_[i * n_ + coeff] = in[i];
}

void
RnsPoly::checkCompatible(const RnsPoly &other) const
{
    panicIf(n_ != other.n_, "degree mismatch");
    panicIf(!(*base_ == *other.base_), "RNS base mismatch");
    panicIf(form_ != other.form_, "representation form mismatch");
}

void
RnsPoly::addInPlace(const RnsPoly &other)
{
    checkCompatible(other);
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, &other, &k](size_t i) {
        k.add_mod(residue(i).data(), other.residue(i).data(), n_,
                  base_->modulus(i).value());
    });
}

void
RnsPoly::subInPlace(const RnsPoly &other)
{
    checkCompatible(other);
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, &other, &k](size_t i) {
        k.sub_mod(residue(i).data(), other.residue(i).data(), n_,
                  base_->modulus(i).value());
    });
}

void
RnsPoly::negateInPlace()
{
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, &k](size_t i) {
        k.negate_mod(residue(i).data(), n_, base_->modulus(i).value());
    });
}

void
RnsPoly::mulPointwiseInPlace(const RnsPoly &other)
{
    checkCompatible(other);
    panicIf(form_ != PolyForm::kNtt, "pointwise mul requires NTT form");
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, &other, &k](size_t i) {
        k.mul_mod(residue(i).data(), other.residue(i).data(), n_,
                  base_->modulus(i));
    });
}

void
RnsPoly::addMulPointwise(const RnsPoly &a, const RnsPoly &b)
{
    checkCompatible(a);
    checkCompatible(b);
    panicIf(form_ != PolyForm::kNtt, "pointwise MAC requires NTT form");
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, &a, &b, &k](size_t i) {
        k.mac_mod(residue(i).data(), a.residue(i).data(),
                  b.residue(i).data(), n_, base_->modulus(i));
    });
}

void
RnsPoly::mulScalarInPlace(std::span<const uint64_t> scalar_residues)
{
    panicIf(scalar_residues.size() != residueCount(),
            "scalar residue count mismatch");
    const simd::Kernels &k = simd::active();
    parallelFor(residueCount(), [this, scalar_residues, &k](size_t i) {
        const rns::Modulus &q = base_->modulus(i);
        const uint64_t s = scalar_residues[i] % q.value();
        k.mul_shoup(residue(i).data(), n_, q, s, q.shoupPrecompute(s));
    });
}

void
RnsPoly::toNtt(const NttContext &context)
{
    panicIf(form_ != PolyForm::kCoeff, "toNtt requires coefficient form");
    panicIf(context.degree() != n_ || context.size() != residueCount(),
            "NTT context mismatch");
    parallelFor(residueCount(), [this, &context](size_t i) {
        forwardNtt(residue(i), context.tables(i));
    });
    form_ = PolyForm::kNtt;
}

void
RnsPoly::toCoeff(const NttContext &context)
{
    panicIf(form_ != PolyForm::kNtt, "toCoeff requires NTT form");
    panicIf(context.degree() != n_ || context.size() != residueCount(),
            "NTT context mismatch");
    parallelFor(residueCount(), [this, &context](size_t i) {
        inverseNtt(residue(i), context.tables(i));
    });
    form_ = PolyForm::kCoeff;
}

RnsPoly
RnsPoly::fromBigCoefficients(std::shared_ptr<const rns::RnsBase> base,
                             size_t n,
                             const std::vector<mp::BigInt> &coeffs)
{
    panicIf(coeffs.size() > n, "too many coefficients");
    RnsPoly poly(std::move(base), n, PolyForm::kCoeff);
    for (size_t i = 0; i < poly.residueCount(); ++i) {
        const mp::BigInt q_i(
            static_cast<int64_t>(poly.base().modulus(i).value()));
        auto r = poly.residue(i);
        for (size_t j = 0; j < coeffs.size(); ++j)
            r[j] = coeffs[j].mod(q_i).toUint64();
    }
    return poly;
}

mp::BigInt
RnsPoly::coefficientCentered(size_t i) const
{
    std::vector<uint64_t> residues(residueCount());
    gatherCoefficient(i, residues);
    return base_->composeCentered(residues);
}

bool
RnsPoly::operator==(const RnsPoly &other) const
{
    return n_ == other.n_ && form_ == other.form_ &&
           *base_ == *other.base_ && data_ == other.data_;
}

} // namespace heat::ntt
