/**
 * @file
 * Polynomials in RNS (residue) representation.
 *
 * An RnsPoly stores one residue polynomial per base modulus, flat in
 * memory: residue i occupies coefficients [i*n, (i+1)*n). A form flag
 * tracks whether the data is in coefficient or NTT (evaluation) domain;
 * operations check form compatibility, mirroring the layout tags the
 * hardware model attaches to its memory-file slots.
 */

#ifndef HEAT_NTT_RNS_POLY_H
#define HEAT_NTT_RNS_POLY_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mp/bigint.h"
#include "ntt/ntt_tables.h"
#include "rns/rns_base.h"

namespace heat::ntt {

/** Domain of an RnsPoly's data. */
enum class PolyForm
{
    kCoeff, ///< coefficient representation, natural order
    kNtt,   ///< NTT representation, bit-reversed order
};

/** A polynomial over an RNS base. */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /** Construct the zero polynomial over @p base with degree @p n. */
    RnsPoly(std::shared_ptr<const rns::RnsBase> base, size_t n,
            PolyForm form = PolyForm::kCoeff);

    /** Construct over @p base with degree @p n from the residue-major
     *  @p data (base->size() * n words), copied once. */
    RnsPoly(std::shared_ptr<const rns::RnsBase> base, size_t n,
            std::span<const uint64_t> data,
            PolyForm form = PolyForm::kCoeff);

    /** @return the RNS base. */
    const rns::RnsBase &base() const { return *base_; }

    /** @return shared handle to the RNS base. */
    const std::shared_ptr<const rns::RnsBase> &baseHandle() const
    {
        return base_;
    }

    /** @return polynomial degree n. */
    size_t degree() const { return n_; }

    /** @return number of residue polynomials. */
    size_t residueCount() const { return base_ ? base_->size() : 0; }

    /** @return current representation domain. */
    PolyForm form() const { return form_; }

    /** Override the form tag (used when data was written externally). */
    void setForm(PolyForm form) { form_ = form; }

    /** @return mutable view of residue polynomial @p i. */
    std::span<uint64_t> residue(size_t i);

    /** @return const view of residue polynomial @p i. */
    std::span<const uint64_t> residue(size_t i) const;

    /** @return flat data (residue-major). */
    std::vector<uint64_t> &data() { return data_; }
    const std::vector<uint64_t> &data() const { return data_; }

    /**
     * Gather the RNS residues of coefficient @p coeff across all bases
     * into @p out (size residueCount()). This is the access pattern of
     * the Lift/Scale units, which stream coefficient-serial.
     */
    void gatherCoefficient(size_t coeff, std::span<uint64_t> out) const;

    /** Scatter per-coefficient residues back (inverse of gather). */
    void scatterCoefficient(size_t coeff, std::span<const uint64_t> in);

    // --- arithmetic (element-wise across residues) -----------------------

    /** this += other (forms must match, bases must match). */
    void addInPlace(const RnsPoly &other);

    /** this -= other. */
    void subInPlace(const RnsPoly &other);

    /** this = -this. */
    void negateInPlace();

    /** this *= other, coefficient-wise (both operands in NTT form). */
    void mulPointwiseInPlace(const RnsPoly &other);

    /** this += a * b, coefficient-wise (all in NTT form). */
    void addMulPointwise(const RnsPoly &a, const RnsPoly &b);

    /** Multiply every residue by a scalar given mod each base prime. */
    void mulScalarInPlace(std::span<const uint64_t> scalar_residues);

    // --- transforms ------------------------------------------------------

    /** Forward-NTT every residue (kCoeff -> kNtt). */
    void toNtt(const NttContext &context);

    /** Inverse-NTT every residue (kNtt -> kCoeff). */
    void toCoeff(const NttContext &context);

    // --- conversions -----------------------------------------------------

    /**
     * Build an RnsPoly from BigInt coefficients (values taken mod each
     * prime; negative values allowed).
     */
    static RnsPoly fromBigCoefficients(
        std::shared_ptr<const rns::RnsBase> base, size_t n,
        const std::vector<mp::BigInt> &coeffs);

    /** CRT-compose coefficient @p i to a centered BigInt. */
    mp::BigInt coefficientCentered(size_t i) const;

    bool operator==(const RnsPoly &other) const;

  private:
    void checkCompatible(const RnsPoly &other) const;

    std::shared_ptr<const rns::RnsBase> base_;
    size_t n_ = 0;
    PolyForm form_ = PolyForm::kCoeff;
    std::vector<uint64_t> data_;
};

} // namespace heat::ntt

#endif // HEAT_NTT_RNS_POLY_H
