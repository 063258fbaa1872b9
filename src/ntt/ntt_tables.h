/**
 * @file
 * Precomputed twiddle-factor tables for the negacyclic NTT.
 *
 * The paper stores all twiddle factors in on-chip ROM instead of computing
 * them on the fly, removing the pipeline bubbles reported by earlier work
 * (Sec. V-A4). The software library makes the same trade: tables of
 * psi^bitrev(i) with Shoup precomputations so the NTT inner loop is one
 * mulhi, one mullo and a conditional subtraction per butterfly.
 *
 * Building a table is set-up work, paid once per prime: the powers are
 * running products psi^j (one Shoup multiply each, stored at bitrev(j))
 * and their Shoup constants come from a Barrett quotient, so no entry
 * costs a modular exponentiation or a 128-bit division. A parameter
 * set builds each prime's table once and shares it between its q and
 * full contexts and every level (NttContext::select).
 */

#ifndef HEAT_NTT_NTT_TABLES_H
#define HEAT_NTT_NTT_TABLES_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rns/modulus.h"
#include "rns/rns_base.h"

namespace heat::ntt {

/** Twiddle tables for one (modulus, degree) pair. */
class NttTables
{
  public:
    /**
     * Build tables for degree @p n (power of two) modulo @p modulus
     * (prime, = 1 mod 2n).
     */
    NttTables(const rns::Modulus &modulus, size_t n);

    /** @return the modulus. */
    const rns::Modulus &modulus() const { return modulus_; }

    /** @return polynomial degree n. */
    size_t degree() const { return n_; }

    /** @return log2(n). */
    int logDegree() const { return log_n_; }

    /** @return the primitive 2n-th root of unity psi. */
    uint64_t psi() const { return psi_; }

    /** @return psi^bitrev(i) (forward twiddle i). */
    uint64_t rootPower(size_t i) const { return root_powers_[i]; }

    /** @return Shoup precomputation for rootPower(i). */
    uint64_t rootPowerShoup(size_t i) const { return root_shoup_[i]; }

    /** @return (psi^bitrev(i))^{-1} (inverse twiddle i). */
    uint64_t invRootPower(size_t i) const { return inv_root_powers_[i]; }

    /** @return Shoup precomputation for invRootPower(i). */
    uint64_t invRootPowerShoup(size_t i) const { return inv_root_shoup_[i]; }

    // The four n-entry twiddle arrays, indexed as the accessors above,
    // for kernels that load vectors of consecutive twiddles.
    const uint64_t *rootPowers() const { return root_powers_.data(); }
    const uint64_t *rootPowersShoup() const { return root_shoup_.data(); }
    const uint64_t *invRootPowers() const { return inv_root_powers_.data(); }
    const uint64_t *
    invRootPowersShoup() const
    {
        return inv_root_shoup_.data();
    }

    /** @return n^{-1} mod q. */
    uint64_t invDegree() const { return inv_degree_; }

    /** @return Shoup precomputation for invDegree(). */
    uint64_t invDegreeShoup() const { return inv_degree_shoup_; }

  private:
    rns::Modulus modulus_;
    size_t n_ = 0;
    int log_n_ = 0;
    uint64_t psi_ = 0;
    std::vector<uint64_t> root_powers_;
    std::vector<uint64_t> root_shoup_;
    std::vector<uint64_t> inv_root_powers_;
    std::vector<uint64_t> inv_root_shoup_;
    uint64_t inv_degree_ = 0;
    uint64_t inv_degree_shoup_ = 0;
};

/**
 * Twiddle tables for every modulus of an RNS base at a fixed degree.
 * This is the software analogue of the per-RPAU twiddle ROMs.
 */
class NttContext
{
  public:
    NttContext() = default;

    /** Build tables for all moduli of @p base at degree @p n. */
    NttContext(const rns::RnsBase &base, size_t n);

    /**
     * Build a context that reuses (shares) a subset of @p parent's
     * tables — table i of the result is parent table indices[i]. No
     * twiddle ROM is duplicated; this is how the per-level contexts of
     * a modulus-switching chain stay cheap (the level-l basis is a
     * prefix of the level-0 basis).
     */
    static NttContext select(const NttContext &parent,
                             const std::vector<size_t> &indices);

    /** @return tables for base modulus @p i. */
    const NttTables &tables(size_t i) const { return *tables_[i]; }

    /** @return the degree. */
    size_t degree() const { return n_; }

    /** @return number of moduli covered. */
    size_t size() const { return tables_.size(); }

  private:
    size_t n_ = 0;
    std::vector<std::shared_ptr<const NttTables>> tables_;
};

} // namespace heat::ntt

#endif // HEAT_NTT_NTT_TABLES_H
