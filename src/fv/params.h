/**
 * @file
 * FV parameter sets and derived constants.
 *
 * The paper's parameter set (Sec. III-A/B): n = 4096, q = product of six
 * 30-bit NTT-friendly primes (180 bits), extended base Q = q * p with p a
 * product of seven more 30-bit primes (390 bits), discrete Gaussian with
 * sigma = 102, plaintext modulus t (2 for binary messages), multiplicative
 * depth 4, at least 80-bit security.
 *
 * FvParams owns every derived object the scheme and the hardware model
 * need: RNS bases, NTT contexts, base converters, the HPS scaler and the
 * Delta = floor(q/t) encryption constant.
 */

#ifndef HEAT_FV_PARAMS_H
#define HEAT_FV_PARAMS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mp/bigint.h"
#include "ntt/ntt_tables.h"
#include "rns/base_convert.h"
#include "rns/rns_base.h"
#include "rns/scale_round.h"

namespace heat::fv {

/** User-facing knobs of an FV parameter set. */
struct FvConfig
{
    /** Polynomial degree n (power of two). */
    size_t degree = 4096;
    /** Plaintext modulus t. */
    uint64_t plain_modulus = 2;
    /** Discrete Gaussian standard deviation. */
    double sigma = 102.0;
    /** Number of primes in the ciphertext base q. */
    size_t q_prime_count = 6;
    /**
     * Number of primes in the auxiliary base p; 0 selects the smallest
     * count with p > 2^15 * n * q * t (safe for the tensor scaling).
     */
    size_t p_prime_count = 0;
    /** Width of each RNS prime in bits. */
    int prime_bits = 30;
};

/** Immutable FV parameter set with all derived constants. */
class FvParams
{
  public:
    /** Build a parameter set from @p config. */
    static std::shared_ptr<const FvParams> create(const FvConfig &config);

    /**
     * The paper's parameter set: (n, log q) = (4096, 180), sigma = 102.
     *
     * @param t plaintext modulus (paper uses 2 for binary messages).
     */
    static std::shared_ptr<const FvParams> paper(uint64_t t = 2);

    /**
     * Parameter set for row @p row of Table V: row 0 is the paper set,
     * each following row doubles n and the bit size of q.
     */
    static std::shared_ptr<const FvParams> tableV(int row, uint64_t t = 2);

    // --- basic accessors -------------------------------------------------

    size_t degree() const { return config_.degree; }
    uint64_t plainModulus() const { return config_.plain_modulus; }
    double sigma() const { return config_.sigma; }
    const FvConfig &config() const { return config_; }

    // --- modulus-switching levels ----------------------------------------
    //
    // Level l of the chain keeps the FIRST q_prime_count - l primes of
    // the level-0 ciphertext base (a prefix, so residue index i always
    // refers to the same prime at every level). Level 0 is the full base
    // the parameter set was built with; each mod-switch drops the last
    // live prime. All level accessors take a defaulted level argument so
    // level-unaware call sites keep compiling unchanged. Per-level data
    // is built lazily (thread-safe) and NTT twiddle tables are shared
    // with level 0, so deep chains cost no extra ROM.

    /** @return the deepest usable level (one q prime left). */
    size_t maxLevel() const { return config_.q_prime_count - 1; }

    /** @return number of live q primes at @p level. */
    size_t qPrimeCount(size_t level = 0) const
    {
        return config_.q_prime_count - level;
    }

    /** @return ciphertext base q at @p level (prefix of level 0's). */
    const std::shared_ptr<const rns::RnsBase> &qBase(size_t level = 0) const;

    /** @return auxiliary base p (level-independent). */
    const std::shared_ptr<const rns::RnsBase> &pBase() const { return p_; }

    /** @return full base Q_l = q_l * p (live q primes first). */
    const std::shared_ptr<const rns::RnsBase> &fullBase(
        size_t level = 0) const;

    /** @return NTT context over the level's q base. Its tables are
     *  fullContext()'s: each prime's twiddles are built once per
     *  parameter set and shared by every level. */
    const ntt::NttContext &qContext(size_t level = 0) const;

    /** @return NTT context over the level's full base. */
    const ntt::NttContext &fullContext(size_t level = 0) const;

    /** @return the q_l -> p base converter (Lift q->Q, HPS). */
    const rns::FastBaseConverter &liftConverter(size_t level = 0) const;

    /** @return the p -> q_l base converter (Scale's final base switch). */
    const rns::FastBaseConverter &scaleBackConverter(size_t level = 0) const;

    /** @return the HPS scale-and-round engine for the level. */
    const rns::ScaleRounder &scaler(size_t level = 0) const;

    /**
     * @return the divide-and-round engine for mod-switching OUT of
     * @p from_level: round(x / q_last) from the level's basis into the
     * level+1 basis (a ScaleRounder with q = {dropped prime},
     * p = remaining primes, t = 1). Requires from_level < maxLevel().
     */
    const rns::ScaleRounder &modSwitchRounder(size_t from_level) const;

    /** @return Delta_l = floor(q_l / t). */
    const mp::BigInt &delta(size_t level = 0) const;

    /** @return Delta_l mod q_i for each live q prime. */
    const std::vector<uint64_t> &deltaResidues(size_t level = 0) const;

    /** @return number of RNS relinearization digits (= live q primes). */
    size_t rnsDigitCount(size_t level = 0) const
    {
        return q_->size() - level;
    }

    /** @return log2 of q_l, rounded up to whole bits. */
    int qBits(size_t level = 0) const
    {
        return qBase(level)->product().bitLength();
    }

    /**
     * Map a residue count to the ciphertext level it implies, for
     * records whose base is either q_l (count = live q primes) or the
     * full base Q_l (count = live q primes + p primes). Counts are
     * unambiguous: q counts are 1..q_prime_count, full counts start at
     * q_prime_count + 1 because p has more primes than q drops.
     */
    size_t levelForResidueCount(size_t residues) const;

    /**
     * Rough security estimate in bits for (n, log q) using the
     * conservative rule of thumb lambda ~ 7.2 * n / log2(q) - 110 fitted
     * to the LWE-estimator values the paper cites (>= 80 bits for the
     * paper set). Indicative only.
     */
    double estimatedSecurityBits() const;

  private:
    explicit FvParams(const FvConfig &config);

    /** Everything level-dependent, built lazily per level >= 1. */
    struct LevelData
    {
        std::shared_ptr<const rns::RnsBase> q;
        std::shared_ptr<const rns::RnsBase> full;
        ntt::NttContext q_context;
        ntt::NttContext full_context;
        rns::FastBaseConverter lift;
        rns::FastBaseConverter scale_back;
        rns::ScaleRounder scaler;
        /** round(x / dropped prime) engine for the switch INTO here. */
        rns::ScaleRounder mod_switch_in;
        mp::BigInt delta;
        std::vector<uint64_t> delta_residues;
    };

    /** @return level data for @p level >= 1, building it if needed. */
    const LevelData &levelData(size_t level) const;

    FvConfig config_;
    std::shared_ptr<const rns::RnsBase> q_;
    std::shared_ptr<const rns::RnsBase> p_;
    std::shared_ptr<const rns::RnsBase> full_;
    ntt::NttContext q_context_;
    ntt::NttContext full_context_;
    rns::FastBaseConverter lift_;
    rns::FastBaseConverter scale_back_;
    rns::ScaleRounder scaler_;
    mp::BigInt delta_;
    std::vector<uint64_t> delta_residues_;
    mutable std::mutex level_mu_;
    /** levels_[l] for l >= 1; index 0 unused (level 0 is the above). */
    mutable std::vector<std::unique_ptr<const LevelData>> levels_;
};

} // namespace heat::fv

#endif // HEAT_FV_PARAMS_H
