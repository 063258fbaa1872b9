#include "fv/params.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/panic.h"
#include "rns/prime_gen.h"

namespace heat::fv {

namespace {

size_t
defaultPPrimeCount(const FvConfig &config)
{
    // Need p > 2^15 * n * q * t so the scaled tensor coefficient
    // round(t * x / q), |x| <= n * (q/2)^2, fits centered in p with
    // margin. In bits: log2(p) >= log2(n) + log2(q) + log2(t) + 15.
    const int needed_bits = log2Floor(config.degree) +
                            static_cast<int>(config.q_prime_count) *
                                config.prime_bits +
                            bitLength(config.plain_modulus) + 15;
    return (static_cast<size_t>(needed_bits) + config.prime_bits - 1) /
           config.prime_bits;
}

/** @return {0, 1, ..., count - 1}. */
std::vector<size_t>
prefixIndices(size_t count)
{
    std::vector<size_t> indices(count);
    for (size_t i = 0; i < count; ++i)
        indices[i] = i;
    return indices;
}

} // namespace

FvParams::FvParams(const FvConfig &config) : config_(config)
{
    fatalIf(!isPowerOfTwo(config.degree), "degree must be a power of two");
    fatalIf(config.q_prime_count == 0, "need at least one q prime");
    fatalIf(config.plain_modulus < 2, "plaintext modulus must be >= 2");

    if (config_.p_prime_count == 0)
        config_.p_prime_count = defaultPPrimeCount(config_);

    const size_t total = config_.q_prime_count + config_.p_prime_count;
    std::vector<uint64_t> primes = rns::generateNttPrimes(
        config_.prime_bits, config_.degree, total);

    std::vector<uint64_t> q_primes(primes.begin(),
                                   primes.begin() + config_.q_prime_count);
    std::vector<uint64_t> p_primes(primes.begin() + config_.q_prime_count,
                                   primes.end());

    q_ = std::make_shared<const rns::RnsBase>(q_primes);
    p_ = std::make_shared<const rns::RnsBase>(p_primes);
    full_ = std::make_shared<const rns::RnsBase>(
        rns::RnsBase::concat(*q_, *p_));

    // One twiddle ROM per prime: the q context is the full context's
    // q prefix, as every level's contexts are.
    full_context_ = ntt::NttContext(*full_, config_.degree);
    q_context_ = ntt::NttContext::select(full_context_,
                                         prefixIndices(q_->size()));

    lift_ = rns::FastBaseConverter(*q_, *p_);
    scale_back_ = rns::FastBaseConverter(*p_, *q_);
    scaler_ = rns::ScaleRounder(*q_, *p_, config_.plain_modulus);

    delta_ = q_->product() /
             mp::BigInt::fromUint64(config_.plain_modulus);
    delta_residues_.resize(q_->size());
    for (size_t i = 0; i < q_->size(); ++i)
        delta_residues_[i] = delta_.modUint64(q_->modulus(i).value());

    levels_.resize(config_.q_prime_count);
}

const FvParams::LevelData &
FvParams::levelData(size_t level) const
{
    fatalIf(level == 0 || level > maxLevel(),
            "FV level out of range for this parameter set");
    std::lock_guard<std::mutex> lock(level_mu_);
    if (!levels_[level]) {
        const size_t live = config_.q_prime_count - level;
        auto data = std::make_unique<LevelData>();

        std::vector<uint64_t> live_primes(live);
        for (size_t i = 0; i < live; ++i)
            live_primes[i] = q_->modulus(i).value();
        data->q = std::make_shared<const rns::RnsBase>(live_primes);
        data->full = std::make_shared<const rns::RnsBase>(
            rns::RnsBase::concat(*data->q, *p_));

        // Reuse level 0's twiddle ROMs: the live q primes are a prefix
        // of the level-0 q base and the p primes sit after ALL level-0
        // q primes in the full context.
        const std::vector<size_t> q_indices = prefixIndices(live);
        data->q_context = ntt::NttContext::select(full_context_, q_indices);
        std::vector<size_t> full_indices(q_indices);
        for (size_t i = 0; i < p_->size(); ++i)
            full_indices.push_back(config_.q_prime_count + i);
        data->full_context =
            ntt::NttContext::select(full_context_, full_indices);

        data->lift = rns::FastBaseConverter(*data->q, *p_);
        data->scale_back = rns::FastBaseConverter(*p_, *data->q);
        data->scaler =
            rns::ScaleRounder(*data->q, *p_, config_.plain_modulus);

        // The switch INTO this level divides by the prime the source
        // level drops (the last prime live one level up): t = 1 turns
        // ScaleRounder into plain divide-and-round by that prime.
        const rns::RnsBase dropped({q_->modulus(live).value()});
        data->mod_switch_in = rns::ScaleRounder(dropped, *data->q, 1);

        data->delta = data->q->product() /
                      mp::BigInt::fromUint64(config_.plain_modulus);
        data->delta_residues.resize(live);
        for (size_t i = 0; i < live; ++i)
            data->delta_residues[i] =
                data->delta.modUint64(data->q->modulus(i).value());

        levels_[level] = std::move(data);
    }
    return *levels_[level];
}

const std::shared_ptr<const rns::RnsBase> &
FvParams::qBase(size_t level) const
{
    return level == 0 ? q_ : levelData(level).q;
}

const std::shared_ptr<const rns::RnsBase> &
FvParams::fullBase(size_t level) const
{
    return level == 0 ? full_ : levelData(level).full;
}

const ntt::NttContext &
FvParams::qContext(size_t level) const
{
    return level == 0 ? q_context_ : levelData(level).q_context;
}

const ntt::NttContext &
FvParams::fullContext(size_t level) const
{
    return level == 0 ? full_context_ : levelData(level).full_context;
}

const rns::FastBaseConverter &
FvParams::liftConverter(size_t level) const
{
    return level == 0 ? lift_ : levelData(level).lift;
}

const rns::FastBaseConverter &
FvParams::scaleBackConverter(size_t level) const
{
    return level == 0 ? scale_back_ : levelData(level).scale_back;
}

const rns::ScaleRounder &
FvParams::scaler(size_t level) const
{
    return level == 0 ? scaler_ : levelData(level).scaler;
}

const rns::ScaleRounder &
FvParams::modSwitchRounder(size_t from_level) const
{
    fatalIf(from_level >= maxLevel(),
            "cannot mod-switch past the last level");
    return levelData(from_level + 1).mod_switch_in;
}

const mp::BigInt &
FvParams::delta(size_t level) const
{
    return level == 0 ? delta_ : levelData(level).delta;
}

const std::vector<uint64_t> &
FvParams::deltaResidues(size_t level) const
{
    return level == 0 ? delta_residues_ : levelData(level).delta_residues;
}

size_t
FvParams::levelForResidueCount(size_t residues) const
{
    const size_t kq = config_.q_prime_count;
    const size_t kp = config_.p_prime_count;
    if (residues >= 1 && residues <= kq)
        return kq - residues;
    fatalIf(residues <= kp || residues > kq + kp,
            "residue count matches no level's q or full base");
    return kq + kp - residues;
}

std::shared_ptr<const FvParams>
FvParams::create(const FvConfig &config)
{
    return std::shared_ptr<const FvParams>(new FvParams(config));
}

std::shared_ptr<const FvParams>
FvParams::paper(uint64_t t)
{
    FvConfig config;
    config.degree = 4096;
    config.plain_modulus = t;
    config.sigma = 102.0;
    config.q_prime_count = 6;
    config.p_prime_count = 7;
    return create(config);
}

std::shared_ptr<const FvParams>
FvParams::tableV(int row, uint64_t t)
{
    fatalIf(row < 0 || row > 3, "Table V has rows 0..3");
    FvConfig config;
    config.degree = size_t(4096) << row;
    config.plain_modulus = t;
    config.sigma = 102.0;
    config.q_prime_count = size_t(6) << row;
    config.p_prime_count = 0; // derive
    return create(config);
}

double
FvParams::estimatedSecurityBits() const
{
    // Fitted to the lwe-estimator operating points the paper cites:
    // (n=4096, log q=180) ~ 80+ bits. Indicative, not a security claim.
    const double n = static_cast<double>(config_.degree);
    const double logq = static_cast<double>(qBits());
    return 7.2 * n / logq - 110.0;
}

} // namespace heat::fv
