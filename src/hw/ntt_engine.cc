#include "hw/ntt_engine.h"

#include "common/bit_util.h"
#include "common/panic.h"

namespace heat::hw {

NttEngine::NttEngine(const HwConfig &config, size_t degree)
    : config_(config), n_(degree)
{
    fatalIf(!isPowerOfTwo(degree) || degree < 8,
            "NTT engine needs a power-of-two degree >= 8");
    log_n_ = log2Floor(degree);
    words_ = degree / 2;
}

std::vector<MemAccess>
NttEngine::stageReadSchedule(int stage) const
{
    panicIf(stage < 0 || stage >= log_n_, "stage out of range");
    const uint32_t half = static_cast<uint32_t>(words_ / 2);
    const size_t m = size_t(2) << stage; // Alg. 1's m

    std::vector<MemAccess> accesses;
    accesses.reserve(words_);

    if (m <= n_ / 4) {
        // Regime A: cores own disjoint banks.
        for (uint32_t i = 0; i < half; ++i) {
            accesses.push_back({i, 0, i});
            accesses.push_back({i, 1, half + i});
        }
    } else if (m == n_ / 2) {
        // Regime B: interleaved, core 1 inverted so the two cores always
        // target opposite banks (paper Sec. V-A3).
        for (uint32_t i = 0; i < half / 2; ++i) {
            accesses.push_back({2 * i, 0, i});
            accesses.push_back({2 * i + 1, 0, half + i});
            accesses.push_back({2 * i, 1, half + half / 2 + i});
            accesses.push_back({2 * i + 1, 1, half / 2 + i});
        }
    } else {
        // Regime C (m == n): one word at a time, disjoint banks.
        for (uint32_t i = 0; i < half; ++i) {
            accesses.push_back({i, 0, i});
            accesses.push_back({i, 1, half + i});
        }
    }
    return accesses;
}

Cycle
NttEngine::simulate(uint64_t &conflicts) const
{
    const uint32_t half = static_cast<uint32_t>(words_ / 2);
    BramBank lower(0, half);
    BramBank upper(half, half);
    const Cycle write_latency =
        static_cast<Cycle>(config_.butterfly_pipeline_depth);

    Cycle total = 0;
    for (int stage = 0; stage < log_n_; ++stage) {
        lower.reset();
        upper.reset();
        Cycle stage_end = 0;
        for (const MemAccess &a : stageReadSchedule(stage)) {
            BramBank &bank = lower.contains(a.word) ? lower : upper;
            bank.recordRead(total + a.cycle, a.word);
            stage_end = std::max(stage_end, a.cycle + 1);
        }
        // Writes replay the read pattern shifted by the pipeline depth;
        // the shift cannot create conflicts (uniform delay), but replay
        // them anyway so the accounting is complete.
        uint64_t read_conflicts = lower.conflicts() + upper.conflicts();
        lower.reset();
        upper.reset();
        for (const MemAccess &a : stageReadSchedule(stage)) {
            BramBank &bank = lower.contains(a.word) ? lower : upper;
            bank.recordWrite(total + a.cycle + write_latency, a.word);
        }
        conflicts += read_conflicts + lower.conflicts() + upper.conflicts();
        total += stage_end + static_cast<Cycle>(config_.ntt_stage_overhead);
    }
    return total;
}

Cycle
NttEngine::forwardCycles() const
{
    // Each stage streams n/4 cycles per core pair (n/2 words over 2
    // cores) plus the per-stage overhead.
    const Cycle per_stage =
        static_cast<Cycle>(words_ / 2 + config_.ntt_stage_overhead);
    return static_cast<Cycle>(log_n_) * per_stage;
}

Cycle
NttEngine::inverseCycles() const
{
    // The extra n^{-1} scaling pass streams one word per cycle through
    // the two multipliers (2 coefficients/cycle).
    return forwardCycles() +
           static_cast<Cycle>(words_ + config_.ntt_stage_overhead);
}

Cycle
NttEngine::rearrangeCycles() const
{
    // The layout permutation scatters words across banks, serializing
    // reads against writes: two passes over n/2 words.
    return static_cast<Cycle>(2 * words_);
}

Cycle
NttEngine::automorphCycles() const
{
    // tau_g is an index-mapped copy between two memory-file slots: the
    // target address walks i*g mod 2n, maintained incrementally (one
    // adder), and the x^n = -1 sign flip rides the write lane's
    // subtractor. Like Rearrange, the scattered writes serialize
    // against the sequential reads: two passes over n/2 words. The
    // optional WordDecomp digit broadcast reuses the Scale writeback's
    // reduce lanes and is free, exactly as in the Scale instruction.
    return static_cast<Cycle>(2 * words_);
}

} // namespace heat::hw
