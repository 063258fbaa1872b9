#include "hw/scale_unit.h"

#include "common/panic.h"
#include "hw/isa.h"

namespace heat::hw {

ScaleUnit::ScaleUnit(std::shared_ptr<const fv::FvParams> params,
                     const HwConfig &config)
    : params_(std::move(params)), config_(config)
{
}

void
ScaleUnit::run(MemoryFile &memory, PolyId src, PolyId dst,
               const std::vector<PolyId> &digits) const
{
    const PolyRecord &in = memory.record(src);
    panicIf(in.base != BaseTag::kFull, "scale input must be full base");
    for (Layout l : in.layout)
        panicIf(!acceptsLayout(Opcode::kScale, l),
                "scale input must be natural order");

    // The destination is a q polynomial. Its record may already span
    // the full base when a later instruction of the same fused program
    // lifts it in place (the compiler's static slot schedule extends
    // records up front): physically the q residues are the same slots
    // either way, so Scale simply writes the first kq residues.
    PolyRecord &out = memory.record(dst);

    const size_t n = memory.degree();
    const size_t level = in.level;
    const size_t kq = params_->qPrimeCount(level);
    const size_t kp = params_->pBase()->size();
    const auto &scaler = params_->scaler(level);
    const auto &back = params_->scaleBackConverter(level);

    // Every record written below must span the kq live q residues.
    panicIf(out.level != level,
            "scale destination must sit at the source level");
    panicIf(!digits.empty() && digits.size() != kq,
            "digit broadcast needs one record per q prime");
    for (PolyId d : digits) {
        panicIf(d == dst, "digit broadcast cannot overwrite the result");
        panicIf(memory.record(d).layout.size() < kq,
                "digit record shorter than the q base");
    }

    // WordDecomp broadcast: digit d is result residue d reduced modulo
    // every q channel, written with the result.
    std::vector<uint64_t *> out_rows(kq);
    for (size_t i = 0; i < kq; ++i)
        out_rows[i] = out.data.data() + i * n;
    std::vector<uint64_t *> digit_rows;
    for (PolyId d : digits) {
        PolyRecord &dig = memory.record(d);
        for (size_t c = 0; c < kq; ++c)
            digit_rows.push_back(dig.data.data() + c * n);
        for (auto &l : dig.layout)
            l = Layout::kNatural;
    }
    if (config_.lift_scale_arch == LiftScaleArch::kHps) {
        std::vector<const uint64_t *> in_rows(kq + kp);
        for (size_t i = 0; i < kq + kp; ++i)
            in_rows[i] = in.data.data() + i * n;
        scaler.scaleBatch(in_rows.data(), out_rows.data(), n, &back,
                          digits.empty() ? nullptr : digit_rows.data());
    } else {
        const auto &base = params_->qBase(level);
        std::vector<uint64_t> full(kq + kp), mid(kp), res(kq);
        for (size_t j = 0; j < n; ++j) {
            for (size_t i = 0; i < kq + kp; ++i)
                full[i] = in.data[i * n + j];
            scaler.scaleExact(full, mid);
            back.convertExact(mid, res);
            for (size_t i = 0; i < kq; ++i)
                out_rows[i][j] = res[i];
            for (size_t d = 0; d < digits.size(); ++d)
                for (size_t c = 0; c < kq; ++c)
                    digit_rows[d * kq + c][j] =
                        base->modulus(c).reduce(res[d]);
        }
    }
    for (auto &l : out.layout)
        l = Layout::kNatural;
}

void
ScaleUnit::runModSwitch(MemoryFile &memory, PolyId src, PolyId dst) const
{
    const PolyRecord &in = memory.record(src);
    PolyRecord &out = memory.record(dst);
    const size_t from_level = in.level;
    panicIf(from_level >= params_->maxLevel(),
            "mod-switch from the last level");
    panicIf(out.level != from_level + 1,
            "mod-switch destination must sit one level deeper");

    const size_t n = memory.degree();
    const size_t live = params_->qPrimeCount(from_level);
    // The record may be bound at the full base (a later in-place lift
    // of this operand extends it in the slot log, and records are bound
    // at their final shape); the mod-switch only consumes the live q
    // residues.
    for (size_t i = 0; i < live; ++i)
        panicIf(!acceptsLayout(Opcode::kModSwitch, in.layout[i]),
                "mod-switch input must be natural order");
    const auto &rounder = params_->modSwitchRounder(from_level);

    // Same residue ordering as Evaluator::modSwitchPoly: the dropped
    // prime's residue feeds the rounder's divisor lane first, followed
    // by the surviving residues in basis order — keeping the hardware
    // model and the software evaluator bit-exact.
    if (config_.lift_scale_arch == LiftScaleArch::kHps) {
        std::vector<const uint64_t *> in_rows(live);
        std::vector<uint64_t *> out_rows(live - 1);
        in_rows[0] = in.data.data() + (live - 1) * n;
        for (size_t i = 0; i + 1 < live; ++i) {
            in_rows[i + 1] = in.data.data() + i * n;
            out_rows[i] = out.data.data() + i * n;
        }
        rounder.scaleBatch(in_rows.data(), out_rows.data(), n);
    } else {
        std::vector<uint64_t> full(live), next(live - 1);
        for (size_t j = 0; j < n; ++j) {
            full[0] = in.data[(live - 1) * n + j];
            for (size_t i = 0; i + 1 < live; ++i)
                full[i + 1] = in.data[i * n + j];
            rounder.scaleExact(full, next);
            for (size_t i = 0; i + 1 < live; ++i)
                out.data[i * n + j] = next[i];
        }
    }
    for (size_t i = 0; i + 1 < live; ++i)
        out.layout[i] = Layout::kNatural;
}

Cycle
ScaleUnit::cycles(size_t level) const
{
    const size_t n = params_->degree();
    const size_t cores = config_.lift_scale_cores;
    const int beat = config_.lift_scale_arch == LiftScaleArch::kHps
                         ? config_.lift_beat
                         : config_.trad_scale_beat;
    // The fractional MAC chain of Block 1 streams one input residue per
    // cycle, so the beat shrinks with the live input lanes (m + kp of
    // the full kq + kp at level 0).
    const size_t kq = params_->qBase()->size();
    const size_t kp = params_->pBase()->size();
    const size_t lanes = params_->qPrimeCount(level) + kp;
    const int level_beat = static_cast<int>(
        (static_cast<size_t>(beat) * lanes + kq + kp - 1) / (kq + kp));
    return static_cast<Cycle>(config_.scale_fill +
                              (n + cores - 1) / cores * level_beat);
}

Cycle
ScaleUnit::modSwitchCycles(size_t level) const
{
    const size_t n = params_->degree();
    const size_t cores = config_.lift_scale_cores;
    const int beat = config_.lift_scale_arch == LiftScaleArch::kHps
                         ? config_.lift_beat
                         : config_.trad_scale_beat;
    // A mod-switch streams only the live q residues (no p extension):
    // the same divide-and-round datapath with far fewer input lanes.
    const size_t kq = params_->qBase()->size();
    const size_t kp = params_->pBase()->size();
    const size_t lanes = params_->qPrimeCount(level);
    int level_beat = static_cast<int>(
        (static_cast<size_t>(beat) * lanes + kq + kp - 1) / (kq + kp));
    if (level_beat < 1)
        level_beat = 1;
    return static_cast<Cycle>(config_.scale_fill +
                              (n + cores - 1) / cores * level_beat);
}

} // namespace heat::hw
