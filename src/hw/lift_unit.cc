#include "hw/lift_unit.h"

#include "common/panic.h"
#include "hw/isa.h"

namespace heat::hw {

LiftUnit::LiftUnit(std::shared_ptr<const fv::FvParams> params,
                   const HwConfig &config)
    : params_(std::move(params)), config_(config)
{
}

void
LiftUnit::run(MemoryFile &memory, PolyId id) const
{
    const size_t n = memory.degree();
    const size_t level = memory.record(id).level;
    const size_t kq = params_->qPrimeCount(level);
    const size_t kp = params_->pBase()->size();
    const auto &conv = params_->liftConverter(level);

    // A compiled program's slot log extends the record before the
    // Lift, so it is bound at the full base.
    PolyRecord &full = memory.record(id);
    panicIf(full.base != BaseTag::kFull, "lift needs a full-base record");
    for (size_t i = 0; i < kq; ++i) {
        panicIf(!acceptsLayout(Opcode::kLift, full.layout[i]),
                "lift input must be natural order");
    }

    if (config_.lift_scale_arch == LiftScaleArch::kHps) {
        // Residue-major rows: the record's q rows are the converter's
        // input and its p rows, disjoint from them, the output.
        std::vector<const uint64_t *> in_rows(kq);
        std::vector<uint64_t *> out_rows(kp);
        for (size_t i = 0; i < kq; ++i)
            in_rows[i] = full.data.data() + i * n;
        for (size_t i = 0; i < kp; ++i)
            out_rows[i] = full.data.data() + (kq + i) * n;
        conv.convertBatch(in_rows.data(), out_rows.data(), n);
    } else {
        std::vector<uint64_t> in(kq), out(kp);
        for (size_t j = 0; j < n; ++j) {
            for (size_t i = 0; i < kq; ++i)
                in[i] = full.data[i * n + j];
            conv.convertExact(in, out);
            for (size_t i = 0; i < kp; ++i)
                full.data[(kq + i) * n + j] = out[i];
        }
    }
    for (size_t i = 0; i < kp; ++i)
        full.layout[kq + i] = Layout::kNatural;
}

Cycle
LiftUnit::cycles(size_t level) const
{
    const size_t n = params_->degree();
    const size_t cores = config_.lift_scale_cores;
    const int beat = config_.lift_scale_arch == LiftScaleArch::kHps
                         ? config_.lift_beat
                         : config_.trad_lift_beat;
    // The Block-1/Block-5 sequential chains iterate over the live input
    // residues, so the per-coefficient beat shrinks proportionally when
    // dropped levels leave fewer q lanes to stream.
    const size_t kq = params_->qBase()->size();
    const size_t live = params_->qPrimeCount(level);
    const int level_beat = static_cast<int>(
        (static_cast<size_t>(beat) * live + kq - 1) / kq);
    return static_cast<Cycle>(config_.lift_fill +
                              (n + cores - 1) / cores * level_beat);
}

} // namespace heat::hw
