#include "hw/lift_unit.h"

#include "common/panic.h"

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

    // Compiled programs pre-extend the record in their slot log (static
    // slot accounting); a standalone caller may pass a plain q record.
    if (memory.record(id).base == BaseTag::kQ)
        memory.extendToFull(id);
    PolyRecord &full = memory.record(id);
    for (size_t i = 0; i < kq; ++i) {
        panicIf(full.layout[i] != Layout::kNatural,
                "lift input must be natural order");
    }

    std::vector<uint64_t> in(kq), out(kp);
    for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < kq; ++i)
            in[i] = full.data[i * n + j];
        if (config_.lift_scale_arch == LiftScaleArch::kHps)
            conv.convert(in, out);
        else
            conv.convertExact(in, out);
        for (size_t i = 0; i < kp; ++i)
            full.data[(kq + i) * n + j] = out[i];
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
