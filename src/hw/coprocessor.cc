#include "hw/coprocessor.h"

#include <algorithm>

#include <string>

#include "common/panic.h"
#include "fv/galois.h"
#include "hw/rpau.h"
#include "ntt/ntt.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace heat::hw {

CostModel::CostModel(std::shared_ptr<const fv::FvParams> params,
                     const HwConfig &config)
    : params_(params),
      engine_(config, params->degree()),
      coeff_(config),
      lift_(params, config),
      scale_(params, config),
      dma_(config)
{
}

InstrCost
CostModel::cost(Opcode op, size_t level) const
{
    switch (op) {
      case Opcode::kNtt:
        return {engine_.forwardCycles()};
      case Opcode::kIntt:
        return {engine_.inverseCycles()};
      case Opcode::kCoeffMul:
      case Opcode::kCoeffAdd:
      case Opcode::kCoeffSub:
        return {coeff_.cycles(params_->degree())};
      case Opcode::kRearrange:
        return {engine_.rearrangeCycles()};
      case Opcode::kAutomorph:
        return {engine_.automorphCycles()};
      case Opcode::kLift:
        return {lift_.cycles(level)};
      case Opcode::kScale:
        return {scale_.cycles(level)};
      case Opcode::kModSwitch:
        return {scale_.modSwitchCycles(level)};
      case Opcode::kKeyLoad: {
        // DMA-bound: one key pair, two q polynomials, each a
        // single-descriptor burst. At deeper levels the buffers span
        // fewer residues, so the burst shrinks with the live basis.
        const size_t bytes =
            params_->qPrimeCount(level) * params_->degree() *
            sizeof(uint32_t);
        return {0, 2.0 * dma_.transferUs(bytes)};
      }
    }
    panic("unknown opcode");
}

Coprocessor::Coprocessor(std::shared_ptr<const fv::FvParams> params,
                         const HwConfig &config, const fv::RelinKeys *rlk,
                         const fv::GaloisKeys *gkeys)
    : params_(params),
      config_(config),
      memory_(params, config),
      cost_(params, config),
      rlk_(rlk),
      gkeys_(gkeys)
{
    fatalIf(config.n_rpaus <
                (params_->fullBase()->size() + 1) / 2,
            "too few RPAUs for the RNS base (need ceil(k/2))");
}

PolyId
Coprocessor::uploadPoly(const ntt::RnsPoly &poly)
{
    return memory_.import(poly, Layout::kNatural);
}

void
Coprocessor::uploadInto(PolyId id, const ntt::RnsPoly &poly)
{
    // A fresh q-base operand may be written into a record that a
    // previous run extended to the full base; the extension residues
    // are cleared and regenerated by the next Lift.
    PolyRecord &rec = memory_.record(id);
    panicIf(poly.data().size() > rec.data.size(),
            "uploadInto: operand larger than the record");
    std::copy(poly.data().begin(), poly.data().end(), rec.data.begin());
    std::fill(rec.data.begin() + poly.data().size(), rec.data.end(), 0);
    for (auto &l : rec.layout)
        l = Layout::kNatural;
}

InstrCost
Coprocessor::instructionCost(const Instruction &instr) const
{
    const PolyId id = operandOf(instr, opInfo(instr.op).level_operand);
    return cost_.cost(instr.op, memory_.recordLevel(id));
}

Cycle
Coprocessor::instructionCycles(const Instruction &instr) const
{
    return instructionCost(instr).cycles +
           static_cast<Cycle>(config_.dispatch_overhead);
}

ExecStats
Coprocessor::execute(const Program &program, DispatchMode mode)
{
    const Cycle dispatch = static_cast<Cycle>(config_.dispatch_overhead);
    const bool fused = mode == DispatchMode::kFusedProgram;
    // Modeled-time tracing: per-instruction spans on the thread-local
    // modeled clock (deterministic — pure functions of the program and
    // the cycle model, independent of host timing or worker count).
    obs::Tracer *const tracer = obs::activeTracer();
    const double t0 = obs::modeledNowUs();
    ExecStats stats;
    auto &unit_cycles = stats.unit_cycles;
    const auto arm = static_cast<size_t>(Unit::kArmUnit);
    for (const Instruction &instr : program.instrs) {
        exec(instr);
        const InstrCost cost = instructionCost(instr);
        const Cycle compute = cost.cycles;
        const Cycle cycles = fused ? compute : compute + dispatch;
        const double dma_us = cost.dma_us;
        OpStats &op = stats.per_op[instr.op];
        ++op.calls;
        op.fpga_cycles += cycles;
        op.dma_us += dma_us;
        stats.fpga_cycles += cycles;
        stats.dma_us += dma_us;
        unit_cycles[static_cast<size_t>(unitOf(instr.op))] += compute;
        ++stats.instructions;
        if (!fused) {
            stats.dispatch_cycles += dispatch;
            unit_cycles[arm] += dispatch;
        }
        if (tracer != nullptr) {
            const double dur = config_.cyclesToUs(cycles) + dma_us;
            obs::recordModeledSpan(
                opcodeName(instr.op), "hw.instr", obs::modeledNowUs(),
                dur,
                {{"unit", unitName(unitOf(instr.op))},
                 {"cycles", std::to_string(cycles)},
                 {"dma_us", std::to_string(dma_us)}});
            obs::advanceModeledUs(dur);
            stats.traced_us += dur;
        }
    }
    if (fused && !program.instrs.empty()) {
        // The whole instruction stream was queued in one Arm dispatch.
        stats.fpga_cycles += dispatch;
        stats.dispatch_cycles += dispatch;
        unit_cycles[arm] += dispatch;
        if (tracer != nullptr) {
            const double dur = config_.cyclesToUs(dispatch);
            obs::recordModeledSpan("arm-dispatch", "hw",
                                   obs::modeledNowUs(), dur,
                                   {{"unit", unitName(Unit::kArmUnit)},
                                    {"cycles", std::to_string(dispatch)}});
            obs::advanceModeledUs(dur);
            stats.traced_us += dur;
        }
    }
    if (tracer != nullptr && !program.instrs.empty()) {
        // Duration is the exact sum of the child durations, NOT
        // end-minus-start: the difference picks up clock-base-dependent
        // rounding, which would break trace determinism across workers.
        obs::recordModeledSpan(
            "program", "hw", t0, stats.traced_us,
            {{"instructions", std::to_string(stats.instructions)},
             {"fpga_cycles", std::to_string(stats.fpga_cycles)},
             {"dma_us", std::to_string(stats.dma_us)}});
    }
    return stats;
}

void
Coprocessor::exec(const Instruction &instr)
{
    switch (instr.op) {
      case Opcode::kNtt:
      case Opcode::kIntt:
      case Opcode::kRearrange:
        execTransform(instr);
        return;
      case Opcode::kCoeffMul:
      case Opcode::kCoeffAdd:
      case Opcode::kCoeffSub:
        execCoeffOp(instr);
        return;
      case Opcode::kAutomorph:
        execAutomorph(instr);
        return;
      case Opcode::kLift:
        cost_.lift().run(memory_, instr.dst);
        return;
      case Opcode::kScale:
        cost_.scale().run(memory_, instr.src0, instr.dst, instr.extra);
        return;
      case Opcode::kModSwitch:
        cost_.scale().runModSwitch(memory_, instr.src0, instr.dst);
        return;
      case Opcode::kKeyLoad:
        execKeyLoad(instr);
        return;
    }
    panic("unknown opcode");
}

void
Coprocessor::execTransform(const Instruction &instr)
{
    PolyRecord &rec = memory_.record(instr.dst);
    const size_t n = params_->degree();
    const size_t kq = params_->qPrimeCount(rec.level);
    const auto &ctx = rec.base == BaseTag::kQ
                          ? params_->qContext(rec.level)
                          : params_->fullContext(rec.level);

    for (size_t k : residuesOfBatch(instr.batch, kq, rec.layout.size())) {
        panicIf(!acceptsLayout(instr.op, rec.layout[k]),
                opcodeName(instr.op), " cannot take residue ", k,
                " in its current layout");
        std::span<uint64_t> span(rec.data.data() + k * n, n);
        if (instr.op == Opcode::kNtt)
            ntt::forwardNtt(span, ctx.tables(k));
        else if (instr.op == Opcode::kIntt)
            ntt::inverseNtt(span, ctx.tables(k));
        rec.layout[k] = producedLayout(opInfo(instr.op), rec.layout[k]);
    }
}

void
Coprocessor::execCoeffOp(const Instruction &instr)
{
    PolyRecord &dst = memory_.record(instr.dst);
    const PolyRecord &a = memory_.record(instr.src0);
    const PolyRecord &b = memory_.record(instr.src1);
    panicIf(dst.base != a.base && instr.batch == 1,
            "batch-1 coeff op needs matching bases");

    const size_t n = params_->degree();
    const size_t kq = params_->qPrimeCount(dst.level);
    const auto base = dst.base == BaseTag::kQ
                          ? params_->qBase(dst.level)
                          : params_->fullBase(dst.level);
    const CoeffUnit &unit = cost_.coeff();

    const ResidueRange residues =
        residuesOfBatch(instr.batch, kq, dst.layout.size());
    const size_t end = residues.empty() ? 0 : residues.back() + 1;
    panicIf(a.layout.size() < end || b.layout.size() < end,
            "coeff op operand shorter than its destination");
    for (size_t k : residues) {
        panicIf(a.layout[k] != b.layout[k],
                "coeff op operand layout mismatch");
        std::span<uint64_t> d(dst.data.data() + k * n, n);
        std::span<const uint64_t> x(a.data.data() + k * n, n);
        std::span<const uint64_t> y(b.data.data() + k * n, n);
        const rns::Modulus &q = base->modulus(k);
        switch (instr.op) {
          case Opcode::kCoeffMul:
            unit.mul(d, x, y, q);
            break;
          case Opcode::kCoeffAdd:
            unit.add(d, x, y, q);
            break;
          case Opcode::kCoeffSub:
            unit.sub(d, x, y, q);
            break;
          default:
            panic("not a coeff op");
        }
        dst.layout[k] = a.layout[k];
    }
}

const std::vector<size_t> &
Coprocessor::galoisNttMap(uint32_t g)
{
    auto it = galois_maps_.find(g);
    if (it == galois_maps_.end())
        it = galois_maps_
                 .emplace(g, fv::galoisNttIndexMap(params_->degree(), g))
                 .first;
    return it->second;
}

void
Coprocessor::execAutomorph(const Instruction &instr)
{
    const size_t n = params_->degree();
    const uint32_t g = instr.aux;
    const PolyRecord &src = memory_.record(instr.src0);
    panicIf(instr.dst == instr.src0,
            "automorphism cannot permute a slot onto itself");
    panicIf(instr.dst == kNoPoly && instr.extra.empty(),
            "automorphism needs a destination or digit broadcasts");
    panicIf(!fv::isValidGaloisElement(g, n),
            "galois element must be odd, < 2n");

    const auto &base = params_->qBase(src.level);
    const size_t kq = base->size();

    // Ciphertext polynomials enter and leave over the q base; like
    // Scale, the automorphism reads and writes the q view (the first
    // kq residues) of records a later instruction of the fused program
    // may lift in place.
    const Layout layout = src.layout[0];
    for (size_t k = 0; k < kq; ++k)
        panicIf(src.layout[k] != layout,
                "automorphism input layout is mixed");
    panicIf(!acceptsLayout(instr.op, layout),
            "cannot permute paired-layout data; rearrange first");
    const bool ntt_domain = layout == Layout::kNttDomain;
    panicIf(ntt_domain && !instr.extra.empty(),
            "the WordDecomp broadcast streams coefficient order; "
            "NTT-domain automorphisms cannot emit digits");

    // Every written record must span the kq live residues; check
    // before any write. kNoPoly digit entries disable a lane, so a
    // slot-pressured schedule can stream one digit per pass instead
    // of materializing all kq digit records at once.
    panicIf(!instr.extra.empty() && instr.extra.size() != kq,
            "digit broadcast needs one lane per q prime");
    if (instr.dst != kNoPoly)
        panicIf(memory_.record(instr.dst).layout.size() < kq,
                "automorphism destination record too small");
    for (PolyId d : instr.extra) {
        if (d != kNoPoly)
            panicIf(memory_.record(d).layout.size() < kq,
                    "digit record shorter than the q base");
    }

    // In the NTT domain tau_g permutes the evaluation points: the
    // hardware's index-mapped BRAM read, out[j] = in[map[j]] with one
    // map for every residue and level and no sign flips. With no digit
    // broadcast and dst != src0 it gathers straight into dst.
    if (ntt_domain) {
        const std::vector<size_t> &map = galoisNttMap(g);
        PolyRecord &dst = memory_.record(instr.dst);
        for (size_t k = 0; k < kq; ++k) {
            const uint64_t *in = src.data.data() + k * n;
            uint64_t *out = dst.data.data() + k * n;
            for (size_t j = 0; j < n; ++j)
                out[j] = in[map[j]];
            dst.layout[k] = producedLayout(opInfo(instr.op), layout);
        }
        return;
    }

    // Coefficient order: the permuted residues, materialized before any
    // write so dst may share banks with the digit targets.
    std::vector<uint64_t> permuted(kq * n);
    for (size_t k = 0; k < kq; ++k) {
        std::span<const uint64_t> in(src.data.data() + k * n, n);
        std::span<uint64_t> out(permuted.data() + k * n, n);
        fv::applyGaloisToResidue(in, out, g, base->modulus(k));
    }

    if (instr.dst != kNoPoly) {
        PolyRecord &dst = memory_.record(instr.dst);
        std::copy(permuted.begin(), permuted.end(), dst.data.begin());
        for (size_t k = 0; k < kq; ++k)
            dst.layout[k] = producedLayout(opInfo(instr.op), layout);
    }

    // WordDecomp broadcast during writeback (same reduce lanes as the
    // Scale instruction): digit d is the permuted residue d reduced
    // modulo every q channel.
    const simd::Kernels &kern = simd::active();
    for (size_t d = 0; d < instr.extra.size(); ++d) {
        if (instr.extra[d] == kNoPoly)
            continue;
        PolyRecord &dig = memory_.record(instr.extra[d]);
        for (size_t c = 0; c < kq; ++c)
            kern.reduce_u32(dig.data.data() + c * n,
                            permuted.data() + d * n, n, base->modulus(c));
        for (auto &l : dig.layout)
            l = Layout::kNatural;
    }
}

void
Coprocessor::execKeyLoad(const Instruction &instr)
{
    const uint32_t selector = keyLoadSelector(instr.aux);
    const uint32_t digit = keyLoadDigit(instr.aux);
    const fv::RelinKeys *keys = rlk_;
    if (selector != 0) {
        panicIf(gkeys_ == nullptr, "no Galois keys attached");
        const auto it = gkeys_->keys.find(selector);
        panicIf(it == gkeys_->keys.end(),
                "no Galois key for element ", selector);
        keys = &it->second;
    }
    panicIf(keys == nullptr, "no relinearization keys attached");
    panicIf(digit >= keys->digitCount(), "key digit out of range");
    panicIf(instr.extra.size() != 2, "key load needs two buffer targets");
    for (int half = 0; half < 2; ++half) {
        PolyRecord &buf = memory_.record(instr.extra[half]);
        const ntt::RnsPoly &key = keys->keys[digit][half];
        // A level-l buffer streams only the key's live-residue prefix
        // (keys are generated once at level 0; truncation is valid
        // because the key-switch gadget acts residue-wise).
        panicIf(buf.data.size() > key.data().size(),
                "key buffer larger than the stored key");
        std::copy(key.data().begin(),
                  key.data().begin() +
                      static_cast<ptrdiff_t>(buf.data.size()),
                  buf.data.begin());
        // Keys are stored pre-transformed in DDR and stream in ready to
        // use in the NTT domain.
        for (auto &l : buf.layout)
            l = Layout::kNttDomain;
    }
}

} // namespace heat::hw
