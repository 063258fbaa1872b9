/**
 * @file
 * Instruction-level tests of the coprocessor's functional execution:
 * each opcode is checked in isolation against the software kernels, and
 * the layout/batch discipline (the REARRANGE contract of the paired
 * memory scheme) is verified to reject malformed programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/panic.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "ntt/ntt.h"

namespace heat::hw {
namespace {

struct ExecRig
{
    ExecRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        config = HwConfig::paper();
        config.n_rpaus = 4;
        cp = std::make_unique<Coprocessor>(params, config);
    }

    ntt::RnsPoly
    randomQPoly(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        ntt::RnsPoly poly(params->qBase(), params->degree());
        for (size_t i = 0; i < poly.residueCount(); ++i) {
            for (auto &x : poly.residue(i))
                x = rng.uniformBelow(params->qBase()->modulus(i).value());
        }
        return poly;
    }

    static Instruction
    instr(Opcode op, PolyId dst, PolyId s0 = kNoPoly, PolyId s1 = kNoPoly,
          uint8_t batch = 0)
    {
        Instruction i;
        i.op = op;
        i.dst = dst;
        i.src0 = s0;
        i.src1 = s1;
        i.batch = batch;
        return i;
    }

    void
    run(std::initializer_list<Instruction> instrs)
    {
        Program p;
        p.instrs = instrs;
        cp->execute(p);
    }

    std::shared_ptr<const fv::FvParams> params;
    HwConfig config;
    std::unique_ptr<Coprocessor> cp;
};

TEST(HwExec, NttInstructionMatchesSoftwareNtt)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(1);
    PolyId id = rig.cp->uploadPoly(poly);
    rig.run({ExecRig::instr(Opcode::kRearrange, id),
             ExecRig::instr(Opcode::kNtt, id)});

    ntt::RnsPoly expect = poly;
    expect.toNtt(rig.params->qContext());
    EXPECT_EQ(rig.cp->memory().record(id).data, expect.data());
}

TEST(HwExec, InttUndoesNtt)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(2);
    PolyId id = rig.cp->uploadPoly(poly);
    rig.run({ExecRig::instr(Opcode::kRearrange, id),
             ExecRig::instr(Opcode::kNtt, id),
             ExecRig::instr(Opcode::kIntt, id),
             ExecRig::instr(Opcode::kRearrange, id)});
    EXPECT_EQ(rig.cp->memory().record(id).data, poly.data());
    EXPECT_EQ(rig.cp->memory().record(id).layout[0], Layout::kNatural);
}

TEST(HwExec, CoeffOpsMatchSoftware)
{
    ExecRig rig;
    ntt::RnsPoly a = rig.randomQPoly(3);
    ntt::RnsPoly b = rig.randomQPoly(4);
    PolyId ia = rig.cp->uploadPoly(a);
    PolyId ib = rig.cp->uploadPoly(b);
    PolyId sum = rig.cp->memory().allocate(BaseTag::kQ);
    PolyId diff = rig.cp->memory().allocate(BaseTag::kQ);
    PolyId prod = rig.cp->memory().allocate(BaseTag::kQ);

    rig.run({ExecRig::instr(Opcode::kCoeffAdd, sum, ia, ib),
             ExecRig::instr(Opcode::kCoeffSub, diff, ia, ib),
             ExecRig::instr(Opcode::kCoeffMul, prod, ia, ib)});

    ntt::RnsPoly expect_sum = a;
    expect_sum.addInPlace(b);
    ntt::RnsPoly expect_diff = a;
    expect_diff.subInPlace(b);
    EXPECT_EQ(rig.cp->memory().record(sum).data, expect_sum.data());
    EXPECT_EQ(rig.cp->memory().record(diff).data, expect_diff.data());
    // Coefficient-domain pointwise product against direct modmul.
    for (size_t k = 0; k < a.residueCount(); ++k) {
        const rns::Modulus &q = rig.params->qBase()->modulus(k);
        auto got = rig.cp->memory().record(prod).data;
        for (size_t j = 0; j < rig.params->degree(); ++j) {
            EXPECT_EQ(got[k * rig.params->degree() + j],
                      q.mul(a.residue(k)[j], b.residue(k)[j]));
        }
    }
}

TEST(HwExec, LiftInstructionMatchesConverter)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(5);
    PolyId id = rig.cp->uploadPoly(poly);
    rig.run({ExecRig::instr(Opcode::kLift, id)});

    const auto &conv = rig.params->liftConverter();
    const size_t n = rig.params->degree();
    const size_t kq = rig.params->qBase()->size();
    const size_t kp = rig.params->pBase()->size();
    const auto &rec = rig.cp->memory().record(id);
    ASSERT_EQ(rec.base, BaseTag::kFull);

    std::vector<uint64_t> in(kq), out(kp);
    for (size_t j = 0; j < n; j += 37) { // sample coefficients
        poly.gatherCoefficient(j, in);
        conv.convert(in, out);
        for (size_t i = 0; i < kp; ++i)
            EXPECT_EQ(rec.data[(kq + i) * n + j], out[i]) << j;
    }
}

TEST(HwExec, ScaleDigitsBroadcastResidues)
{
    ExecRig rig;
    // Build a full-base polynomial via lift, then scale with digits.
    ntt::RnsPoly poly = rig.randomQPoly(6);
    PolyId src = rig.cp->uploadPoly(poly);
    PolyId dst = rig.cp->memory().allocate(BaseTag::kQ);
    const size_t kq = rig.params->qBase()->size();
    std::vector<PolyId> digits;
    for (size_t i = 0; i < kq; ++i)
        digits.push_back(rig.cp->memory().allocate(BaseTag::kQ));

    Instruction scale = ExecRig::instr(Opcode::kScale, dst, src);
    scale.extra = digits;
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kLift, src), scale};
    rig.cp->execute(p);

    // Digit i must equal residue i of dst reduced mod every channel.
    const size_t n = rig.params->degree();
    const auto &dst_rec = rig.cp->memory().record(dst);
    for (size_t i = 0; i < kq; ++i) {
        const auto &dig = rig.cp->memory().record(digits[i]);
        for (size_t c = 0; c < kq; ++c) {
            const rns::Modulus &qc = rig.params->qBase()->modulus(c);
            for (size_t j = 0; j < n; j += 41) {
                EXPECT_EQ(dig.data[c * n + j],
                          qc.reduce(dst_rec.data[i * n + j]));
            }
        }
    }
}

TEST(HwExec, NttWithoutRearrangePanics)
{
    ExecRig rig;
    PolyId id = rig.cp->uploadPoly(rig.randomQPoly(7));
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kNtt, id)};
    EXPECT_THROW(rig.cp->execute(p), PanicError);
}

TEST(HwExec, RearrangeOnNttDomainPanics)
{
    ExecRig rig;
    PolyId id = rig.cp->uploadPoly(rig.randomQPoly(8));
    Program good;
    good.instrs = {ExecRig::instr(Opcode::kRearrange, id),
                   ExecRig::instr(Opcode::kNtt, id)};
    rig.cp->execute(good);
    Program bad;
    bad.instrs = {ExecRig::instr(Opcode::kRearrange, id)};
    EXPECT_THROW(rig.cp->execute(bad), PanicError);
}

TEST(HwExec, CoeffOpLayoutMismatchPanics)
{
    ExecRig rig;
    PolyId a = rig.cp->uploadPoly(rig.randomQPoly(9));
    PolyId b = rig.cp->uploadPoly(rig.randomQPoly(10));
    PolyId c = rig.cp->memory().allocate(BaseTag::kQ);
    // Transform only a: layouts now differ.
    Program prep;
    prep.instrs = {ExecRig::instr(Opcode::kRearrange, a),
                   ExecRig::instr(Opcode::kNtt, a)};
    rig.cp->execute(prep);
    Program bad;
    bad.instrs = {ExecRig::instr(Opcode::kCoeffAdd, c, a, b)};
    EXPECT_THROW(rig.cp->execute(bad), PanicError);
}

TEST(HwExec, ScaleRequiresNaturalOrder)
{
    ExecRig rig;
    PolyId src = rig.cp->uploadPoly(rig.randomQPoly(11));
    PolyId dst = rig.cp->memory().allocate(BaseTag::kQ);
    Program prep;
    prep.instrs = {ExecRig::instr(Opcode::kLift, src),
                   ExecRig::instr(Opcode::kRearrange, src, kNoPoly,
                                  kNoPoly, 0)};
    rig.cp->execute(prep);
    Program bad;
    bad.instrs = {ExecRig::instr(Opcode::kScale, dst, src)};
    EXPECT_THROW(rig.cp->execute(bad), PanicError);
}

TEST(HwExec, KeyLoadWithoutKeysPanics)
{
    ExecRig rig; // no RelinKeys attached
    PolyId k0 = rig.cp->memory().allocate(BaseTag::kQ);
    PolyId k1 = rig.cp->memory().allocate(BaseTag::kQ);
    Instruction load = ExecRig::instr(Opcode::kKeyLoad, kNoPoly);
    load.extra = {k0, k1};
    Program p;
    p.instrs = {load};
    EXPECT_THROW(rig.cp->execute(p), PanicError);
}

TEST(HwExec, BatchOneTouchesOnlyExtensionResidues)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(12);
    PolyId id = rig.cp->uploadPoly(poly);
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kLift, id),
                ExecRig::instr(Opcode::kRearrange, id, kNoPoly, kNoPoly, 1),
                ExecRig::instr(Opcode::kNtt, id, kNoPoly, kNoPoly, 1)};
    rig.cp->execute(p);
    const auto &rec = rig.cp->memory().record(id);
    const size_t kq = rig.params->qBase()->size();
    for (size_t k = 0; k < rec.layout.size(); ++k) {
        EXPECT_EQ(rec.layout[k],
                  k < kq ? Layout::kNatural : Layout::kNttDomain)
            << k;
    }
    // The q residues' data is untouched.
    for (size_t k = 0; k < kq; ++k) {
        for (size_t j = 0; j < rig.params->degree(); ++j) {
            ASSERT_EQ(rec.data[k * rig.params->degree() + j],
                      poly.residue(k)[j]);
        }
    }
}

TEST(HwExec, ExecStatsAccumulateCorrectly)
{
    ExecRig rig;
    PolyId a = rig.cp->uploadPoly(rig.randomQPoly(13));
    PolyId b = rig.cp->uploadPoly(rig.randomQPoly(14));
    PolyId c = rig.cp->memory().allocate(BaseTag::kQ);
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kCoeffAdd, c, a, b),
                ExecRig::instr(Opcode::kCoeffAdd, c, c, b),
                ExecRig::instr(Opcode::kRearrange, c)};
    ExecStats stats = rig.cp->execute(p);
    EXPECT_EQ(stats.per_op[Opcode::kCoeffAdd].calls, 2u);
    EXPECT_EQ(stats.per_op[Opcode::kRearrange].calls, 1u);
    EXPECT_EQ(stats.fpga_cycles,
              stats.per_op[Opcode::kCoeffAdd].fpga_cycles +
                  stats.per_op[Opcode::kRearrange].fpga_cycles);
    EXPECT_DOUBLE_EQ(stats.dma_us, 0.0);
}

TEST(HwExec, DisassemblerRendersInstructions)
{
    Instruction ntt = ExecRig::instr(Opcode::kNtt, 3, kNoPoly, kNoPoly, 1);
    EXPECT_EQ(disassemble(ntt), "ntt p3 b1");
    Instruction mul = ExecRig::instr(Opcode::kCoeffMul, 5, 1, 2);
    EXPECT_EQ(disassemble(mul), "cmul p5 p1 p2 b0");
    Instruction load = ExecRig::instr(Opcode::kKeyLoad, kNoPoly);
    load.aux = 4;
    load.extra = {7, 8};
    EXPECT_EQ(disassemble(load), "kload digit=4 -> p7 p8");
}

TEST(HwExec, ProgramListingCoversAllInstructions)
{
    ExecRig rig;
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kMult, rig.config);
    const Program &p = mult.segments.at(0).program;
    std::string listing = p.listing();
    // One line per instruction.
    size_t lines = std::count(listing.begin(), listing.end(), '\n');
    EXPECT_EQ(lines, p.instrs.size());
    EXPECT_NE(listing.find("lift"), std::string::npos);
    EXPECT_NE(listing.find("scale"), std::string::npos);
    EXPECT_NE(listing.find("kload digit=0"), std::string::npos);
}

TEST(HwExec, TraditionalArchIsFunctionallyEquivalent)
{
    // The traditional-CRT coprocessor must produce valid lifts too
    // (exact arithmetic path).
    ExecRig rig;
    HwConfig trad = rig.config;
    trad.lift_scale_arch = LiftScaleArch::kTraditional;
    Coprocessor cp_trad(rig.params, trad);

    ntt::RnsPoly poly = rig.randomQPoly(15);
    PolyId id = cp_trad.uploadPoly(poly);
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kLift, id)};
    cp_trad.execute(p);

    const auto &conv = rig.params->liftConverter();
    const size_t n = rig.params->degree();
    const size_t kq = rig.params->qBase()->size();
    const size_t kp = rig.params->pBase()->size();
    std::vector<uint64_t> in(kq), out(kp);
    const auto &rec = cp_trad.memory().record(id);
    for (size_t j = 0; j < n; j += 29) {
        poly.gatherCoefficient(j, in);
        conv.convertExact(in, out);
        for (size_t i = 0; i < kp; ++i)
            EXPECT_EQ(rec.data[(kq + i) * n + j], out[i]) << j;
    }
}

} // namespace
} // namespace heat::hw
