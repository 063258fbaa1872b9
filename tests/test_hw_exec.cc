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
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "memory_support.h"
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
        recs = std::make_unique<testing::TestRecords>(cp->memory());
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
    std::unique_ptr<testing::TestRecords> recs;
};

TEST(HwExec, NttInstructionMatchesSoftwareNtt)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(1);
    PolyId id = rig.recs->upload(poly);
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
    PolyId id = rig.recs->upload(poly);
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
    PolyId ia = rig.recs->upload(a);
    PolyId ib = rig.recs->upload(b);
    PolyId sum = rig.recs->zero(BaseTag::kQ);
    PolyId diff = rig.recs->zero(BaseTag::kQ);
    PolyId prod = rig.recs->zero(BaseTag::kQ);

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
    PolyId id = rig.recs->forLift(poly);
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
    PolyId src = rig.recs->forLift(poly);
    PolyId dst = rig.recs->zero(BaseTag::kQ);
    const size_t kq = rig.params->qBase()->size();
    std::vector<PolyId> digits;
    for (size_t i = 0; i < kq; ++i)
        digits.push_back(rig.recs->zero(BaseTag::kQ));

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
    PolyId id = rig.recs->upload(rig.randomQPoly(7));
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kNtt, id)};
    EXPECT_THROW(rig.cp->execute(p), PanicError);
}

TEST(HwExec, RearrangeOnNttDomainPanics)
{
    ExecRig rig;
    PolyId id = rig.recs->upload(rig.randomQPoly(8));
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
    PolyId a = rig.recs->upload(rig.randomQPoly(9));
    PolyId b = rig.recs->upload(rig.randomQPoly(10));
    PolyId c = rig.recs->zero(BaseTag::kQ);
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
    PolyId src = rig.recs->forLift(rig.randomQPoly(11));
    PolyId dst = rig.recs->zero(BaseTag::kQ);
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
    PolyId k0 = rig.recs->zero(BaseTag::kQ);
    PolyId k1 = rig.recs->zero(BaseTag::kQ);
    Instruction load = ExecRig::instr(Opcode::kKeyLoad, kNoPoly);
    load.extra = {k0, k1};
    Program p;
    p.instrs = {load};
    EXPECT_THROW(rig.cp->execute(p), PanicError);
}

/** The words of a key half a level-0 buffer streams: all of them. */
std::vector<uint64_t>
keyWords(const fv::RelinKeys &rlk, size_t digit, int half)
{
    return rlk.keys[digit][half].data();
}

TEST(HwExec, KeyLoadLeavesNoBorrowAfterExecute)
{
    // A key load lends its buffers the key; execute() copies in every
    // borrow left when the program ends, so the buffers then hold the
    // key and the lender may be swapped or freed.
    ExecRig rig;
    fv::KeyGenerator keygen(rig.params, 5);
    const fv::RelinKeys rlk =
        keygen.generateRelinKeys(keygen.generateSecretKey());
    rig.cp->attachKeys(&rlk, nullptr);
    const PolyId k0 = rig.recs->zero(BaseTag::kQ);
    const PolyId k1 = rig.recs->zero(BaseTag::kQ);
    Instruction load = ExecRig::instr(Opcode::kKeyLoad, kNoPoly);
    load.aux = keyLoadAux(0, 1);
    load.extra = {k0, k1};
    rig.run({load});

    const MemoryFile &memory = rig.cp->memory();
    for (int half = 0; half < 2; ++half) {
        const PolyRecord &buf = memory.operand(load.extra[half]);
        EXPECT_EQ(buf.lent, nullptr) << "half " << half;
        EXPECT_EQ(buf.data, keyWords(rlk, 1, half)) << "half " << half;
        EXPECT_EQ(buf.layout,
                  std::vector<Layout>(buf.layout.size(), Layout::kNttDomain));
    }
}

TEST(HwExec, WritingALoadedKeyBufferLeavesTheKey)
{
    // A CoeffMul into one loaded key buffer and an inverse NTT on the
    // other write the buffers, not the tenant's stored key: a second
    // load of the same digit, in the same program, reads the original.
    ExecRig rig;
    fv::KeyGenerator keygen(rig.params, 6);
    const fv::RelinKeys rlk =
        keygen.generateRelinKeys(keygen.generateSecretKey());
    const fv::RelinKeys stored = rlk;
    rig.cp->attachKeys(&rlk, nullptr);

    const ntt::RnsPoly x = rig.randomQPoly(20);
    const PolyId ix = rig.recs->upload(x);
    PolyId k[4];
    for (PolyId &id : k)
        id = rig.recs->zero(BaseTag::kQ);
    Instruction first = ExecRig::instr(Opcode::kKeyLoad, kNoPoly);
    first.aux = keyLoadAux(0, 0);
    first.extra = {k[0], k[1]};
    Instruction second = first;
    second.extra = {k[2], k[3]};
    // The key buffers are NTT-domain: set x's layout to match.
    for (Layout &l : rig.cp->memory().record(ix).layout)
        l = Layout::kNttDomain;
    rig.run({first, ExecRig::instr(Opcode::kCoeffMul, k[0], k[0], ix),
             ExecRig::instr(Opcode::kIntt, k[1]), second});

    for (size_t d = 0; d < rlk.digitCount(); ++d)
        for (int half = 0; half < 2; ++half)
            EXPECT_EQ(rlk.keys[d][half], stored.keys[d][half])
                << "digit " << d << " half " << half;
    const MemoryFile &memory = rig.cp->memory();
    EXPECT_EQ(memory.record(k[2]).data, keyWords(stored, 0, 0));
    EXPECT_EQ(memory.record(k[3]).data, keyWords(stored, 0, 1));

    const size_t n = rig.params->degree();
    const std::vector<uint64_t> key0 = keyWords(stored, 0, 0);
    const std::vector<uint64_t> &prod = memory.record(k[0]).data;
    for (size_t r = 0; r < x.residueCount(); ++r) {
        const rns::Modulus &q = rig.params->qBase()->modulus(r);
        for (size_t j = 0; j < n; ++j)
            ASSERT_EQ(prod[r * n + j], q.mul(key0[r * n + j],
                                             x.residue(r)[j]))
                << r << ", " << j;
    }
    ntt::RnsPoly key1 = stored.keys[0][1];
    key1.toCoeff(rig.params->qContext());
    EXPECT_EQ(memory.record(k[1]).data, key1.data());
}

TEST(HwExec, BatchOneTouchesOnlyExtensionResidues)
{
    ExecRig rig;
    ntt::RnsPoly poly = rig.randomQPoly(12);
    PolyId id = rig.recs->forLift(poly);
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
    PolyId a = rig.recs->upload(rig.randomQPoly(13));
    PolyId b = rig.recs->upload(rig.randomQPoly(14));
    PolyId c = rig.recs->zero(BaseTag::kQ);
    Program p;
    p.instrs = {ExecRig::instr(Opcode::kCoeffAdd, c, a, b),
                ExecRig::instr(Opcode::kCoeffAdd, c, c, b),
                ExecRig::instr(Opcode::kRearrange, c)};
    ExecStats stats = rig.cp->execute(p);
    EXPECT_EQ(stats.instructions, 3u);
    Cycle unit_sum = 0;
    for (Cycle c : stats.unit_cycles)
        unit_sum += c;
    EXPECT_EQ(unit_sum, stats.fpga_cycles);
    EXPECT_EQ(stats.fpga_cycles,
              2 * rig.cp->instructionCycles(p.instrs[0]) +
                  rig.cp->instructionCycles(p.instrs[2]));
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
    testing::TestRecords recs(cp_trad.memory());
    PolyId id = recs.forLift(poly);
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
