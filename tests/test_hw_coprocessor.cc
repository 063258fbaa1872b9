/**
 * @file
 * Integration tests of the coprocessor: memory file discipline, the
 * compiled one-node FV.Mult program (Table II instruction mix, the
 * program the paper tables price), bit-exact golden comparison of the
 * simulated FV.Mult against the software evaluator, end-to-end
 * decryption of hardware-produced ciphertexts, the batched functional
 * units against the per-coefficient hardware model at every SIMD
 * level, timing against Tables I-II and the two-coprocessor system
 * throughput (Sec. VI-A) through the service's modeled-time engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "common/panic.h"
#include "common/random.h"
#include "compiler/attribution.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/galois.h"
#include "fv/keygen.h"
#include "hw/arm_host.h"
#include "hw/coprocessor.h"
#include "linalg/linalg.h"
#include "memory_support.h"
#include "ntt/ntt.h"
#include "service/service.h"
#include "simd/simd.h"

namespace heat::hw {
namespace {

using fv::ArithPath;
using fv::Ciphertext;
using fv::Plaintext;

/** Small-ring fixture so functional tests run fast. */
struct SmallRig
{
    SmallRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        keygen = std::make_unique<fv::KeyGenerator>(params, 99);
        sk = keygen->generateSecretKey();
        pk = keygen->generatePublicKey(sk);
        rlk = keygen->generateRelinKeys(sk);
        encryptor = std::make_unique<fv::Encryptor>(params, pk, 100);
        decryptor = std::make_unique<fv::Decryptor>(params, sk);
        evaluator = std::make_unique<fv::Evaluator>(params, ArithPath::kHps);
        // The small base has 3+4 primes -> 4 RPAUs.
        config = HwConfig::paper();
        config.n_rpaus = 4;
    }

    Plaintext
    somePlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    std::shared_ptr<const fv::FvParams> params;
    std::unique_ptr<fv::KeyGenerator> keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    HwConfig config;
};

TEST(MemoryFile, SlotLogShapesBindFinalRecords)
{
    auto params = fv::FvParams::paper();
    CountingAllocator alloc(*params, HwConfig::paper());
    EXPECT_EQ(alloc.capacity(), 84u);
    const PolyId a = alloc.allocate(BaseTag::kQ);
    EXPECT_EQ(alloc.slotsInUse(), 6u);
    const PolyId b = alloc.allocate(BaseTag::kFull, Layout::kNttDomain);
    EXPECT_EQ(alloc.slotsInUse(), 19u);
    alloc.extendToFull(a);
    EXPECT_EQ(alloc.slotsInUse(), 26u);
    alloc.release(b);
    EXPECT_EQ(alloc.slotsInUse(), 13u);
    EXPECT_EQ(alloc.peakSlots(), 26u);

    const std::span<const SlotAction> log(alloc.actions());
    const SlotLogShape shape = shapeSlotLog(*params, log);
    EXPECT_EQ(shape.peak_slots, alloc.peakSlots());
    ASSERT_EQ(shape.records.size(), 2u);
    EXPECT_TRUE(shape.records[a].extended);
    EXPECT_FALSE(shape.records[b].extended);

    // A record is bound at its final shape: the q record a Lift
    // extends spans the full base, its extension residues natural.
    MemoryFile mem(params, HwConfig::paper());
    replaySlotActions(mem, log);
    EXPECT_EQ(mem.record(a).base, BaseTag::kFull);
    EXPECT_EQ(mem.record(a).layout.size(), 13u);
    EXPECT_EQ(mem.record(a).data.size(), 13 * params->degree());
    EXPECT_EQ(mem.record(b).layout,
              std::vector<Layout>(13, Layout::kNttDomain));

    EXPECT_EQ(mem.peakBoundResidues(), 26u);

    // Returning the released record's buffer unbinds it; the bound
    // high-water mark holds until a reset.
    mem.returnRecord(b);
    EXPECT_NO_THROW(mem.record(a));
    EXPECT_THROW(mem.record(b), InvalidRecordError);
    EXPECT_EQ(mem.peakBoundResidues(), 26u);
    mem.reset();
    EXPECT_EQ(mem.peakBoundResidues(), 0u);
}

TEST(MemoryFile, InvalidRecordAccessNamesTheRecord)
{
    auto params = fv::FvParams::paper();
    CountingAllocator alloc(*params, HwConfig::paper());
    const PolyId a = alloc.allocate(BaseTag::kQ);
    alloc.release(a);
    MemoryFile mem(params, HwConfig::paper());
    replaySlotActions(mem, alloc.actions());

    // Out-of-range id: the error carries the id and the record count.
    try {
        mem.record(a + 41);
        FAIL() << "out-of-range access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a + 41);
        EXPECT_NE(std::string(e.what()).find("records exist"),
                  std::string::npos)
            << e.what();
    }

    // Returned record: same typed error, different cause in the message.
    mem.returnRecord(a);
    try {
        mem.record(a);
        FAIL() << "returned-record access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a);
        EXPECT_NE(std::string(e.what()).find("not bound"),
                  std::string::npos)
            << e.what();
    }

    // The typed error still is a PanicError, so existing broad
    // handlers keep working.
    EXPECT_THROW(mem.exportQBase(a), PanicError);
}

TEST(MemoryFile, OversubscribedLogIsFatal)
{
    // A log that skipped the verifier can ask for more slots than
    // the memory file holds: binding it is a typed error.
    auto params = fv::FvParams::paper();
    // 84 slots / 13 per full poly = 6 polys fit, the 7th does not.
    std::vector<SlotAction> log;
    for (PolyId id = 0; id < 7; ++id)
        log.push_back(SlotAction{SlotAction::Kind::kAllocate, id,
                                 BaseTag::kFull, Layout::kNatural, 0});
    MemoryFile mem(params, HwConfig::paper());
    EXPECT_THROW(replaySlotActions(mem, log), FatalError);
    log.pop_back();
    EXPECT_NO_THROW(replaySlotActions(mem, log));
}

TEST(MemoryFile, PooledBuffersReadAsZero)
{
    // reset() returns the records' buffers to the pool; a record bound
    // over a pooled buffer must still read as zero.
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    testing::TestRecords recs(mem);
    for (const auto &base : {rig.params->fullBase(), rig.params->qBase()}) {
        ntt::RnsPoly poly(base, rig.params->degree());
        for (auto &x : poly.data())
            x = 1;
        recs.upload(poly);
    }
    mem.reset();

    const std::vector<SlotAction> log = {
        {SlotAction::Kind::kAllocate, 0, BaseTag::kFull, Layout::kNatural,
         0},
        {SlotAction::Kind::kAllocate, 1, BaseTag::kQ, Layout::kNatural, 0}};
    replaySlotActions(mem, log);
    for (const PolyId id : {PolyId(0), PolyId(1)}) {
        const PolyRecord &rec = mem.record(id);
        EXPECT_EQ(rec.data.size(),
                  rec.layout.size() * rig.params->degree());
        EXPECT_TRUE(std::all_of(rec.data.begin(), rec.data.end(),
                                [](uint64_t x) { return x == 0; }))
            << "record " << id;
    }
    EXPECT_EQ(mem.record(0).layout.size(),
              rig.params->fullBase()->size());
}

TEST(MemoryFile, ResetToPinnedKeepsPinnedData)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    testing::TestRecords recs(mem);
    ntt::RnsPoly pinned(rig.params->qBase(), rig.params->degree());
    ntt::RnsPoly dropped(rig.params->qBase(), rig.params->degree());
    for (size_t i = 0; i < pinned.data().size(); ++i) {
        pinned.data()[i] = i % 7 + 1;
        dropped.data()[i] = i % 5 + 1;
    }
    const PolyId keep = recs.upload(pinned);
    const PolyId drop = recs.upload(dropped);
    mem.setPinnedRecords(1);
    mem.resetToPinned();

    EXPECT_EQ(mem.exportQBase(keep).data(), pinned.data());
    EXPECT_THROW(mem.record(drop), InvalidRecordError);
    const PolyId fresh = recs.zero(BaseTag::kQ);
    const std::vector<uint64_t> &data = mem.record(fresh).data;
    EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                            [](uint64_t x) { return x == 0; }));
}

TEST(MemoryFile, BindingOverBoundRecordsPanics)
{
    // A compiled program's records bind onto a reset memory file;
    // binding over live records must be rejected, not silently alias
    // the program's records with them.
    SmallRig rig;
    const compiler::CompiledCircuit add = compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kAdd, rig.config);
    MemoryFile mem(rig.params, rig.config);
    testing::TestRecords recs(mem);
    recs.zero(BaseTag::kQ);
    try {
        replaySlotActions(mem, add.slot_actions);
        FAIL() << "binding over a bound record must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("already bound"),
                  std::string::npos)
            << e.what();
    }
    mem.reset();
    EXPECT_NO_THROW(replaySlotActions(mem, add.slot_actions));
}

TEST(MemoryFile, ImportExportRoundTrip)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    testing::TestRecords recs(mem);
    ntt::RnsPoly poly(rig.params->qBase(), rig.params->degree());
    Xoshiro256 rng(7);
    for (size_t i = 0; i < poly.residueCount(); ++i) {
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(rig.params->qBase()->modulus(i).value());
    }
    PolyId id = recs.upload(poly);
    EXPECT_EQ(mem.exportQBase(id).data(), poly.data());
}

TEST(Coprocessor, UploadCopiesOnlyTheOperandAndKeepsItsDomain)
{
    // A full-base record rebound over a pooled buffer that held nonzero
    // words: the bind zero-fills it, so a q-base upload that copies only
    // its own words leaves the extension residues zero.
    SmallRig rig;
    Coprocessor cp(rig.params, rig.config);
    MemoryFile &mem = cp.memory();
    const RecordShape lifted{BaseTag::kQ, /*extended=*/true, 0,
                             Layout::kNatural};
    mem.bindRecord(0, lifted);
    std::fill(mem.record(0).data.begin(), mem.record(0).data.end(), 7);
    mem.returnRecord(0);
    mem.bindRecord(1, lifted);

    const size_t n = rig.params->degree();
    ntt::RnsPoly poly(rig.params->qBase(), n);
    Xoshiro256 rng(11);
    for (size_t i = 0; i < poly.residueCount(); ++i)
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(rig.params->qBase()->modulus(i).value());
    cp.uploadInto(1, poly);
    const PolyRecord &rec = mem.record(1);
    const size_t kq = poly.residueCount();
    ASSERT_EQ(rec.layout.size(), rig.params->fullBase()->size());
    EXPECT_TRUE(std::equal(poly.data().begin(), poly.data().end(),
                           rec.data.begin()));
    EXPECT_TRUE(std::all_of(rec.data.begin() + kq * n, rec.data.end(),
                            [](uint64_t x) { return x == 0; }));
    for (Layout l : rec.layout)
        EXPECT_EQ(l, Layout::kNatural);
    EXPECT_EQ(mem.exportQBase(1).form(), ntt::PolyForm::kCoeff);

    // A second upload of an NTT-form polynomial leaves the record
    // NTT-domain, and the download carries the domain back.
    ntt::RnsPoly ntt_poly = poly;
    ntt_poly.toNtt(rig.params->qContext());
    cp.uploadInto(1, ntt_poly);
    for (size_t k = 0; k < kq; ++k)
        EXPECT_EQ(mem.record(1).layout[k], Layout::kNttDomain)
            << "residue " << k;
    EXPECT_EQ(mem.exportQBase(1).form(), ntt::PolyForm::kNtt);
    EXPECT_EQ(mem.exportQBase(1), ntt_poly);
}

/**
 * One segment whose records are first touched by: a batch-0 CoeffMul
 * that overwrites record 2 (records 0 and 1 hold the uploaded input),
 * a KeyLoad that lends records 3 and 4 a relinearization key, an
 * in-place NTT of record 5 (it reads first) and a CoeffAdd of record 6
 * with dst == src0 (it reads first). The output value downloads the
 * five in that order.
 */
compiler::CompiledCircuit
firstTouchProgram(const SmallRig &rig)
{
    compiler::CompiledCircuit c;
    c.params = rig.params;
    c.hw = rig.config;
    c.inputs = {0};
    c.outputs = {1};
    c.value_sizes = {2, 5};
    c.value_levels = {0, 0};
    for (PolyId id = 0; id < 7; ++id)
        c.slot_actions.push_back({SlotAction::Kind::kAllocate, id,
                                  BaseTag::kQ,
                                  id == 5 ? Layout::kPaired
                                          : Layout::kNatural,
                                  0});
    const auto instr = [](Opcode op, PolyId dst, PolyId src0,
                          PolyId src1) {
        Instruction in;
        in.op = op;
        in.dst = dst;
        in.src0 = src0;
        in.src1 = src1;
        return in;
    };
    const Instruction mul = instr(Opcode::kCoeffMul, 2, 0, 1);
    Instruction load = instr(Opcode::kKeyLoad, kNoPoly, kNoPoly, kNoPoly);
    load.aux = keyLoadAux(0, 0);
    load.extra = {3, 4};
    const Instruction ntt = instr(Opcode::kNtt, 5, kNoPoly, kNoPoly);
    const Instruction add = instr(Opcode::kCoeffAdd, 6, 6, 0);
    compiler::Segment seg;
    seg.uploads = {{compiler::Transfer::Source::kValue, 0, 0, 0},
                   {compiler::Transfer::Source::kValue, 0, 1, 1}};
    seg.program.instrs = {mul, load, ntt, add};
    for (uint32_t p = 0; p < 5; ++p)
        seg.downloads.push_back(
            {compiler::Transfer::Source::kValue, 1, p, PolyId(2 + p)});
    seg.action_end = c.slot_actions.size();
    c.segments.push_back(seg);
    return c;
}

TEST(Coprocessor, BindsSkipOnlyTheFillTheirFirstTouchOverwrites)
{
    SmallRig rig;
    const compiler::CompiledCircuit program = firstTouchProgram(rig);
    const std::vector<Ciphertext> inputs = {
        rig.encryptor->encrypt(rig.somePlain(3))};

    // The rule, from the OpInfo roles: CoeffMul's dst and the key
    // buffers are overwritten whole; NTT and CoeffAdd with dst == src0
    // read their record first.
    const SlotLogShape log =
        shapeSlotLog(*rig.params, program.slot_actions);
    const std::vector<Instruction> &instrs =
        program.segments[0].program.instrs;
    EXPECT_TRUE(overwritesRecord(*rig.params, instrs[0], 2, log));
    EXPECT_TRUE(overwritesRecord(*rig.params, instrs[1], 3, log));
    EXPECT_TRUE(overwritesRecord(*rig.params, instrs[1], 4, log));
    EXPECT_FALSE(overwritesRecord(*rig.params, instrs[2], 5, log));
    EXPECT_FALSE(overwritesRecord(*rig.params, instrs[3], 6, log));
    EXPECT_FALSE(overwritesRecord(*rig.params, instrs[0], 0, log));

    Coprocessor clean(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> want =
        compiler::runCompiledCircuit(clean, program, inputs);

    // A pool of buffers that hold nonzero words, at least as large as
    // every record, then the same program.
    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    MemoryFile &mem = cp.memory();
    for (PolyId id = 0; id < 8; ++id) {
        mem.bindRecord(id, {BaseTag::kFull, false, 0, Layout::kNatural});
        std::fill(mem.record(id).data.begin(), mem.record(id).data.end(),
                  5);
    }
    mem.reset();
    const std::vector<Ciphertext> got =
        compiler::runCompiledCircuit(cp, program, inputs);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].size(), 5u);
    EXPECT_EQ(got, want);
    // The two that read first read zeros: an NTT of zero, and 0 + x.
    const auto zero = [](const ntt::RnsPoly &p) {
        return std::all_of(p.data().begin(), p.data().end(),
                           [](uint64_t x) { return x == 0; });
    };
    EXPECT_TRUE(zero(got[0][3]));
    EXPECT_EQ(got[0][4], inputs[0][0]);
    EXPECT_FALSE(zero(got[0][0]));
}

TEST(CompiledMult, MatchesTableIIInstructionMix)
{
    auto params = fv::FvParams::paper();
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        params, compiler::NodeKind::kMult, HwConfig::paper());
    ASSERT_EQ(mult.segments.size(), 1u);

    std::map<Opcode, int> counts;
    for (const auto &i : mult.segments[0].program.instrs)
        ++counts[i.op];
    // Table II call counts (CoeffAdd: we schedule 14, the paper lists 26).
    EXPECT_EQ(counts[Opcode::kNtt], 14);
    EXPECT_EQ(counts[Opcode::kIntt], 8);
    EXPECT_EQ(counts[Opcode::kCoeffMul], 20);
    EXPECT_EQ(counts[Opcode::kCoeffAdd], 14);
    EXPECT_EQ(counts[Opcode::kRearrange], 22);
    EXPECT_EQ(counts[Opcode::kLift], 4);
    EXPECT_EQ(counts[Opcode::kScale], 3);
    EXPECT_EQ(counts[Opcode::kKeyLoad], 6);
}

TEST(CompiledMult, FitsTheMemoryFile)
{
    auto params = fv::FvParams::paper();
    const HwConfig config = HwConfig::paper();
    const compiler::CompiledCircuit mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config);
    // Peak pressure must fit the 84-slot budget of Table IV, without
    // spilling.
    EXPECT_LE(mult.peak_slots, config.n_rpaus * config.slots_per_rpau);
    EXPECT_GE(mult.peak_slots, 70u); // and genuinely tight
    EXPECT_EQ(mult.spilled_polys, 0u);
}

TEST(CoprocessorFunctional, AddMatchesEvaluator)
{
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(1));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(2));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kAdd,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    EXPECT_EQ(out.at(0), rig.evaluator->add(x, y));
}

TEST(CoprocessorFunctional, MultBitExactAgainstEvaluator)
{
    // The coprocessor and the software evaluator share every arithmetic
    // kernel, so the simulated Mult must be bit-identical to the HPS
    // evaluator path.
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(3));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(4));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kMult,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    EXPECT_EQ(out.at(0), rig.evaluator->multiply(x, y, rig.rlk));
}

TEST(CoprocessorFunctional, MultDecryptsToProduct)
{
    SmallRig rig;
    Plaintext m0 = rig.somePlain(5);
    Plaintext m1 = rig.somePlain(6);
    Ciphertext x = rig.encryptor->encrypt(m0);
    Ciphertext y = rig.encryptor->encrypt(m1);

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kMult,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    Plaintext hw_plain = rig.decryptor->decrypt(out.at(0));

    // Reference product mod (x^n + 1, t).
    const uint64_t t = rig.params->plainModulus();
    const size_t n = rig.params->degree();
    std::vector<uint64_t> expect(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            uint64_t prod = m0.coeffs[i] * m1.coeffs[j] % t;
            size_t k = i + j;
            if (k < n)
                expect[k] = (expect[k] + prod) % t;
            else
                expect[k - n] = (expect[k - n] + t - prod) % t;
        }
    }
    for (size_t i = 0; i < n; ++i) {
        uint64_t got = i < hw_plain.coeffs.size() ? hw_plain.coeffs[i] : 0;
        ASSERT_EQ(got, expect[i]) << "coefficient " << i;
    }
}

TEST(CoprocessorFunctional, ProgramReusableAcrossRuns)
{
    // The service compiles each op once and reruns it on the same
    // worker: every run resets and replays over the previous one.
    SmallRig rig;
    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kMult, rig.config);

    for (uint64_t round = 0; round < 2; ++round) {
        Ciphertext x = rig.encryptor->encrypt(rig.somePlain(10 + round));
        Ciphertext y = rig.encryptor->encrypt(rig.somePlain(20 + round));
        const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
            cp, mult, std::vector<Ciphertext>{x, y});
        EXPECT_EQ(out.at(0), rig.evaluator->multiply(x, y, rig.rlk));
    }
}

/** Every kernel level the host and build support. */
std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> levels{simd::Level::kScalar};
    for (simd::Level l : {simd::Level::kAvx2, simd::Level::kAvx512}) {
        if (simd::detectedLevel() >= l)
            levels.push_back(l);
    }
    return levels;
}

/** Restores the process-wide dispatch level on scope exit. */
struct LevelGuard
{
    simd::Level saved = simd::activeLevel();
    ~LevelGuard() { simd::setLevel(saved); }
};

/** Modulus of residue @p k of record @p rec. */
const rns::Modulus &
residueModulus(const fv::FvParams &params, const PolyRecord &rec, size_t k)
{
    return rec.base == BaseTag::kQ ? params.qBase(rec.level)->modulus(k)
                                   : params.fullBase(rec.level)->modulus(k);
}

/** Fill every live residue of @p id with uniform canonical values. */
void
fillRandom(const fv::FvParams &params, MemoryFile &memory, PolyId id,
           Xoshiro256 &rng)
{
    PolyRecord &rec = memory.record(id);
    const size_t n = params.degree();
    for (size_t k = 0; k < rec.layout.size(); ++k) {
        const uint64_t q = residueModulus(params, rec, k).value();
        for (size_t j = 0; j < n; ++j)
            rec.data[k * n + j] = rng.uniformBelow(q);
    }
}

TEST(CoprocessorFunctional, ScaleRejectsShortRecords)
{
    // Scale writes kq(src level) residues into dst and every digit
    // record; a shorter record must be refused before any row is
    // written (the standalone execute() runs without the verifier).
    SmallRig rig;
    Coprocessor cp(rig.params, rig.config);
    MemoryFile &mem = cp.memory();
    testing::TestRecords recs(mem);
    const size_t kq = rig.params->qPrimeCount(0);
    const PolyId src = recs.zero(BaseTag::kFull);
    const PolyId dst = recs.zero(BaseTag::kQ);
    std::vector<PolyId> digits;
    for (size_t d = 0; d + 1 < kq; ++d)
        digits.push_back(recs.zero(BaseTag::kQ));
    const PolyId shallow = recs.zero(BaseTag::kQ, 1);
    Xoshiro256 rng(7);
    fillRandom(*rig.params, mem, src, rng);

    Instruction scale;
    scale.op = Opcode::kScale;
    scale.src0 = src;
    scale.dst = shallow;
    EXPECT_THROW(cp.execute(Program{{scale}}), PanicError);

    scale.dst = dst;
    scale.extra = digits;
    scale.extra.push_back(shallow);
    EXPECT_THROW(cp.execute(Program{{scale}}), PanicError);
    const std::vector<uint64_t> &written = mem.record(dst).data;
    EXPECT_TRUE(std::all_of(written.begin(), written.end(),
                            [](uint64_t v) { return v == 0; }))
        << "dst was written before the digit records were checked";

    // The automorphism's dst and digit broadcast have the same contract.
    const PolyId q_src = recs.zero(BaseTag::kQ);
    fillRandom(*rig.params, mem, q_src, rng);
    Instruction automorph;
    automorph.op = Opcode::kAutomorph;
    automorph.src0 = q_src;
    automorph.aux = fv::galoisElementForStep(1, rig.params->degree());
    automorph.extra = digits;
    automorph.extra.push_back(shallow);
    EXPECT_THROW(cp.execute(Program{{automorph}}), PanicError);
    automorph.extra.clear();
    automorph.dst = shallow;
    EXPECT_THROW(cp.execute(Program{{automorph}}), PanicError);
}

/**
 * The batched functional units against the per-coefficient hardware
 * model, at every SIMD level, on the paper set at the level the
 * parameter names.
 */
class BatchedUnits : public ::testing::TestWithParam<size_t>
{
  protected:
    static const std::shared_ptr<const fv::FvParams> &
    paperParams()
    {
        static const auto params = fv::FvParams::paper();
        return params;
    }

    const std::shared_ptr<const fv::FvParams> &params = paperParams();
    const HwConfig config = HwConfig::paper();
    const size_t level = GetParam();
    const size_t n = params->degree();
    const size_t kq = params->qPrimeCount(level);
    const size_t kp = params->pBase()->size();
};

TEST_P(BatchedUnits, CoeffUnitMatchesElementwiseModel)
{
    using UnitOp = void (CoeffUnit::*)(
        std::span<uint64_t>, std::span<const uint64_t>,
        std::span<const uint64_t>, const rns::Modulus &) const;
    using Model = uint64_t (*)(const rns::Modulus &, uint64_t, uint64_t);
    struct Case
    {
        const char *name;
        UnitOp op;
        Model model;
    };
    const Case cases[] = {
        {"mul", &CoeffUnit::mul,
         [](const rns::Modulus &q, uint64_t a, uint64_t b) {
             return q.slidingWindowReduce(a * b);
         }},
        {"add", &CoeffUnit::add,
         [](const rns::Modulus &q, uint64_t a, uint64_t b) {
             return q.add(a, b);
         }},
        {"sub", &CoeffUnit::sub,
         [](const rns::Modulus &q, uint64_t a, uint64_t b) {
             return q.sub(a, b);
         }},
    };
    const CoeffUnit unit(config);
    const auto &base = params->fullBase(level);
    Xoshiro256 rng(100 + level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        for (size_t k = 0; k < base->size(); ++k) {
            const rns::Modulus &q = base->modulus(k);
            std::vector<uint64_t> a(n), b(n);
            for (size_t j = 0; j < n; ++j) {
                a[j] = rng.uniformBelow(q.value());
                b[j] = rng.uniformBelow(q.value());
            }
            for (const Case &c : cases) {
                std::vector<uint64_t> want(n), want_sq(n);
                for (size_t j = 0; j < n; ++j) {
                    want[j] = c.model(q, a[j], b[j]);
                    want_sq[j] = c.model(q, a[j], a[j]);
                }
                const std::string where = std::string(c.name) + " at " +
                                          simd::levelName(l) +
                                          ", residue " + std::to_string(k);
                std::vector<uint64_t> dst(n, 0);
                (unit.*c.op)(dst, a, b, q);
                EXPECT_EQ(dst, want) << where << ", distinct dst";
                dst = a;
                (unit.*c.op)(dst, dst, b, q);
                EXPECT_EQ(dst, want) << where << ", dst == a";
                dst = b;
                (unit.*c.op)(dst, a, dst, q);
                EXPECT_EQ(dst, want) << where << ", dst == b";
                dst = a;
                (unit.*c.op)(dst, dst, dst, q);
                EXPECT_EQ(dst, want_sq) << where << ", dst == a == b";
            }
        }
    }
}

TEST_P(BatchedUnits, LiftMatchesPerCoefficientConvert)
{
    const LiftUnit unit(params, config);
    const auto &conv = params->liftConverter(level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        MemoryFile mem(params, config);
        testing::TestRecords recs(mem);
        const PolyId id = recs.zero(BaseTag::kFull, level);
        Xoshiro256 rng(200 + level);
        fillRandom(*params, mem, id, rng);
        std::vector<uint64_t> want = mem.record(id).data;
        want.resize((kq + kp) * n);
        std::vector<uint64_t> in(kq), out(kp);
        for (size_t j = 0; j < n; ++j) {
            for (size_t i = 0; i < kq; ++i)
                in[i] = want[i * n + j];
            conv.convert(in, out);
            for (size_t i = 0; i < kp; ++i)
                want[(kq + i) * n + j] = out[i];
        }

        unit.run(mem, id);
        EXPECT_EQ(mem.record(id).base, BaseTag::kFull);
        EXPECT_TRUE(mem.record(id).data == want) << simd::levelName(l);
    }
}

TEST_P(BatchedUnits, ScaleWithDigitsMatchesPerCoefficientModel)
{
    const ScaleUnit unit(params, config);
    const auto &scaler = params->scaler(level);
    const auto &back = params->scaleBackConverter(level);
    const auto &qbase = params->qBase(level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        MemoryFile mem(params, config);
        testing::TestRecords recs(mem);
        const PolyId src = recs.zero(BaseTag::kFull, level);
        const PolyId dst = recs.zero(BaseTag::kQ, level);
        std::vector<PolyId> digits;
        for (size_t d = 0; d < kq; ++d)
            digits.push_back(recs.zero(BaseTag::kQ, level));
        Xoshiro256 rng(300 + level);
        fillRandom(*params, mem, src, rng);

        const std::vector<uint64_t> &x = mem.record(src).data;
        std::vector<uint64_t> want(kq * n);
        std::vector<std::vector<uint64_t>> want_digits(
            kq, std::vector<uint64_t>(kq * n));
        std::vector<uint64_t> full(kq + kp), mid(kp), res(kq);
        for (size_t j = 0; j < n; ++j) {
            for (size_t i = 0; i < kq + kp; ++i)
                full[i] = x[i * n + j];
            scaler.scale(full, mid);
            back.convert(mid, res);
            for (size_t i = 0; i < kq; ++i)
                want[i * n + j] = res[i];
            for (size_t d = 0; d < kq; ++d) {
                for (size_t c = 0; c < kq; ++c)
                    want_digits[d][c * n + j] =
                        qbase->modulus(c).reduce(res[d]);
            }
        }

        unit.run(mem, src, dst, digits);
        EXPECT_TRUE(mem.record(dst).data == want) << simd::levelName(l);
        for (size_t d = 0; d < kq; ++d) {
            EXPECT_TRUE(mem.record(digits[d]).data == want_digits[d])
                << simd::levelName(l) << ", digit " << d;
        }
    }
}

TEST_P(BatchedUnits, ModSwitchMatchesPerCoefficientRounder)
{
    const ScaleUnit unit(params, config);
    const auto &rounder = params->modSwitchRounder(level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        MemoryFile mem(params, config);
        testing::TestRecords recs(mem);
        const PolyId src = recs.zero(BaseTag::kQ, level);
        const PolyId dst = recs.zero(BaseTag::kQ, level + 1);
        Xoshiro256 rng(400 + level);
        fillRandom(*params, mem, src, rng);

        const std::vector<uint64_t> &x = mem.record(src).data;
        std::vector<uint64_t> want((kq - 1) * n);
        std::vector<uint64_t> in(kq), next(kq - 1);
        for (size_t j = 0; j < n; ++j) {
            in[0] = x[(kq - 1) * n + j];
            for (size_t i = 0; i + 1 < kq; ++i)
                in[i + 1] = x[i * n + j];
            rounder.scale(in, next);
            for (size_t i = 0; i + 1 < kq; ++i)
                want[i * n + j] = next[i];
        }

        unit.runModSwitch(mem, src, dst);
        EXPECT_TRUE(mem.record(dst).data == want) << simd::levelName(l);
    }
}

TEST_P(BatchedUnits, AutomorphDigitsMatchPerCoefficientReduce)
{
    const uint32_t g = fv::galoisElementForStep(1, n);
    const auto &qbase = params->qBase(level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        Coprocessor cp(params, config);
        MemoryFile &mem = cp.memory();
        testing::TestRecords recs(mem);
        const PolyId src = recs.zero(BaseTag::kQ, level);
        const PolyId dst = recs.zero(BaseTag::kQ, level);
        std::vector<PolyId> digits;
        for (size_t d = 0; d < kq; ++d)
            digits.push_back(recs.zero(BaseTag::kQ, level));
        Xoshiro256 rng(500 + level);
        fillRandom(*params, mem, src, rng);

        const std::vector<uint64_t> &x = mem.record(src).data;
        std::vector<uint64_t> permuted(kq * n);
        for (size_t k = 0; k < kq; ++k) {
            fv::applyGaloisToResidue(
                std::span<const uint64_t>(x.data() + k * n, n),
                std::span<uint64_t>(permuted.data() + k * n, n), g,
                qbase->modulus(k));
        }
        std::vector<std::vector<uint64_t>> want_digits(
            kq, std::vector<uint64_t>(kq * n));
        for (size_t d = 0; d < kq; ++d) {
            for (size_t c = 0; c < kq; ++c) {
                for (size_t j = 0; j < n; ++j)
                    want_digits[d][c * n + j] =
                        qbase->modulus(c).reduce(permuted[d * n + j]);
            }
        }

        Instruction automorph;
        automorph.op = Opcode::kAutomorph;
        automorph.dst = dst;
        automorph.src0 = src;
        automorph.aux = g;
        automorph.extra = digits;
        cp.execute(Program{{automorph}});
        EXPECT_TRUE(mem.record(dst).data == permuted)
            << simd::levelName(l);
        for (size_t d = 0; d < kq; ++d) {
            EXPECT_TRUE(mem.record(digits[d]).data == want_digits[d])
                << simd::levelName(l) << ", digit " << d;
        }
    }
}

TEST_P(BatchedUnits, NttDomainAutomorphMatchesTransformRoute)
{
    // The coprocessor permutes NTT-domain records with one index-mapped
    // read; the transform route (inverse NTT, coefficient-order tau_g,
    // forward NTT) is the oracle. Elements: every one the 16x16 matvec
    // rotates by, the column swap 2n - 1 and the identity.
    if (level > 0) {
        ASSERT_LT(kq, params->qPrimeCount(0));
    }
    std::vector<std::vector<uint64_t>> matrix(16,
                                              std::vector<uint64_t>(16, 1));
    std::vector<uint32_t> elements =
        linalg::MatVec(fv::FvParams::paper(/*t=*/65537), matrix)
            .requiredGaloisElements();
    ASSERT_FALSE(elements.empty());
    elements.push_back(static_cast<uint32_t>(2 * n - 1));
    elements.push_back(1);

    const auto &qbase = params->qBase(level);
    const auto &ctx = params->qContext(level);
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        Coprocessor cp(params, config);
        MemoryFile &mem = cp.memory();
        testing::TestRecords recs(mem);
        const PolyId src = recs.zero(BaseTag::kQ, level);
        // A full-base dst: the residues past kq must stay untouched.
        const PolyId dst = recs.zero(BaseTag::kFull, level);
        Xoshiro256 rng(900 + level);
        fillRandom(*params, mem, src, rng);
        fillRandom(*params, mem, dst, rng);
        for (Layout &lay : mem.record(src).layout)
            lay = Layout::kNttDomain;
        ASSERT_GT(mem.record(dst).layout.size(), kq);
        const std::vector<uint64_t> tail(
            mem.record(dst).data.begin() + kq * n,
            mem.record(dst).data.end());

        const std::vector<uint64_t> &x = mem.record(src).data;
        for (uint32_t g : elements) {
            std::vector<uint64_t> want(kq * n);
            std::vector<uint64_t> coeff(n);
            for (size_t k = 0; k < kq; ++k) {
                std::copy_n(x.begin() + k * n, n, coeff.begin());
                ntt::inverseNtt(coeff, ctx.tables(k));
                std::span<uint64_t> out(want.data() + k * n, n);
                fv::applyGaloisToResidue(coeff, out, g, qbase->modulus(k));
                ntt::forwardNtt(out, ctx.tables(k));
            }

            Instruction automorph;
            automorph.op = Opcode::kAutomorph;
            automorph.dst = dst;
            automorph.src0 = src;
            automorph.aux = g;
            cp.execute(Program{{automorph}});
            const PolyRecord &out = mem.record(dst);
            EXPECT_TRUE(std::equal(want.begin(), want.end(),
                                   out.data.begin()))
                << simd::levelName(l) << ", element " << g;
            EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                                   out.data.begin() + kq * n))
                << simd::levelName(l) << ", element " << g;
            for (size_t k = 0; k < kq; ++k)
                EXPECT_EQ(out.layout[k], Layout::kNttDomain);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSet, BatchedUnits,
                         ::testing::Values(size_t(0), size_t(1)));

TEST(CoprocessorFunctional, CompiledCircuitBitIdenticalAcrossSimdLevels)
{
    // mult -> relin -> modSwitch -> rotate exercises every batched
    // datapath (CoeffMul/Add, Lift, Scale with digits, ModSwitch and
    // the coefficient-domain automorphism's digit broadcast). One
    // coprocessor reruns it under each kernel level; every run must
    // equal the scalar run and the software reference.
    SmallRig rig;
    const size_t n = rig.params->degree();
    const fv::GaloisKeys gkeys = rig.keygen->generateGaloisKeys(
        rig.sk, {fv::galoisElementForStep(1, n)});
    compiler::CircuitBuilder b;
    const auto x = b.input();
    const auto y = b.input();
    b.output(b.rotate(b.modSwitch(b.mult(x, y)), 1));
    const compiler::Circuit circuit = b.build();
    compiler::CompilerOptions options;
    options.hw = rig.config;
    const compiler::CompiledCircuit compiled =
        compiler::compileCircuit(rig.params, circuit, options);
    const std::vector<Ciphertext> in = {
        rig.encryptor->encrypt(rig.somePlain(41)),
        rig.encryptor->encrypt(rig.somePlain(42))};

    LevelGuard guard;
    simd::setLevel(simd::Level::kScalar);
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *rig.evaluator, &rig.rlk, circuit, in, &gkeys);
    Coprocessor cp(rig.params, rig.config, &rig.rlk, &gkeys);
    const std::vector<Ciphertext> scalar =
        compiler::runCompiledCircuit(cp, compiled, in);
    EXPECT_EQ(scalar, reference);
    EXPECT_EQ(scalar.at(0).level, 1u);
    for (simd::Level l : availableLevels()) {
        simd::setLevel(l);
        EXPECT_EQ(compiler::runCompiledCircuit(cp, compiled, in), scalar)
            << simd::levelName(l);
    }
}

TEST(CoprocessorTiming, TableIIPerInstructionTimes)
{
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);

    auto us_of = [&](Opcode op) {
        Instruction i;
        i.op = op;
        return config.cyclesToUs(cp.instructionCycles(i));
    };
    // Table II: NTT 73.0, Inverse-NTT 85.0, CMul 13.1, CAdd 13.6,
    // Rearrange 20.8, Lift 82.6, Scale 82.7 (us). Model within ~15%.
    EXPECT_NEAR(us_of(Opcode::kNtt), 73.0, 6.0);
    EXPECT_NEAR(us_of(Opcode::kIntt), 85.0, 7.0);
    EXPECT_NEAR(us_of(Opcode::kCoeffMul), 13.1, 2.0);
    EXPECT_NEAR(us_of(Opcode::kCoeffAdd), 13.6, 2.0);
    EXPECT_NEAR(us_of(Opcode::kRearrange), 20.8, 3.1);
    EXPECT_NEAR(us_of(Opcode::kLift), 82.6, 8.0);
    EXPECT_NEAR(us_of(Opcode::kScale), 82.7, 8.0);
}

/** Table I's Mult on @p config (ms): the served Mult program's compute
 *  and key DMA, with one Arm dispatch per instruction. */
double
tableIMultMs(const HwConfig &config)
{
    const compiler::CircuitRunStats mult =
        compiler::attributeCompiledCircuit(
            compiler::compileOpCircuit(fv::FvParams::paper(),
                                       compiler::NodeKind::kMult, config),
            DispatchMode::kPerInstruction)
            .cold.totals;
    return (config.cyclesToUs(mult.fpga_cycles) + mult.dma_us) / 1000.0;
}

TEST(CoprocessorTiming, MultMatchesTableI)
{
    // Table I: Mult in HW 5,349,567 Arm cycles = 4.458 ms, measured
    // with one Arm dispatch per instruction (kPerInstruction).
    EXPECT_NEAR(tableIMultMs(HwConfig::paper()), 4.458, 0.45); // 10%
}

TEST(CoprocessorTiming, AddMatchesTableI)
{
    // Table I: Add in HW 31,339 Arm cycles = 26 us.
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);
    Instruction add;
    add.op = Opcode::kCoeffAdd;
    const double us = 2.0 * config.cyclesToUs(cp.instructionCycles(add));
    EXPECT_NEAR(us, 26.0, 3.0);
}

TEST(ArmHost, TableITransferAndSwAdd)
{
    auto params = fv::FvParams::paper();
    ArmHostModel host(params, HwConfig::paper());
    // Table I: send two ciphertexts 362 us, receive one 180 us,
    // Add in SW 45.57 ms.
    EXPECT_NEAR(host.sendCiphertextsUs(2), 362.0, 15.0);
    EXPECT_NEAR(host.receiveCiphertextUs(), 180.0, 8.0);
    EXPECT_NEAR(host.softwareAddUs() / 1000.0, 45.567, 1.0);
    // The paper: SW add is ~80x slower than HW add incl. transfers.
    const double hw_add_total =
        26.0 + host.sendCiphertextsUs(2) + host.receiveCiphertextUs();
    EXPECT_NEAR(host.softwareAddUs() / hw_add_total, 80.0, 12.0);
}

/**
 * The Fig. 11 system: @p mults paper-set Mults queued on a start_paused
 * service with @p coprocessors workers, whose modeled-time engine
 * arbitrates the one DMA engine among them. @return its statistics.
 */
service::ServiceStats
fig11Run(size_t coprocessors, size_t mults)
{
    struct Keys
    {
        std::shared_ptr<const fv::FvParams> params = fv::FvParams::paper();
        fv::RelinKeys rlk;
        std::vector<Ciphertext> operands;
    };
    static const Keys keys = [] {
        Keys k;
        fv::KeyGenerator keygen(k.params, 71);
        const fv::SecretKey sk = keygen.generateSecretKey();
        k.rlk = keygen.generateRelinKeys(sk);
        fv::Encryptor encryptor(k.params, keygen.generatePublicKey(sk), 72);
        for (uint64_t v : {1u, 2u}) {
            Plaintext m;
            m.coeffs = {v};
            k.operands.push_back(encryptor.encrypt(m));
        }
        return k;
    }();

    service::ServiceConfig cfg;
    cfg.workers = coprocessors;
    cfg.start_paused = true;
    service::ExecutionService svc(keys.params, keys.rlk, cfg);
    std::vector<std::future<Ciphertext>> futures;
    for (size_t i = 0; i < mults; ++i)
        futures.push_back(svc.submit(service::Op::kMult, keys.operands[0],
                                     keys.operands[1]));
    svc.start();
    for (auto &f : futures)
        f.get();
    svc.drain();
    return svc.stats();
}

TEST(Fig11System, Throughput400MultPerSecond)
{
    // Sec. VI-A: two coprocessors give ~400 Mult/s.
    const service::ServiceStats r = fig11Run(2, 32);
    EXPECT_NEAR(r.modeledOpsPerSecond(), 400.0, 45.0);
    EXPECT_LT(r.dmaUtilization(), 1.0);
}

TEST(Fig11System, TwoCoprocessorsNearlyDoubleThroughput)
{
    const double t1 = fig11Run(1, 32).modeledOpsPerSecond();
    const double t2 = fig11Run(2, 32).modeledOpsPerSecond();
    EXPECT_GT(t2, 1.8 * t1);
    EXPECT_LE(t2, 2.05 * t1);
}

TEST(Fig11System, TraditionalArchitectureIsSlower)
{
    // Sec. VI-C: the traditional-CRT coprocessor needs 8.3 ms per Mult
    // (225 MHz, 4 Lift/Scale cores) versus 4.458 ms for HPS — slower,
    // but less than 2x because relin keys are 3x smaller. Our model
    // charges the same 6-digit key schedule, so expect <2.2x.
    const double fast_ms = tableIMultMs(HwConfig::paper());
    const double slow_ms = tableIMultMs(HwConfig::paperTraditional());
    EXPECT_GT(slow_ms, fast_ms);
    EXPECT_LT(slow_ms, 2.2 * fast_ms);
    EXPECT_NEAR(slow_ms, 8.3, 1.2);
}

} // namespace
} // namespace heat::hw
