/**
 * @file
 * Mutation-testing suite for the static program verifier
 * (verify/verify.h). Every unmutated compiled circuit must verify
 * clean (zero false positives — the whole repo's compile paths run
 * under verify=kReject via verify_support.h), and each systematic
 * corruption class applied to a known-good CompiledCircuit must be
 * caught with a Diagnostic of the right invariant family: the verifier
 * has to bite, not just run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/isa.h"
#include "service/service.h"
#include "verify/verify.h"
#include "verify_support.h"

namespace heat {
namespace {

using compiler::CompiledCircuit;
using compiler::CompilerOptions;
using compiler::Transfer;
using hw::Instruction;
using hw::Opcode;
using hw::SlotAction;
using verify::Diagnostic;
using verify::Invariant;
using verify::VerifyResult;

std::shared_ptr<const fv::FvParams>
smallParams()
{
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    return fv::FvParams::create(cfg);
}

hw::HwConfig
smallHw(const fv::FvParams &params)
{
    hw::HwConfig config = hw::HwConfig::paper();
    config.n_rpaus = (params.fullBase()->size() + 1) / 2;
    return config;
}

fv::Plaintext
randomPlain(const fv::FvParams &params, uint64_t seed)
{
    Xoshiro256 rng(seed);
    fv::Plaintext p;
    p.coeffs.resize(params.degree());
    for (auto &c : p.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return p;
}

/** Depth-2 mult tree: relin key loads, Lift/Scale tensor lowering. */
CompiledCircuit
multCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(b.mult(b.mult(x, y), y));
    CompilerOptions options;
    options.hw = smallHw(*params);
    return compiler::compileCircuit(params, b.build(), options);
}

/** Rotation pair: Galois key loads, hoisted automorphism digits. */
CompiledCircuit
rotateCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    b.output(b.add(b.rotate(x, 1), b.rotate(x, 2)));
    CompilerOptions options;
    options.hw = smallHw(*params);
    return compiler::compileCircuit(params, b.build(), options);
}

/** Wide additive fan on a shrunken memory file: every leaf stays live
 *  across the build-up, forcing spills, reloads, and multiple
 *  segments. */
CompiledCircuit
spillCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    compiler::ValueId rolling = b.add(x, y);
    std::vector<compiler::ValueId> leaves;
    for (int i = 0; i < 4; ++i) {
        rolling = b.add(rolling, i % 2 == 0 ? x : y);
        leaves.push_back(rolling);
    }
    compiler::ValueId acc = b.negate(leaves.back());
    for (int i = 3; i >= 0; --i)
        acc = b.add(acc, leaves[static_cast<size_t>(i)]);
    b.output(acc);
    CompilerOptions options;
    options.hw = smallHw(*params);
    options.hw.slots_per_rpau = 6;
    return compiler::compileCircuit(params, b.build(), options);
}

/** PIR selection with a pinned resident shard prefix and plaintext
 *  constants. */
CompiledCircuit
residentCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    constexpr size_t kShards = 4;
    std::vector<compiler::ValueId> db(kShards);
    for (auto &v : db)
        v = b.input();
    const compiler::ValueId query = b.input();
    compiler::ValueId acc = compiler::kNoValue;
    for (size_t k = 0; k < kShards; ++k) {
        const compiler::ValueId sel =
            b.multPlain(db[k], randomPlain(*params, 31 + k));
        acc = (k == 0) ? sel : b.add(acc, sel);
    }
    b.output(b.add(acc, query));
    CompilerOptions options;
    options.hw = smallHw(*params);
    for (uint32_t k = 0; k < kShards; ++k)
        options.resident_inputs.push_back(k);
    return compiler::compileCircuit(params, b.build(), options);
}

/** Plaintext selections summed in reverse on a shrunken memory file:
 *  the NTT-domain products stay live across the build-up, so some
 *  spill and reload NTT-domain, and the sum leaves through an inverse
 *  transform before its download. */
CompiledCircuit
nttSpillCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    std::vector<compiler::ValueId> products;
    for (uint64_t k = 0; k < 6; ++k)
        products.push_back(b.multPlain(x, randomPlain(*params, 60 + k)));
    compiler::ValueId acc = products.back();
    for (size_t k = products.size() - 1; k-- > 0;)
        acc = b.add(acc, products[k]);
    b.output(acc);
    CompilerOptions options;
    options.hw = smallHw(*params);
    options.hw.slots_per_rpau = 6;
    return compiler::compileCircuit(params, b.build(), options);
}

/** One plaintext multiplication lowered op by op: its constant is
 *  uploaded natural and transformed in the program. */
CompiledCircuit
opByOpMultPlainCircuit()
{
    auto params = smallParams();
    compiler::CircuitBuilder b;
    b.output(b.multPlain(b.input(), randomPlain(*params, 70)));
    return compiler::compileCircuitOpByOp(params, b.build(),
                                          smallHw(*params));
}

/** @return the first upload of @p c matching @p pred, or nullptr. */
template <typename Pred>
Transfer *
findUpload(CompiledCircuit &c, Pred pred)
{
    for (compiler::Segment &seg : c.segments)
        for (Transfer &t : seg.uploads)
            if (pred(t))
                return &t;
    return nullptr;
}

/** @return a mutable pointer to the first instruction matching @p pred
 *  across all segments, or nullptr. */
template <typename Pred>
Instruction *
findInstr(CompiledCircuit &compiled, Pred pred)
{
    for (compiler::Segment &seg : compiled.segments)
        for (Instruction &in : seg.program.instrs)
            if (pred(in))
                return &in;
    return nullptr;
}

/** Assert the verifier flags @p compiled with at least one diagnostic
 *  of @p invariant, and return that diagnostic. */
Diagnostic
expectViolation(const CompiledCircuit &compiled, Invariant invariant)
{
    const VerifyResult result = verify::verifyCompiledCircuit(compiled);
    EXPECT_FALSE(result.ok())
        << "mutation expected a " << verify::invariantName(invariant)
        << " violation, but the program verified clean";
    for (const Diagnostic &d : result.diagnostics)
        if (d.invariant == invariant)
            return d;
    ADD_FAILURE() << "no " << verify::invariantName(invariant)
                  << " diagnostic; got:\n"
                  << result.report();
    return {};
}

// --- zero false positives ------------------------------------------------

TEST(Verify, UnmutatedCircuitsVerifyClean)
{
    heat::testing::expectVerifiesClean(multCircuit(), "mult tree");
    heat::testing::expectVerifiesClean(rotateCircuit(), "rotations");
    heat::testing::expectVerifiesClean(spillCircuit(), "spilling dot");
    heat::testing::expectVerifiesClean(residentCircuit(),
                                       "resident PIR");
    heat::testing::expectVerifiesClean(nttSpillCircuit(),
                                       "NTT-domain spills");
    heat::testing::expectVerifiesClean(opByOpMultPlainCircuit(),
                                       "op-by-op MultPlain");
}

TEST(Verify, ReportNamesCleanPrograms)
{
    const VerifyResult result =
        verify::verifyCompiledCircuit(multCircuit());
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.records, 0u);
    EXPECT_NE(result.report().find("verified clean"),
              std::string::npos);
}

// --- mutation classes ----------------------------------------------------

// 1. Drop an input upload: the operand is consumed but never arrives.
TEST(Verify, CatchesDroppedUpload)
{
    CompiledCircuit c = multCircuit();
    auto &uploads = c.segments.front().uploads;
    const auto it = std::find_if(
        uploads.begin(), uploads.end(), [](const Transfer &t) {
            return t.source == Transfer::Source::kValue;
        });
    ASSERT_NE(it, uploads.end());
    uploads.erase(it);
    expectViolation(c, Invariant::kDefBeforeUse);
}

// 2. Forward transform of data still in coefficient order (an NTT
//    where the schedule needs an INTT).
TEST(Verify, CatchesTransformDomainSwap)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kIntt;
    });
    ASSERT_NE(in, nullptr);
    in->op = Opcode::kNtt; // input is NTT-domain, kNtt wants paired
    const Diagnostic d = expectViolation(c, Invariant::kLayout);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kNtt);
    EXPECT_NE(d.instr, verify::kNoIndex);
}

// 3. The inverse swap: an INTT pointed at paired (pre-NTT) data.
TEST(Verify, CatchesInverseTransformDomainSwap)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kNtt;
    });
    ASSERT_NE(in, nullptr);
    in->op = Opcode::kIntt;
    expectViolation(c, Invariant::kLayout);
}

// 4. Rearrange of NTT-domain data (layout typestate violation on the
//    permutation path).
TEST(Verify, CatchesRearrangeOfNttDomainData)
{
    CompiledCircuit c = multCircuit();
    // The tensor CoeffMuls read NTT-domain records; retargeting a
    //  later rearrange at one of them must trip the typestate.
    const Instruction *mul = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kCoeffMul;
    });
    ASSERT_NE(mul, nullptr);
    const hw::PolyId ntt_record = mul->src0;
    Instruction *re = findInstr(c, [&](const Instruction &i) {
        return i.op == Opcode::kRearrange && i.dst != ntt_record;
    });
    ASSERT_NE(re, nullptr);
    re->dst = ntt_record;
    expectViolation(c, Invariant::kLayout);
}

// 5. Shrink a WordDecomp digit-broadcast lane count (kq - l digit
//    shape through the Scale writeback).
TEST(Verify, CatchesShrunkDigitBroadcast)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kScale && !i.extra.empty();
    });
    ASSERT_NE(in, nullptr);
    in->extra.pop_back();
    const Diagnostic d = expectViolation(c, Invariant::kShape);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kScale);
}

// 6. Feed a never-written record into a multiplicative coeff op (the
//    zero slot is additive-only by contract).
TEST(Verify, CatchesZeroRecordInMultiplicativeOp)
{
    CompiledCircuit c = multCircuit();
    // The shared zero record is read by a CoeffSub/CoeffAdd whose
    // source batch-0 residues were never written.
    const Instruction *add = findInstr(c, [](const Instruction &i) {
        return (i.op == Opcode::kCoeffAdd || i.op == Opcode::kCoeffSub) &&
               i.src1 != hw::kNoPoly;
    });
    ASSERT_NE(add, nullptr);
    const hw::PolyId zero_like = add->src1;
    Instruction *mul = findInstr(c, [&](const Instruction &i) {
        return i.op == Opcode::kCoeffMul && i.src1 != zero_like;
    });
    ASSERT_NE(mul, nullptr);
    mul->src1 = zero_like;
    const VerifyResult result = verify::verifyCompiledCircuit(c);
    EXPECT_FALSE(result.ok()) << "retargeted CoeffMul must not verify";
}

// 7. Oversubscribe the memory file: extra allocations beyond BRAM
//    capacity.
TEST(Verify, CatchesSlotOversubscription)
{
    CompiledCircuit c = multCircuit();
    hw::PolyId id = 0;
    for (const SlotAction &a : c.slot_actions)
        if (a.kind == SlotAction::Kind::kAllocate)
            id = std::max(id, a.id);
    for (uint32_t k = 1; k <= 16; ++k) {
        SlotAction extra;
        extra.kind = SlotAction::Kind::kAllocate;
        extra.id = id + k;
        extra.base = hw::BaseTag::kFull;
        c.slot_actions.push_back(extra);
    }
    expectViolation(c, Invariant::kSlotCapacity);
}

// 8. Tampered peak accounting: the recorded high-water mark disagrees
//    with the log.
TEST(Verify, CatchesPeakSlotMismatch)
{
    CompiledCircuit c = multCircuit();
    c.peak_slots += 1;
    expectViolation(c, Invariant::kSlotCapacity);
}

// 9. Double release in the slot-action log.
TEST(Verify, CatchesDoubleRelease)
{
    CompiledCircuit c = multCircuit();
    const auto it = std::find_if(
        c.slot_actions.begin(), c.slot_actions.end(),
        [](const SlotAction &a) {
            return a.kind == SlotAction::Kind::kRelease;
        });
    ASSERT_NE(it, c.slot_actions.end());
    c.slot_actions.push_back(*it);
    expectViolation(c, Invariant::kSlotLog);
}

// 10. Out-of-sequence allocation id (a fresh memory-file replay would
//     assign a different id and the program would address the wrong
//     slots).
TEST(Verify, CatchesOutOfSequenceAllocation)
{
    CompiledCircuit c = multCircuit();
    SlotAction rogue;
    rogue.kind = SlotAction::Kind::kAllocate;
    rogue.id = 999;
    c.slot_actions.push_back(rogue);
    expectViolation(c, Invariant::kSlotLog);
}

// 11. Use after consume: a released record's slots are reclaimed while
//     an appended instruction still reads it.
TEST(Verify, CatchesUseAfterConsume)
{
    CompiledCircuit c = spillCircuit();
    ASSERT_GT(c.segments.size(), 1u);
    const auto it = std::find_if(
        c.slot_actions.begin(), c.slot_actions.end(),
        [](const SlotAction &a) {
            return a.kind == SlotAction::Kind::kRelease;
        });
    ASSERT_NE(it, c.slot_actions.end());
    const hw::PolyId released = it->id;
    // Keep reading the released record at the very end of the program:
    // every allocation that reused its slots in between now aliases.
    Instruction late;
    late.op = Opcode::kCoeffAdd;
    late.dst = released;
    late.src0 = released;
    late.src1 = released;
    c.segments.back().program.instrs.push_back(late);
    c.instr_nodes.back().push_back(compiler::kNoValue);
    const Diagnostic d =
        expectViolation(c, Invariant::kUseAfterConsume);
    EXPECT_NE(d.action, verify::kNoIndex);
}

// 11a-d. Segment slot-action ranges: the executor binds a segment's
//        allocations before it runs and returns its releases after its
//        downloads, so the ranges must tile the log and cover every
//        record's touches.
TEST(Verify, CatchesNonMonotoneSegmentRanges)
{
    CompiledCircuit c = spillCircuit();
    ASSERT_GT(c.segments.size(), 1u);
    ASSERT_GT(c.segments[0].action_end, c.resident_action_count);
    c.segments[1].action_end = c.segments[0].action_end - 1;
    const Diagnostic d = expectViolation(c, Invariant::kSlotLog);
    EXPECT_NE(d.message.find("not monotone"), std::string::npos)
        << d.str();
    EXPECT_EQ(d.segment, 1u);
}

TEST(Verify, CatchesSegmentRangesEndingBeforeTheLog)
{
    CompiledCircuit c = spillCircuit();
    ASSERT_GT(c.segments.size(), 1u);
    ASSERT_GT(c.segments.back().action_end,
              c.segments[c.segments.size() - 2].action_end);
    --c.segments.back().action_end;
    const Diagnostic d = expectViolation(c, Invariant::kSlotLog);
    EXPECT_NE(d.message.find("end before the log"), std::string::npos)
        << d.str();
}

TEST(Verify, CatchesRecordBoundAfterItsFirstTouch)
{
    // Segment 0's allocations slide into segment 1's range.
    CompiledCircuit c = spillCircuit();
    ASSERT_GT(c.segments.size(), 1u);
    c.segments[0].action_end = c.resident_action_count;
    const Diagnostic d = expectViolation(c, Invariant::kSlotLog);
    EXPECT_NE(d.message.find("bound after its first touch"),
              std::string::npos)
        << d.str();
    EXPECT_EQ(d.segment, 0u);
    EXPECT_NE(d.record, hw::kNoPoly);
}

TEST(Verify, CatchesRecordReturnedBeforeItsLastTouch)
{
    // Segment 1's releases slide into segment 0's range.
    CompiledCircuit c = spillCircuit();
    ASSERT_GT(c.segments.size(), 1u);
    c.segments[0].action_end = c.segments[1].action_end;
    const Diagnostic d = expectViolation(c, Invariant::kSlotLog);
    EXPECT_NE(d.message.find("returned before its last touch"),
              std::string::npos)
        << d.str();
    EXPECT_EQ(d.segment, 1u);
}

// 12. Undeclared Galois element on an automorphism.
TEST(Verify, CatchesUndeclaredGaloisElement)
{
    CompiledCircuit c = rotateCircuit();
    ASSERT_FALSE(c.galois_elements.empty());
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kAutomorph && i.aux != 1;
    });
    ASSERT_NE(in, nullptr);
    uint32_t rogue = 3;
    while (std::binary_search(c.galois_elements.begin(),
                              c.galois_elements.end(), rogue))
        rogue += 2;
    in->aux = rogue;
    const Diagnostic d = expectViolation(c, Invariant::kKey);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kAutomorph);
}

// 12b. Automorphism by an element that names no automorphism (even, or
//      odd but >= 2n), declared in galois_elements so it passes the
//      declaration check the way a tampered submission would: the
//      executing coprocessor panics on it, so the verifier must not
//      accept it. The key load that streams its key is caught too.
TEST(Verify, CatchesInvalidGaloisElement)
{
    const uint32_t two_n =
        static_cast<uint32_t>(2 * smallParams()->degree());
    for (uint32_t rogue : {2u, two_n + 1}) {
        CompiledCircuit c = rotateCircuit();
        const Instruction *first = findInstr(c, [](const Instruction &i) {
            return i.op == Opcode::kAutomorph && i.aux != 1;
        });
        ASSERT_NE(first, nullptr);
        const uint32_t declared = first->aux;
        for (compiler::Segment &seg : c.segments) {
            for (Instruction &in : seg.program.instrs) {
                if (in.op == Opcode::kAutomorph && in.aux == declared)
                    in.aux = rogue;
                if (in.op == Opcode::kKeyLoad &&
                    hw::keyLoadSelector(in.aux) == declared)
                    in.aux = hw::keyLoadAux(rogue, hw::keyLoadDigit(in.aux));
            }
        }
        std::replace(c.galois_elements.begin(), c.galois_elements.end(),
                     declared, rogue);
        std::sort(c.galois_elements.begin(), c.galois_elements.end());

        const VerifyResult result = verify::verifyCompiledCircuit(c);
        bool automorph = false, key_load = false, declaration = false;
        for (const Diagnostic &d : result.diagnostics) {
            if (d.invariant != Invariant::kKey)
                continue;
            automorph |= d.has_op && d.op == Opcode::kAutomorph;
            key_load |= d.has_op && d.op == Opcode::kKeyLoad;
            declaration |= !d.has_op;
        }
        EXPECT_TRUE(automorph) << "element " << rogue << "\n"
                               << result.report();
        EXPECT_TRUE(key_load) << "element " << rogue << "\n"
                              << result.report();
        EXPECT_TRUE(declaration) << "element " << rogue << "\n"
                                 << result.report();
    }
}

// 12c. galois_elements out of order or with a duplicate: the
//      declaration lookup binary-searches it.
TEST(Verify, CatchesUnsortedOrDuplicateGaloisElements)
{
    CompiledCircuit c = rotateCircuit();
    ASSERT_GE(c.galois_elements.size(), 2u);
    std::swap(c.galois_elements[0], c.galois_elements[1]);
    EXPECT_FALSE(expectViolation(c, Invariant::kKey).has_op);

    c = rotateCircuit();
    c.galois_elements.push_back(c.galois_elements.back());
    EXPECT_FALSE(expectViolation(c, Invariant::kKey).has_op);
}

// 13. Key load for a key set the circuit never registered: a relin
//     load in a circuit that never relinearizes.
TEST(Verify, CatchesRelinKeyLoadWithoutRelin)
{
    CompiledCircuit c = rotateCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kKeyLoad;
    });
    ASSERT_NE(in, nullptr);
    in->aux = hw::keyLoadAux(0, hw::keyLoadDigit(in->aux));
    expectViolation(c, Invariant::kKey);
}

// 14. Key digit index beyond the parameter set's digit count.
TEST(Verify, CatchesKeyDigitOutOfRange)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kKeyLoad;
    });
    ASSERT_NE(in, nullptr);
    in->aux = hw::keyLoadAux(hw::keyLoadSelector(in->aux), 200);
    expectViolation(c, Invariant::kKey);
}

// 15. Spill (release) of a pinned resident-prefix record.
TEST(Verify, CatchesPinnedRecordSpill)
{
    CompiledCircuit c = residentCircuit();
    ASSERT_GT(c.resident_action_count, 0u);
    SlotAction spill;
    spill.kind = SlotAction::Kind::kRelease;
    spill.id = 0; // first pinned slot
    c.slot_actions.push_back(spill);
    expectViolation(c, Invariant::kPinned);
}

// 16. Instruction overwrites a pinned operand (a warm rerun would see
//     corrupted resident data).
TEST(Verify, CatchesPinnedRecordWrite)
{
    CompiledCircuit c = residentCircuit();
    ASSERT_GT(c.resident_action_count, 0u);
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kCoeffMul && i.dst != 0;
    });
    ASSERT_NE(in, nullptr);
    in->dst = 0; // first pinned slot
    expectViolation(c, Invariant::kPinned);
}

// 17. Constant upload pointing outside the constant pool.
TEST(Verify, CatchesConstantIndexOutOfRange)
{
    CompiledCircuit c = residentCircuit();
    ASSERT_FALSE(c.constants.empty());
    Transfer *bad = nullptr;
    for (compiler::Segment &seg : c.segments)
        for (Transfer &t : seg.uploads)
            if (t.source == Transfer::Source::kConstant)
                bad = &t;
    ASSERT_NE(bad, nullptr);
    bad->index = static_cast<uint32_t>(c.constants.size()) + 5;
    expectViolation(c, Invariant::kShape);
}

// 18. Dead declared output: the download that returns it is dropped.
TEST(Verify, CatchesDroppedOutputDownload)
{
    CompiledCircuit c = multCircuit();
    auto &downloads = c.segments.back().downloads;
    ASSERT_FALSE(downloads.empty());
    downloads.pop_back();
    expectViolation(c, Invariant::kOutput);
}

// 19. Reordered dependent pair: swap an instruction past a consumer
//     of its destination, so the consumer runs on stale state. At
//     least one adjacent dependent pair must trip the verifier.
TEST(Verify, CatchesReorderedDependentPair)
{
    CompiledCircuit c = multCircuit();
    size_t dependent_pairs = 0;
    for (compiler::Segment &seg : c.segments) {
        auto &instrs = seg.program.instrs;
        for (size_t i = 0; i + 1 < instrs.size(); ++i) {
            const Instruction &def = instrs[i];
            const Instruction &use = instrs[i + 1];
            if (def.dst == hw::kNoPoly ||
                (use.src0 != def.dst && use.src1 != def.dst &&
                 use.dst != def.dst))
                continue;
            ++dependent_pairs;
            std::swap(instrs[i], instrs[i + 1]);
            const VerifyResult result =
                verify::verifyCompiledCircuit(c);
            if (!result.ok()) {
                SUCCEED();
                return;
            }
            std::swap(instrs[i], instrs[i + 1]); // restore, keep looking
        }
    }
    ASSERT_GT(dependent_pairs, 0u);
    FAIL() << "no dependent-pair swap was caught ("
           << dependent_pairs << " pairs tried)";
}

// 20. Upload whose staged record sits at the wrong level.
TEST(Verify, CatchesUploadLevelMismatch)
{
    CompiledCircuit c = multCircuit();
    Transfer *t = nullptr;
    for (compiler::Segment &seg : c.segments)
        for (Transfer &u : seg.uploads)
            if (u.source == Transfer::Source::kValue && t == nullptr)
                t = &u;
    ASSERT_NE(t, nullptr);
    ASSERT_LT(t->index, c.value_levels.size());
    c.value_levels[t->index] += 1;
    const VerifyResult result = verify::verifyCompiledCircuit(c);
    EXPECT_FALSE(result.ok()) << "level-shifted input must not verify";
}

// 21. Batch out of range: the coprocessor panics on any batch but 0
//     and 1 (hw::residuesOfBatch), so the verifier must reject it
//     before a worker runs the program.
TEST(Verify, CatchesBatchOutOfRange)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kRearrange && i.batch == 1;
    });
    ASSERT_NE(in, nullptr);
    in->batch = 2;
    const Diagnostic d = expectViolation(c, Invariant::kShape);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kRearrange);
}

// 22. A record named in a field the opcode's descriptor row marks
//     unused (the coprocessor ignores it): a miscompile, caught as a
//     shape violation rather than silently dropped.
TEST(Verify, CatchesOperandInUnusedField)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kNtt;
    });
    ASSERT_NE(in, nullptr);
    in->src0 = in->dst;
    const Diagnostic d = expectViolation(c, Invariant::kShape);
    EXPECT_EQ(d.op, Opcode::kNtt);
}

// 23. An output downloaded while NTT-domain: the inverse transform
//     before the output download is dropped, first with the download
//     still declaring natural layout, then declaring the NTT domain
//     (a host copy the caller would decrypt as coefficients).
TEST(Verify, CatchesOutputDownloadedInTheNttDomain)
{
    for (const bool declare_ntt : {false, true}) {
        CompiledCircuit c = nttSpillCircuit();
        compiler::Segment &last = c.segments.back();
        ASSERT_FALSE(last.downloads.empty());
        Transfer &out = last.downloads.back();
        auto &instrs = last.program.instrs;
        const auto intt = std::find_if(
            instrs.begin(), instrs.end(), [&](const Instruction &i) {
                return i.op == Opcode::kIntt && i.dst == out.slot;
            });
        ASSERT_NE(intt, instrs.end());
        // INTT then REARRANGE back to natural order.
        ASSERT_LT(intt + 1, instrs.end());
        ASSERT_EQ((intt + 1)->op, Opcode::kRearrange);
        instrs.erase(intt, intt + 2);
        if (declare_ntt)
            out.layout = hw::Layout::kNttDomain;
        expectViolation(c, Invariant::kLayout);
    }
}

// 24. A reload whose layout differs from its spill's: an NTT-domain
//     spill declared natural on its way back.
TEST(Verify, CatchesReloadInAnotherDomainThanItsSpill)
{
    CompiledCircuit c = nttSpillCircuit();
    Transfer *reload = findUpload(c, [](const Transfer &t) {
        return t.source == Transfer::Source::kValue &&
               t.layout == hw::Layout::kNttDomain;
    });
    ASSERT_NE(reload, nullptr) << "the circuit must reload NTT-domain";
    reload->layout = hw::Layout::kNatural;
    expectViolation(c, Invariant::kLayout);
    // No host polynomial travels in the NTT engine's paired order.
    reload->layout = hw::Layout::kPaired;
    expectViolation(c, Invariant::kLayout);
}

// 25. An NTT-form constant consumed as natural: its transfer declares
//     natural layout, or the pool holds it natural consistently with
//     that, so the MultPlain product reads mismatched operands.
TEST(Verify, CatchesNttFormConstantConsumedAsNatural)
{
    {
        CompiledCircuit c = residentCircuit();
        Transfer *t = findUpload(c, [](const Transfer &u) {
            return u.source == Transfer::Source::kConstant;
        });
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->layout, hw::Layout::kNttDomain);
        t->layout = hw::Layout::kNatural;
        expectViolation(c, Invariant::kLayout);
    }
    CompiledCircuit c = residentCircuit();
    Transfer *t = findUpload(c, [](const Transfer &u) {
        return u.source == Transfer::Source::kConstant;
    });
    ASSERT_NE(t, nullptr);
    c.constants[t->index].toCoeff(c.params->qContext());
    for (compiler::Segment &seg : c.segments)
        for (Transfer &u : seg.uploads)
            if (u.source == Transfer::Source::kConstant &&
                u.index == t->index)
                u.layout = hw::Layout::kNatural;
    const Diagnostic d = expectViolation(c, Invariant::kLayout);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kCoeffMul);
}

// 26. The reverse: a natural constant (op by op, transformed in the
//     program) uploaded NTT-form, declared so or not.
TEST(Verify, CatchesNaturalConstantConsumedAsNttForm)
{
    {
        CompiledCircuit c = opByOpMultPlainCircuit();
        Transfer *t = findUpload(c, [](const Transfer &u) {
            return u.source == Transfer::Source::kConstant;
        });
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->layout, hw::Layout::kNatural);
        t->layout = hw::Layout::kNttDomain;
        expectViolation(c, Invariant::kLayout);
    }
    CompiledCircuit c = opByOpMultPlainCircuit();
    Transfer *t = findUpload(c, [](const Transfer &u) {
        return u.source == Transfer::Source::kConstant;
    });
    ASSERT_NE(t, nullptr);
    c.constants[t->index].toNtt(c.params->qContext());
    t->layout = hw::Layout::kNttDomain;
    const Diagnostic d = expectViolation(c, Invariant::kLayout);
    EXPECT_TRUE(d.has_op);
    EXPECT_EQ(d.op, Opcode::kRearrange);
}

// --- diagnostics carry their coordinates ---------------------------------

TEST(Verify, DiagnosticRendersLocation)
{
    CompiledCircuit c = multCircuit();
    Instruction *in = findInstr(c, [](const Instruction &i) {
        return i.op == Opcode::kIntt;
    });
    ASSERT_NE(in, nullptr);
    in->op = Opcode::kNtt;
    const Diagnostic d = expectViolation(c, Invariant::kLayout);
    const std::string line = d.str();
    EXPECT_NE(line.find("[layout]"), std::string::npos) << line;
    EXPECT_NE(line.find("instr"), std::string::npos) << line;
    EXPECT_NE(line.find("NTT"), std::string::npos) << line;
    EXPECT_NE(line.find("expected"), std::string::npos) << line;
}

// --- wiring --------------------------------------------------------------

TEST(Verify, CompilerRejectModeThrowsOnViolation)
{
    // compileCircuit itself never produces a violating artifact, so
    // exercise the policy through the service admission path below and
    // the option default here: under this suite's environment
    // (verify_support.h) the default is kReject.
    CompilerOptions options;
    EXPECT_EQ(options.verify, compiler::VerifyCheck::kReject);
}

TEST(Verify, ServiceRejectsMutatedSubmission)
{
    auto params = smallParams();
    fv::KeyGenerator keygen(params, 7);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 0xFEED);

    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.hw = smallHw(*params);
    cfg.verify = compiler::VerifyCheck::kReject;
    service::ExecutionService svc(params, std::move(rlk), cfg);

    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(b.mult(x, y));
    CompilerOptions options;
    options.hw = cfg.hw;
    auto mutated = std::make_shared<compiler::CompiledCircuit>(
        compiler::compileCircuit(params, b.build(), options));
    mutated->peak_slots += 1; // the tamper
    std::vector<fv::Ciphertext> inputs;
    inputs.push_back(
        encryptor.encrypt(randomPlain(*params, 1)));
    inputs.push_back(
        encryptor.encrypt(randomPlain(*params, 2)));

    EXPECT_THROW(
        svc.submitCompiled(
            std::shared_ptr<const compiler::CompiledCircuit>(mutated),
            std::move(inputs)),
        service::AdmissionRejectedError);
    EXPECT_EQ(svc.stats().verify_rejected, 1u);
}

TEST(Verify, ServiceCachesVerificationVerdict)
{
    auto params = smallParams();
    fv::KeyGenerator keygen(params, 9);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 0xFACE);

    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.hw = smallHw(*params);
    cfg.verify = compiler::VerifyCheck::kReject;
    service::ExecutionService svc(params, std::move(rlk), cfg);

    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(b.add(x, y));
    CompilerOptions options;
    options.hw = cfg.hw;
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, b.build(), options));

    for (int r = 0; r < 3; ++r) {
        std::vector<fv::Ciphertext> inputs;
        inputs.push_back(encryptor.encrypt(randomPlain(*params, 3)));
        inputs.push_back(encryptor.encrypt(randomPlain(*params, 4)));
        svc.submitCompiled(compiled, std::move(inputs)).get();
    }
    svc.drain();
    // One verification pass despite three submissions of the object.
    EXPECT_EQ(svc.stats().circuits_verified, 1u);
    EXPECT_EQ(svc.stats().verify_rejected, 0u);
}

} // namespace
} // namespace heat
