#include "hw/program_builder.h"

#include "common/panic.h"
#include "fv/galois.h"

namespace heat::hw {

namespace {

Instruction
make(Opcode op, PolyId dst, PolyId src0 = kNoPoly, PolyId src1 = kNoPoly,
     uint8_t batch = 0)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src0 = src0;
    i.src1 = src1;
    i.batch = batch;
    return i;
}

} // namespace

OpEmitter::OpEmitter(const fv::FvParams &params, SlotAllocator &alloc,
                     Program &program)
    : params_(params), alloc_(alloc), p_(program)
{
}

PolyId
OpEmitter::zeroSlot()
{
    if (zero_ == kNoPoly) {
        // Always allocated at level 0: a full-size zero record is a
        // valid zero at every level (coeff ops read the live prefix),
        // so one shared constant serves the whole program regardless of
        // how deep the mod-switched regions go.
        const size_t level = alloc_.level();
        alloc_.setLevel(0);
        zero_ = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                "zero constant");
        alloc_.setLevel(level);
    }
    return zero_;
}

PolyId
OpEmitter::copyPoly(PolyId src)
{
    const PolyId z = zeroSlot();
    const PolyId c =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "operand copy");
    p_.instrs.push_back(make(Opcode::kCoeffAdd, c, src, z, 0));
    return c;
}

void
OpEmitter::emitForward(PolyId id, bool full)
{
    const int batches = full ? 2 : 1;
    for (int b = 0; b < batches; ++b) {
        p_.instrs.push_back(make(Opcode::kRearrange, id, kNoPoly, kNoPoly,
                                 static_cast<uint8_t>(b)));
        p_.instrs.push_back(make(Opcode::kNtt, id, kNoPoly, kNoPoly,
                                 static_cast<uint8_t>(b)));
    }
}

void
OpEmitter::emitInverse(PolyId id, bool full)
{
    const int batches = full ? 2 : 1;
    for (int b = 0; b < batches; ++b) {
        p_.instrs.push_back(make(Opcode::kIntt, id, kNoPoly, kNoPoly,
                                 static_cast<uint8_t>(b)));
        p_.instrs.push_back(make(Opcode::kRearrange, id, kNoPoly, kNoPoly,
                                 static_cast<uint8_t>(b)));
    }
}

std::array<PolyId, 2>
OpEmitter::emitAdd(std::array<PolyId, 2> a, std::array<PolyId, 2> b,
                   bool consume_a)
{
    std::array<PolyId, 2> out = a;
    for (int i = 0; i < 2; ++i) {
        if (!consume_a)
            out[i] = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                     "FV.Add result");
        p_.instrs.push_back(
            make(Opcode::kCoeffAdd, out[i], a[i], b[i], 0));
    }
    return out;
}

std::array<PolyId, 2>
OpEmitter::emitSub(std::array<PolyId, 2> a, std::array<PolyId, 2> b,
                   bool consume_a)
{
    std::array<PolyId, 2> out = a;
    for (int i = 0; i < 2; ++i) {
        if (!consume_a)
            out[i] = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                     "FV.Sub result");
        p_.instrs.push_back(
            make(Opcode::kCoeffSub, out[i], a[i], b[i], 0));
    }
    return out;
}

std::array<PolyId, 2>
OpEmitter::emitNegate(std::array<PolyId, 2> a, bool consume)
{
    // The coefficient unit has no dedicated negation: subtract from the
    // zero register instead (bit-exact with fv::Evaluator's negate,
    // since (0 - x) mod q and -x mod q share the representative).
    const PolyId z = zeroSlot();
    std::array<PolyId, 2> out = a;
    for (int i = 0; i < 2; ++i) {
        if (!consume)
            out[i] = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                     "Negate result");
        p_.instrs.push_back(make(Opcode::kCoeffSub, out[i], z, a[i], 0));
    }
    return out;
}

std::array<PolyId, 2>
OpEmitter::emitAddPlain(std::array<PolyId, 2> a, PolyId plain,
                        bool consume)
{
    // Only c0 changes: ct + Delta*m touches the first polynomial.
    if (consume) {
        p_.instrs.push_back(make(Opcode::kCoeffAdd, a[0], a[0], plain, 0));
        return a;
    }
    const PolyId c0 = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                      "AddPlain result");
    p_.instrs.push_back(make(Opcode::kCoeffAdd, c0, a[0], plain, 0));
    const PolyId c1 = copyPoly(a[1]);
    return {c0, c1};
}

std::array<PolyId, 2>
OpEmitter::emitMultPlain(std::array<PolyId, 2> a, PolyId plain,
                         bool consume)
{
    // NTT-domain pointwise products over the q base, mirroring
    // fv::Evaluator::multiplyPlain. The plain slot is transformed in
    // place; the ciphertext polynomials round-trip through the NTT.
    emitForward(plain, /*full=*/false);
    std::array<PolyId, 2> out = a;
    for (int i = 0; i < 2; ++i) {
        if (!consume)
            out[i] = copyPoly(a[i]);
        emitForward(out[i], /*full=*/false);
        p_.instrs.push_back(
            make(Opcode::kCoeffMul, out[i], out[i], plain, 0));
        emitInverse(out[i], /*full=*/false);
    }
    return out;
}

OpEmitter::MultResult
OpEmitter::emitMult(std::array<PolyId, 2> a, std::array<PolyId, 2> b,
                    bool consume_a, bool consume_b, bool want_digits,
                    bool want_c2)
{
    panicIf(!want_digits && !want_c2,
            "emitMult must produce the digits, c2, or both");
    if (!consume_a)
        a = {copyPoly(a[0]), copyPoly(a[1])};
    if (!consume_b)
        b = {copyPoly(b[0]), copyPoly(b[1])};

    const PolyId a0 = a[0], a1 = a[1], b0 = b[0], b1 = b[1];

    // --- Step 1: Lift q->Q of the four input polynomials --------------
    for (PolyId x : {a0, a1, b0, b1}) {
        p_.instrs.push_back(make(Opcode::kLift, x));
        alloc_.extendToFull(x, "Mult lift"); // build-time slot accounting
    }

    // --- Step 2: forward transforms ------------------------------------
    for (PolyId x : {a0, a1, b0, b1})
        emitForward(x, true);

    // --- Step 3: tensor products in the NTT domain ----------------------
    PolyId t1 = alloc_.allocate(BaseTag::kFull, Layout::kNttDomain,
                                "Mult tensor temporary");
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, t1, a0, b1, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, a0, a0, b0, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, b0, a1, b0, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffAdd, b0, b0, t1, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, a1, a1, b1, batch));
    alloc_.release(t1);
    alloc_.release(b1);

    // --- Step 4: inverse transforms -------------------------------------
    for (PolyId x : {a0, b0, a1})
        emitInverse(x, true);

    // --- Step 5: Scale Q->q ----------------------------------------------
    return finishTensor(a0, b0, a1, want_digits, want_c2);
}

OpEmitter::MultResult
OpEmitter::emitSquare(std::array<PolyId, 2> a, bool consume,
                      bool want_digits, bool want_c2)
{
    panicIf(!want_digits && !want_c2,
            "emitSquare must produce the digits, c2, or both");
    if (!consume)
        a = {copyPoly(a[0]), copyPoly(a[1])};
    const PolyId a0 = a[0], a1 = a[1];

    // --- Step 1: Lift q->Q of the two input polynomials ----------------
    for (PolyId x : {a0, a1}) {
        p_.instrs.push_back(make(Opcode::kLift, x));
        alloc_.extendToFull(x, "Square lift");
    }

    // --- Step 2: forward transforms ------------------------------------
    for (PolyId x : {a0, a1})
        emitForward(x, true);

    // --- Step 3: tensor: (a0 + a1 y)^2 ----------------------------------
    // The cross term a0*a1 + a1*a0 is the same product twice, so one
    // multiplication plus a doubling addition reproduces the general
    // tensor bit-for-bit (modular products are commutative).
    PolyId t1 = alloc_.allocate(BaseTag::kFull, Layout::kNttDomain,
                                "Square tensor temporary");
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, t1, a0, a1, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffAdd, t1, t1, t1, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, a0, a0, a0, batch));
    for (uint8_t batch = 0; batch < 2; ++batch)
        p_.instrs.push_back(make(Opcode::kCoeffMul, a1, a1, a1, batch));

    // --- Step 4: inverse transforms -------------------------------------
    for (PolyId x : {a0, t1, a1})
        emitInverse(x, true);

    // --- Step 5: Scale Q->q ----------------------------------------------
    return finishTensor(a0, t1, a1, want_digits, want_c2);
}

OpEmitter::MultResult
OpEmitter::finishTensor(PolyId s0, PolyId s1, PolyId s2, bool want_digits,
                        bool want_c2)
{
    const size_t digits = params_.rnsDigitCount(alloc_.level());
    MultResult result;

    PolyId c0 =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "Mult c0");
    p_.instrs.push_back(make(Opcode::kScale, c0, s0));
    alloc_.release(s0);
    PolyId c1 =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "Mult c1");
    p_.instrs.push_back(make(Opcode::kScale, c1, s1));
    alloc_.release(s1);

    // Scale of c~2 broadcasts the WordDecomp digits during writeback.
    PolyId c2 =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "Mult c2");
    if (want_digits) {
        for (size_t i = 0; i < digits; ++i)
            result.digits.push_back(alloc_.allocate(
                BaseTag::kQ, Layout::kNatural, "WordDecomp digit"));
    }
    {
        Instruction scale = make(Opcode::kScale, c2, s2);
        scale.extra = result.digits;
        p_.instrs.push_back(scale);
    }
    alloc_.release(s2);
    if (!want_c2) {
        alloc_.release(c2); // only the digits are consumed downstream
        c2 = kNoPoly;
    }

    result.ct = {c0, c1, c2};
    return result;
}

std::array<PolyId, 2>
OpEmitter::accumulateKeySwitch(const std::vector<PolyId> &digits,
                               uint32_t selector)
{
    PolyId acc0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId acc1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId key0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId key1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId tmp = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                 "Key-switch temporary");
    for (size_t i = 0; i < digits.size(); ++i) {
        Instruction load = make(Opcode::kKeyLoad, kNoPoly);
        load.aux = keyLoadAux(selector, static_cast<uint32_t>(i));
        load.extra = {key0, key1};
        p_.instrs.push_back(load);

        emitForward(digits[i], false);
        if (i == 0) {
            // The first digit's products initialize the accumulators
            // (also resetting them when the program is re-executed).
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc0, digits[i], key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc1, digits[i], key1, 0));
        } else {
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, tmp, digits[i], key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc0, acc0, tmp, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, tmp, digits[i], key1, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc1, acc1, tmp, 0));
        }
        alloc_.release(digits[i]);
    }
    alloc_.release(key0);
    alloc_.release(key1);
    alloc_.release(tmp);

    emitInverse(acc0, false);
    emitInverse(acc1, false);
    return {acc0, acc1};
}

std::array<PolyId, 2>
OpEmitter::emitRelin(PolyId c0, PolyId c1,
                     const std::vector<PolyId> &digits, bool consume_c01)
{
    if (!consume_c01) {
        c0 = copyPoly(c0);
        c1 = copyPoly(c1);
    }
    const auto [acc0, acc1] = accumulateKeySwitch(digits, 0);
    p_.instrs.push_back(make(Opcode::kCoeffAdd, c0, c0, acc0, 0));
    p_.instrs.push_back(make(Opcode::kCoeffAdd, c1, c1, acc1, 0));
    alloc_.release(acc0);
    alloc_.release(acc1);
    return {c0, c1};
}

std::array<PolyId, 2>
OpEmitter::emitModSwitch(std::array<PolyId, 2> a, bool consume)
{
    const size_t from = alloc_.level();
    panicIf(from >= params_.maxLevel(),
            "cannot mod-switch past the last level");
    // Results live one level deeper; the allocator stays there so the
    // rest of the region emits against the shrunken basis.
    alloc_.setLevel(from + 1);
    std::array<PolyId, 2> out;
    for (int i = 0; i < 2; ++i) {
        out[i] = alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                 "ModSwitch result");
        p_.instrs.push_back(make(Opcode::kModSwitch, out[i], a[i]));
    }
    if (consume) {
        alloc_.release(a[0]);
        alloc_.release(a[1]);
    }
    return out;
}

std::array<PolyId, 2>
OpEmitter::emitApplyGalois(std::array<PolyId, 2> a,
                           uint32_t galois_element)
{
    // tau_1 is the identity: no key-switch, no key required — just a
    // fresh copy, matching fv::Evaluator::applyGalois bit for bit.
    if (galois_element == 1)
        return {copyPoly(a[0]), copyPoly(a[1])};

    const size_t digit_count = params_.rnsDigitCount(alloc_.level());

    // tau_g(c1) is never materialized: each permutation pass streams
    // straight into one lane of the WordDecomp broadcast (the Scale
    // writeback's reduce lanes), and the digit dies after its MAC —
    // one resident digit record instead of kq keeps the key-switch
    // inside the memory-file budget even at the paper parameter set.
    PolyId acc0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId acc1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId key0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId key1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId tmp = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                 "Key-switch temporary");
    for (size_t i = 0; i < digit_count; ++i) {
        const PolyId digit = alloc_.allocate(
            BaseTag::kQ, Layout::kNatural, "Galois WordDecomp digit");
        Instruction decompose =
            make(Opcode::kAutomorph, kNoPoly, a[1]);
        decompose.aux = galois_element;
        decompose.extra.assign(digit_count, kNoPoly);
        decompose.extra[i] = digit;
        p_.instrs.push_back(decompose);

        Instruction load = make(Opcode::kKeyLoad, kNoPoly);
        load.aux =
            keyLoadAux(galois_element, static_cast<uint32_t>(i));
        load.extra = {key0, key1};
        p_.instrs.push_back(load);

        emitForward(digit, false);
        if (i == 0) {
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc0, digit, key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc1, digit, key1, 0));
        } else {
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, tmp, digit, key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc0, acc0, tmp, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, tmp, digit, key1, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc1, acc1, tmp, 0));
        }
        alloc_.release(digit);
    }
    alloc_.release(key0);
    alloc_.release(key1);
    alloc_.release(tmp);

    emitInverse(acc0, false);
    emitInverse(acc1, false);

    // c0' = tau_g(c0) + sum_i D_i(tau_g(c1)) key0_i, c1' = the key1 sum.
    PolyId p0 =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "Galois c0");
    Instruction perm0 = make(Opcode::kAutomorph, p0, a[0]);
    perm0.aux = galois_element;
    p_.instrs.push_back(perm0);
    p_.instrs.push_back(make(Opcode::kCoeffAdd, p0, p0, acc0, 0));
    alloc_.release(acc0);
    return {p0, acc1};
}

std::vector<PolyId>
OpEmitter::emitDecomposeNtt(PolyId c1)
{
    const size_t digit_count = params_.rnsDigitCount(alloc_.level());
    std::vector<PolyId> digits;
    digits.reserve(digit_count);
    for (size_t i = 0; i < digit_count; ++i)
        digits.push_back(alloc_.allocate(BaseTag::kQ, Layout::kNatural,
                                         "Hoisted WordDecomp digit"));
    // Identity automorphism: a pure decompose pass through the
    // writeback broadcast.
    Instruction decompose = make(Opcode::kAutomorph, kNoPoly, c1);
    decompose.aux = 1;
    decompose.extra = digits;
    p_.instrs.push_back(decompose);
    for (PolyId d : digits)
        emitForward(d, false);
    return digits;
}

std::array<PolyId, 2>
OpEmitter::emitHoistedGalois(std::array<PolyId, 2> a,
                             const std::vector<PolyId> &digits_ntt,
                             uint32_t galois_element)
{
    // Identity rotations never join the key-switch (fv::Evaluator's
    // hoisted path returns its input unchanged for element 1, so the
    // bit-exact lowering is a plain copy that ignores the digits).
    if (galois_element == 1)
        return {copyPoly(a[0]), copyPoly(a[1])};

    // The kq shared digit records dominate the slot budget, so the
    // tail runs lean: no separate MAC temporary (the permutation
    // buffer is overwritten by the product and re-permuted for the
    // second key half — an extra cheap automorph instead of six more
    // resident slots), and tau_g(c0) only allocates after the key
    // buffers die.
    PolyId acc0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId acc1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch accumulator");
    PolyId key0 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId key1 = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Key-switch key buffer");
    PolyId perm = alloc_.allocate(BaseTag::kQ, Layout::kNttDomain,
                                  "Hoisted digit permutation");
    const auto permute = [&](PolyId digit) {
        // tau_g of a shared digit in the NTT domain: a data
        // permutation of the evaluation points, no transform needed —
        // the whole point of hoisting.
        Instruction dperm = make(Opcode::kAutomorph, perm, digit);
        dperm.aux = galois_element;
        p_.instrs.push_back(dperm);
    };
    for (size_t i = 0; i < digits_ntt.size(); ++i) {
        Instruction load = make(Opcode::kKeyLoad, kNoPoly);
        load.aux =
            keyLoadAux(galois_element, static_cast<uint32_t>(i));
        load.extra = {key0, key1};
        p_.instrs.push_back(load);

        permute(digits_ntt[i]);
        if (i == 0) {
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc0, perm, key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, acc1, perm, key1, 0));
        } else {
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, perm, perm, key0, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc0, acc0, perm, 0));
            permute(digits_ntt[i]);
            p_.instrs.push_back(
                make(Opcode::kCoeffMul, perm, perm, key1, 0));
            p_.instrs.push_back(
                make(Opcode::kCoeffAdd, acc1, acc1, perm, 0));
        }
    }
    alloc_.release(key0);
    alloc_.release(key1);
    alloc_.release(perm);

    emitInverse(acc0, false);
    emitInverse(acc1, false);
    PolyId p0 =
        alloc_.allocate(BaseTag::kQ, Layout::kNatural, "Galois c0");
    Instruction perm0 = make(Opcode::kAutomorph, p0, a[0]);
    perm0.aux = galois_element;
    p_.instrs.push_back(perm0);
    p_.instrs.push_back(make(Opcode::kCoeffAdd, p0, p0, acc0, 0));
    alloc_.release(acc0);
    return {p0, acc1};
}

std::array<PolyId, 2>
OpEmitter::emitApplyGaloisHoistedSingle(std::array<PolyId, 2> a,
                                        uint32_t galois_element)
{
    if (galois_element == 1)
        return {copyPoly(a[0]), copyPoly(a[1])}; // identity, no digits
    std::vector<PolyId> digits = emitDecomposeNtt(a[1]);
    const std::array<PolyId, 2> out =
        emitHoistedGalois(a, digits, galois_element);
    for (PolyId d : digits)
        alloc_.release(d);
    return out;
}

std::array<PolyId, 2>
OpEmitter::emitRotateSum(std::array<PolyId, 2> a)
{
    const size_t n = params_.degree();
    // Mirrors fv::Evaluator::sumAllSlots: accumulate over the row
    // orbit with power-of-two rotations, then fold in the conjugate
    // column. Every rotation uses the unhoisted schedule — each one
    // rotates the freshly-updated accumulator, so there is nothing to
    // hoist.
    std::array<PolyId, 2> acc = {copyPoly(a[0]), copyPoly(a[1])};
    const auto fold = [&](uint32_t g) {
        const std::array<PolyId, 2> rotated = emitApplyGalois(acc, g);
        emitAdd(acc, rotated, /*consume_a=*/true);
        alloc_.release(rotated[0]);
        alloc_.release(rotated[1]);
    };
    for (size_t step = 1; step <= n / 4; step *= 2)
        fold(fv::galoisElementForStep(static_cast<int>(step), n));
    fold(static_cast<uint32_t>(2 * n - 1));
    return acc;
}

} // namespace heat::hw
