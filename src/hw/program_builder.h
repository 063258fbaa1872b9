/**
 * @file
 * Builds the instruction sequences for the high-level homomorphic
 * operations (Fig. 2).
 *
 * The core is a set of composable per-op emitters (OpEmitter): each
 * appends one FV operation's instruction sequence to a program,
 * allocating operand/temporary/result slots from a CountingAllocator —
 * pure accounting at build time, whose action log addresses a
 * coprocessor's memory file. The circuit compiler (compiler/compiler.h) is
 * their one caller: every program a coprocessor runs, a single
 * operation and the op-by-op baseline included, comes out of it.
 *
 * The Mult schedule reproduces the paper's instruction mix (Table II):
 * 4 Lift, 14 NTT, 8 Inverse-NTT, 20 coefficient-wise multiplications,
 * 22 memory rearranges, 3 Scale and 6 relinearization-key DMA loads
 * (we issue 14 coefficient-wise additions where the paper reports 26;
 * EXPERIMENTS.md discusses the delta). Slot allocation is performed at
 * build time and must fit the 84-slot memory file — the peak is 78
 * slots, which is the on-chip-memory pressure Table IV reflects.
 */

#ifndef HEAT_HW_PROGRAM_BUILDER_H
#define HEAT_HW_PROGRAM_BUILDER_H

#include <array>
#include <vector>

#include "fv/params.h"
#include "hw/isa.h"
#include "hw/memory_file.h"

namespace heat::hw {

/** Domain of each polynomial of a 2-element ciphertext: kNatural
 *  (coefficient order) or kNttDomain (evaluation order). */
using Domains = std::array<Layout, 2>;

inline constexpr Domains kNaturalPair = {Layout::kNatural,
                                         Layout::kNatural};

/**
 * Composable per-op program emitters.
 *
 * Every emitter appends one high-level FV operation to @p program and
 * returns the result slots. Operand liveness belongs to the caller:
 * with consume=false an operation leaves its operand slots untouched
 * (copying them into scratch when the schedule would destroy them);
 * with consume=true the operation may overwrite operand slots, alias
 * them into its result, or release them mid-schedule (Mult/Square
 * release all consumed operand slots; the element-wise ops alias them).
 *
 * Data conventions: ciphertext polynomials live over the q base, each
 * in one of two domains — natural (coefficient) layout or the NTT
 * domain — and the caller says which (Domains). The linear emitters
 * take either: Add, Sub and Negate work in any domain (both operands
 * of a polynomial in the same one), MultPlain skips the forward
 * transform of an NTT-domain operand, and a rotation reads c0 in
 * either domain. Each of MultPlain and the rotations can leave its
 * result in the NTT domain (ntt_out) instead of transforming it back,
 * because the arithmetic is exact mod each q_i: the inverse NTT of a
 * sum of NTT-domain products is the sum of the inverse-transformed
 * products, so an INTT deferred to the next consumer that needs
 * natural layout changes no bit. Lift (Mult/Square), ModSwitch,
 * RotateSum, AddPlain's c0 and a rotation's c1 decompose read natural
 * layout only, and every emitter's defaults (all natural, ntt_out
 * false) give the all-natural schedule in which any output feeds any
 * input. Converting between domains is the caller's: toNatural().
 */
class OpEmitter
{
  public:
    OpEmitter(const fv::FvParams &params, CountingAllocator &alloc,
              Program &program);

    /** FV.Add: c_i = a_i + b_i. consume_a reuses a's slots in place. */
    std::array<PolyId, 2> emitAdd(std::array<PolyId, 2> a,
                                  std::array<PolyId, 2> b,
                                  bool consume_a = false);

    /** FV.Sub: c_i = a_i - b_i. */
    std::array<PolyId, 2> emitSub(std::array<PolyId, 2> a,
                                  std::array<PolyId, 2> b,
                                  bool consume_a = false);

    /** Negation: c_i = -a_i (subtraction from the zero register of
     *  a_i's domain); the result keeps @p domains. */
    std::array<PolyId, 2> emitNegate(std::array<PolyId, 2> a,
                                     bool consume = false,
                                     Domains domains = kNaturalPair);

    /**
     * Plaintext addition: c_0 = a_0 + plain, c_1 = a_1, where @p plain
     * holds the host-encoded Delta*m polynomial
     * (fv::Evaluator::scaledPlain) and a_0 is natural. a_1 keeps its
     * domain @p c1_domain. The plain slot is left resident.
     */
    std::array<PolyId, 2> emitAddPlain(std::array<PolyId, 2> a,
                                       PolyId plain, bool consume = false,
                                       Layout c1_domain = Layout::kNatural);

    /**
     * Plaintext multiplication: both ciphertext polynomials are
     * NTT-multiplied by @p plain, the host-encoded unscaled embedding
     * (fv::Evaluator::embeddedPlain). With @p plain_ntt the constant
     * was uploaded already transformed; otherwise it arrives in natural
     * layout and is transformed in place (single-use). Either way it is
     * left resident; the caller releases it. Operands in the NTT domain
     * (@p domains) skip their forward transform; with @p ntt_out the
     * products stay in the NTT domain, otherwise they are transformed
     * back (fv::Evaluator::multiplyPlain's schedule).
     */
    std::array<PolyId, 2> emitMultPlain(std::array<PolyId, 2> a,
                                        PolyId plain,
                                        bool consume = false,
                                        Domains domains = kNaturalPair,
                                        bool plain_ntt = false,
                                        bool ntt_out = false);

    /** Result of a tensor-and-scale (Mult/Square without relin). */
    struct MultResult
    {
        /** c0, c1 always; c2 only when want_c2 (else kNoPoly). */
        std::array<PolyId, 3> ct{kNoPoly, kNoPoly, kNoPoly};
        /** WordDecomp digit slots (want_digits; broadcast for free
         *  during the c~2 Scale writeback). */
        std::vector<PolyId> digits;
    };

    /**
     * FV.Mult tensor + Scale (Fig. 2 without the relinearization tail).
     *
     * @param want_digits materialize the WordDecomp digit polynomials
     *        of c~2 (feeds emitRelin).
     * @param want_c2 keep the scaled c~2 polynomial resident (a
     *        3-element ciphertext result); otherwise its slots are
     *        released after the digit broadcast.
     */
    MultResult emitMult(std::array<PolyId, 2> a, std::array<PolyId, 2> b,
                        bool consume_a, bool consume_b, bool want_digits,
                        bool want_c2);

    /** FV.Square: one ciphertext tensored with itself (2 Lifts). */
    MultResult emitSquare(std::array<PolyId, 2> a, bool consume,
                          bool want_digits, bool want_c2);

    /**
     * Relinearization tail: accumulate digit x key products and fold
     * them into c0/c1. Consumes (releases) the digit slots. With
     * consume_c01 the accumulation happens in place; otherwise c0/c1
     * are copied first and left untouched.
     */
    std::array<PolyId, 2> emitRelin(PolyId c0, PolyId c1,
                                    const std::vector<PolyId> &digits,
                                    bool consume_c01 = true);

    /**
     * Modulus switch: both ciphertext polynomials divide-and-round
     * from the allocator's current level to the next one on the Scale
     * unit's datapath. Results (and the allocator, which stays at the
     * deeper level for the rest of the region) sit at level + 1; with
     * consume the input slots are released. Bit-exact with
     * fv::Evaluator::modSwitch.
     */
    std::array<PolyId, 2> emitModSwitch(std::array<PolyId, 2> a,
                                        bool consume = true);

    // --- Galois automorphisms (rotations) -------------------------------
    //
    // Every rotation reads c1 in natural layout (its WordDecomp digits
    // stream coefficient order) and c0 in @p c0_domain. With ntt_out
    // the result is (tau_g(c0) + acc0, acc1) in the NTT domain: the
    // key-switch accumulators skip their inverse transforms and
    // tau_g(c0) is the NTT-domain index-mapped read of c0 (a natural
    // c0 is permuted, then forward-transformed once). Without it both
    // polynomials come back natural.

    /**
     * Apply tau_g to a 2-element ciphertext and key-switch back to the
     * original secret with the Galois keys for @p galois_element
     * (which the executing coprocessor must hold). The input slots are
     * left untouched; the result is fresh. Same bits as
     * fv::Evaluator::applyGalois: kAutomorph passes over c1 broadcast
     * the WordDecomp digits of tau_g(c1) during writeback (the Scale
     * unit's reduce lanes, one digit lane per pass so only one digit
     * record is ever resident), and the key-switch tail reuses the
     * relinearization machinery with per-element key loads. Element 1
     * (the identity automorphism) lowers to a fresh copy — no
     * key-switch instructions and no key requirement; the hoisted
     * variants below behave the same way.
     */
    std::array<PolyId, 2> emitApplyGalois(
        std::array<PolyId, 2> a, uint32_t galois_element,
        Layout c0_domain = Layout::kNatural, bool ntt_out = false);

    /**
     * Hoisting front half: WordDecomp digits of @p c1 (identity
     * automorphism with digit broadcast), each forward-transformed to
     * the NTT domain. The digits stay resident so any number of
     * emitHoistedGalois calls can share them; the caller releases
     * them after the last rotation.
     */
    std::vector<PolyId> emitDecomposeNtt(PolyId c1);

    /**
     * Hoisting back half: one rotation over shared NTT-domain digits —
     * per digit an NTT-domain permutation (kAutomorph) plus the key
     * MAC, so the decompose and the digits' forward NTTs are paid once
     * per ciphertext instead of once per rotation (HEAX/Halevi-Shoup
     * hoisting). Reads only c0 = @p a[0] (a[1] may be kNoPoly): a hoist
     * group may pass an NTT-domain copy of c0 made once
     * (emitNttCopy) in place of the ciphertext. Digits are left
     * resident. Same bits as fv::Evaluator::applyGaloisHoisted.
     */
    std::array<PolyId, 2> emitHoistedGalois(
        std::array<PolyId, 2> a, const std::vector<PolyId> &digits_ntt,
        uint32_t galois_element, Layout c0_domain = Layout::kNatural,
        bool ntt_out = false);

    /**
     * Hoisted-numerics rotation without sharing: decompose, rotate
     * once, release the digits. The unfused/per-op lowering of a
     * rotation that belongs to a hoist group — same bits as the shared
     * schedule, none of the savings.
     */
    std::array<PolyId, 2> emitApplyGaloisHoistedSingle(
        std::array<PolyId, 2> a, uint32_t galois_element,
        Layout c0_domain = Layout::kNatural, bool ntt_out = false);

    /** Fresh NTT-domain copy of natural-layout @p src (one forward
     *  transform): a hoist group's shared c0. */
    PolyId emitNttCopy(PolyId src);

    /** Transform NTT-domain @p id back to natural layout in place. */
    void toNatural(PolyId id) { emitInverse(id, false); }

    /** Transform natural-layout @p id to the NTT domain in place. */
    void toNttDomain(PolyId id) { emitForward(id, false); }

    /**
     * Rotate-and-add sum across all batching slots, following
     * fv::Evaluator::sumAllSlots instruction for instruction: log-many
     * power-of-two row rotations, then the column swap. The executing
     * coprocessor needs the Galois keys for elements 3^(2^k) and 2n-1
     * (fv::KeyGenerator::generateRotationKeys provides them). Input
     * slots are left untouched.
     */
    std::array<PolyId, 2> emitRotateSum(std::array<PolyId, 2> a);

    /** Fresh q copy of @p src in @p domain (CoeffAdd with that
     *  domain's zero). */
    PolyId copyPoly(PolyId src, Layout domain = Layout::kNatural);

    /** The shared all-zero q polynomials, one per domain (kNoPoly
     *  until first used). */
    struct ZeroSlots
    {
        PolyId natural = kNoPoly;
        PolyId ntt = kNoPoly;
    };

    /**
     * The shared all-zero q polynomial of @p domain (allocated on first
     * use; freshly allocated records are zeroed, the NTT of zero is
     * zero, and the slot is only ever read).
     */
    PolyId zeroSlot(Layout domain = Layout::kNatural);

    /** @return the cached zero slots. */
    ZeroSlots zeroSlots() const { return zero_; }

    /** Pre-seed the zero slot cache (compiler snapshot/rollback). */
    void setZeroSlots(ZeroSlots zero) { zero_ = zero; }

  private:
    /** Emit REARRANGE+NTT (or INTT+REARRANGE) for both batches. */
    void emitForward(PolyId id, bool full);
    void emitInverse(PolyId id, bool full);

    /**
     * Key-switch inner product: forward-transform each natural-layout
     * digit, accumulate digit x key products for key set @p selector
     * (0 = relin; see keyLoadAux), inverse-transform the accumulators
     * back to natural layout. Releases the digit slots.
     */
    std::array<PolyId, 2> accumulateKeySwitch(
        const std::vector<PolyId> &digits, uint32_t selector);

    /** Scale the three tensor polynomials Q->q (Fig. 2 step 5). */
    MultResult finishTensor(PolyId s0, PolyId s1, PolyId s2,
                            bool want_digits, bool want_c2);

    /**
     * A rotation's tail once the key-switch accumulators (NTT domain)
     * are done: c0' = tau_g(@p c0) + acc0, c1' = acc1, left in the NTT
     * domain with @p ntt_out, else both transformed back. Releases
     * acc0.
     */
    std::array<PolyId, 2> finishGalois(PolyId c0, Layout c0_domain,
                                       PolyId acc0, PolyId acc1,
                                       uint32_t galois_element,
                                       bool ntt_out);

    const fv::FvParams &params_;
    CountingAllocator &alloc_;
    Program &p_;
    ZeroSlots zero_;
};

} // namespace heat::hw

#endif // HEAT_HW_PROGRAM_BUILDER_H
