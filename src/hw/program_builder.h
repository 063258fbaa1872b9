/**
 * @file
 * Builds the instruction sequences for the high-level homomorphic
 * operations (Fig. 2) against a coprocessor's memory file.
 *
 * The core is a set of composable per-op emitters (OpEmitter): each
 * appends one FV operation's instruction sequence to a program,
 * allocating operand/temporary/result slots through the SlotAllocator
 * interface — a CountingAllocator when the circuit compiler schedules a
 * whole fused program at build time, or a real MemoryFile when the
 * op-by-op reference executes one node in place. Every program a
 * serving worker runs, single operations included, comes out of the
 * compiler (compiler/compiler.h).
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
 * Data conventions match the serving path: ciphertext polynomials
 * enter and leave every operation over the q base in natural
 * (coefficient) layout, so any emitter output can feed any emitter
 * input — the property the circuit compiler's fusion relies on.
 */
class OpEmitter
{
  public:
    OpEmitter(const fv::FvParams &params, SlotAllocator &alloc,
              Program &program);

    /** FV.Add: c_i = a_i + b_i. consume_a reuses a's slots in place. */
    std::array<PolyId, 2> emitAdd(std::array<PolyId, 2> a,
                                  std::array<PolyId, 2> b,
                                  bool consume_a = false);

    /** FV.Sub: c_i = a_i - b_i. */
    std::array<PolyId, 2> emitSub(std::array<PolyId, 2> a,
                                  std::array<PolyId, 2> b,
                                  bool consume_a = false);

    /** Negation: c_i = -a_i (subtraction from the zero register). */
    std::array<PolyId, 2> emitNegate(std::array<PolyId, 2> a,
                                     bool consume = false);

    /**
     * Plaintext addition: c_0 = a_0 + plain, c_1 = a_1, where @p plain
     * holds the host-encoded Delta*m polynomial
     * (fv::Evaluator::scaledPlain). The plain slot is left resident.
     */
    std::array<PolyId, 2> emitAddPlain(std::array<PolyId, 2> a,
                                       PolyId plain, bool consume = false);

    /**
     * Plaintext multiplication: both ciphertext polynomials are
     * NTT-multiplied by @p plain, the host-encoded unscaled embedding
     * (fv::Evaluator::embeddedPlain), uploaded in natural layout. The
     * plain slot is transformed in place (single-use) and left
     * resident; the caller releases it.
     */
    std::array<PolyId, 2> emitMultPlain(std::array<PolyId, 2> a,
                                        PolyId plain,
                                        bool consume = false);

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

    /**
     * Apply tau_g to a 2-element ciphertext and key-switch back to the
     * original secret with the Galois keys for @p galois_element
     * (which the executing coprocessor must hold). The input slots are
     * left untouched; the result is fresh. Bit-exact with
     * fv::Evaluator::applyGalois: kAutomorph passes over c1 broadcast
     * the WordDecomp digits of tau_g(c1) during writeback (the Scale
     * unit's reduce lanes, one digit lane per pass so only one digit
     * record is ever resident), and the key-switch tail reuses the
     * relinearization machinery with per-element key loads. Element 1
     * (the identity automorphism) lowers to a fresh copy — no
     * key-switch instructions and no key requirement; the hoisted
     * variants below behave the same way.
     */
    std::array<PolyId, 2> emitApplyGalois(std::array<PolyId, 2> a,
                                          uint32_t galois_element);

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
     * hoisting). Digits are left resident. Bit-exact with
     * fv::Evaluator::applyGaloisHoisted.
     */
    std::array<PolyId, 2> emitHoistedGalois(
        std::array<PolyId, 2> a, const std::vector<PolyId> &digits_ntt,
        uint32_t galois_element);

    /**
     * Hoisted-numerics rotation without sharing: decompose, rotate
     * once, release the digits. The unfused/per-op lowering of a
     * rotation that belongs to a hoist group — same bits as the shared
     * schedule, none of the savings.
     */
    std::array<PolyId, 2> emitApplyGaloisHoistedSingle(
        std::array<PolyId, 2> a, uint32_t galois_element);

    /**
     * Rotate-and-add sum across all batching slots, mirroring
     * fv::Evaluator::sumAllSlots instruction for instruction: log-many
     * power-of-two row rotations, then the column swap. The executing
     * coprocessor needs the Galois keys for elements 3^(2^k) and 2n-1
     * (fv::KeyGenerator::generateRotationKeys provides them). Input
     * slots are left untouched.
     */
    std::array<PolyId, 2> emitRotateSum(std::array<PolyId, 2> a);

    /** Fresh natural-layout q copy of @p src (CoeffAdd with zero). */
    PolyId copyPoly(PolyId src);

    /**
     * The shared all-zero q polynomial (allocated on first use; freshly
     * allocated records are zeroed, and the slot is only ever read).
     */
    PolyId zeroSlot();

    /** @return the cached zero slot id, or kNoPoly if none was made. */
    PolyId zeroSlotId() const { return zero_; }

    /** Pre-seed the zero slot cache (compiler snapshot/rollback). */
    void setZeroSlotId(PolyId id) { zero_ = id; }

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

    const fv::FvParams &params_;
    SlotAllocator &alloc_;
    Program &p_;
    PolyId zero_ = kNoPoly;
};

} // namespace heat::hw

#endif // HEAT_HW_PROGRAM_BUILDER_H
