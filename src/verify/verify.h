/**
 * @file
 * Static program verifier for compiled coprocessor circuits.
 *
 * The circuit compiler emits large fused hw::Programs — levels, spills,
 * pinned resident prefixes, hoisted Galois digits — that the simulated
 * coprocessor executes on trust: a miscompiled program manifests as
 * silently wrong ciphertext bits, catchable only by whichever
 * differential test happens to cover the broken path. This pass is an
 * abstract interpreter over compiler::CompiledCircuit that proves,
 * instruction by instruction and before any cycle is simulated, the
 * invariants the runtime assumes:
 *
 *  - the slot-action log is well-formed (sequential ids, no double
 *    release, extend only of live q-base records) and never exceeds
 *    the BRAM slot capacity; its high-water mark matches peak_slots;
 *  - the segments' slot-action ranges tile the log, and every touch of
 *    a record (downloads included) falls between the segments whose
 *    ranges bind (allocate) and return (release) it;
 *  - every record an instruction or transfer touches is allocated, and
 *    operand data is defined before it is read (uploads cover every
 *    used non-resident input; WordDecomp digits, key buffers and lift
 *    extensions are written before consumption);
 *  - no record is used after its slots were consumed: the action log
 *    admits a monotone placement against program order in which every
 *    release happens after its record's last use and every (re)allocation
 *    before its record's first use — the static guarantee that lets
 *    physical slot reuse never alias live data;
 *  - per-residue layout typestate (natural / paired / NTT domain) is
 *    consistent with what every ISA op consumes and produces, and with
 *    the domain every transfer declares: an upload lands in its
 *    constant's encoded form or in the domain its value's spill stored,
 *    a download streams the domain it declares, and every declared
 *    output leaves in natural layout;
 *  - level and basis shapes agree: kq - l digit counts through
 *    Lift/Scale/ModSwitch/Relin, records bound at their extended shape,
 *    mod-switch destinations one level deeper than their sources;
 *  - kKeyLoad selectors reference registered key sets (relin only when
 *    the circuit relinearizes, Galois only for elements the compiled
 *    circuit declares) and every kAutomorph element is declared; every
 *    Galois element is a real automorphism (odd, < 2n) and
 *    galois_elements is strictly ascending;
 *  - pinned resident-prefix records are never spilled, consumed,
 *    extended or written — the property that makes warm reruns sound;
 *  - every declared circuit output is downloaded from a defined record.
 *
 * Violations are structured Diagnostics (instruction index, opcode,
 * record id, invariant, expected/actual), not a bool — the mutation
 * harness in tests/test_verify.cc asserts each corruption class maps to
 * the right diagnostic. Wiring: CompilerOptions::verify runs the pass
 * on every compileCircuit, the ExecutionService verifies at submission
 * admission, and `heat_cli verify` prints the diagnostic table.
 */

#ifndef HEAT_VERIFY_VERIFY_H
#define HEAT_VERIFY_VERIFY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "hw/isa.h"
#include "hw/memory_file.h"

namespace heat::verify {

/** Invariant families the verifier proves (one per Diagnostic). */
enum class Invariant : uint8_t
{
    kSlotLog,         ///< slot-action log ill-formed
    kSlotCapacity,    ///< BRAM capacity exceeded / peak_slots mismatch
    kDefBeforeUse,    ///< operand read while undefined / not uploaded
    kUseAfterConsume, ///< released slots reused while still live
    kLayout,          ///< coefficient-vs-NTT typestate violation
    kShape,           ///< level / base / digit-count disagreement
    kKey,             ///< key selector not registered for the circuit
    kPinned,          ///< resident-prefix record mutated or released
    kOutput,          ///< declared output not live at program end
};

/** @return a printable invariant name ("layout", "pinned", ...). */
const char *invariantName(Invariant inv);

/** Sentinel for "no segment / instruction / action index". */
constexpr size_t kNoIndex = ~size_t(0);

/** One statically-proven violation. */
struct Diagnostic
{
    Invariant invariant = Invariant::kSlotLog;
    /** Segment of the offending instruction or transfer (kNoIndex for
     *  slot-log and whole-circuit diagnostics). */
    size_t segment = kNoIndex;
    /** Instruction index within the segment's program (kNoIndex for
     *  transfer, slot-log and whole-circuit diagnostics). */
    size_t instr = kNoIndex;
    /** Index into CompiledCircuit::slot_actions for log diagnostics. */
    size_t action = kNoIndex;
    /** Offending opcode; valid only when has_op is set. */
    bool has_op = false;
    hw::Opcode op = hw::Opcode::kNtt;
    /** Offending memory-file record (hw::kNoPoly when not applicable). */
    hw::PolyId record = hw::kNoPoly;
    /** What the invariant requires, e.g. "layout kPaired". */
    std::string expected;
    /** What the program actually has, e.g. "layout kNatural". */
    std::string actual;
    /** Human-readable one-line description. */
    std::string message;

    /** @return a one-line rendering ("[layout] seg 0 instr 12 ..."). */
    std::string str() const;
};

/** Outcome of one verification pass. */
struct VerifyResult
{
    std::vector<Diagnostic> diagnostics;
    /** Records the slot-action log materializes. */
    size_t records = 0;
    /** Instructions checked across all segments. */
    size_t instructions = 0;

    /** @return true when no invariant was violated. */
    bool ok() const { return diagnostics.empty(); }

    /** @return a multi-line diagnostic table (or a one-line "clean"). */
    std::string report() const;
};

/**
 * Statically verify @p compiled. Pure analysis over the compiled
 * artifact — no coprocessor, no ciphertext data, never throws on a
 * violation (callers decide whether diagnostics warn or reject). Cost
 * is linear in instructions + slot actions.
 */
VerifyResult verifyCompiledCircuit(
    const compiler::CompiledCircuit &compiled);

} // namespace heat::verify

#endif // HEAT_VERIFY_VERIFY_H
