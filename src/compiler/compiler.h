/**
 * @file
 * Circuit compiler: lowers a whole ciphertext expression DAG into one
 * fused coprocessor program with coprocessor-resident intermediates.
 *
 * Submitting operations one at a time round-trips every ciphertext
 * through the host: upload operands, dispatch from the Arm, and
 * download the result — per operation. compileCircuit() instead
 * schedules the circuit's nodes topologically into segments of one
 * straight-line hw::Program each, allocating memory-file slots by
 * liveness (a value's slots are reclaimed at its last use, so deep
 * circuits reuse the slots of dead intermediates) against a
 * CountingAllocator — pure accounting, so compilation never touches a
 * real coprocessor and the result can run on any worker that replays
 * the recorded slot actions.
 *
 * When the live set exceeds the memory file (n_rpaus * slots_per_rpau
 * slots), the compiler spills: the live value with the farthest next
 * use is DMA'd back to the host (a download appended to the current
 * segment) and its slots are reused; the reload later opens a new
 * segment, because uploads must precede a segment's instruction
 * stream. A circuit that fits on chip therefore compiles to exactly
 * one segment — inputs uploaded once, one Arm dispatch for the whole
 * instruction stream (DispatchMode::kFusedProgram), and only live
 * outputs downloaded; each spill adds one host round trip.
 */

#ifndef HEAT_COMPILER_COMPILER_H
#define HEAT_COMPILER_COMPILER_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compiler/circuit.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "hw/isa.h"
#include "hw/memory_file.h"

namespace heat::compiler {

/** What compileCircuit does with the noise pass's verdict. */
enum class NoiseCheck : uint8_t
{
    kOff,   ///< annotate only, never complain
    kWarn,  ///< annotate and print a one-line warning to stderr
    kReject ///< throw FatalError with the node-level diagnostic
};

/**
 * What compileCircuit does with the static verifier's verdict
 * (verify/verify.h): every compilation can prove its own program
 * respects the memory-file, layout, level and key invariants the
 * runtime assumes.
 */
enum class VerifyCheck : uint8_t
{
    kOff,   ///< skip the pass entirely
    kWarn,  ///< run it; print the diagnostic table to stderr
    kReject ///< run it; throw FatalError carrying the table
};

/**
 * @return the process default for CompilerOptions::verify — kWarn, or
 * the HEAT_VERIFY environment override ("off" / "warn" / "reject"),
 * read once.
 */
VerifyCheck defaultVerifyCheck();

/** Compilation tunables. */
struct CompilerOptions
{
    /** Target hardware configuration (slot capacity, clocks). */
    hw::HwConfig hw = hw::HwConfig::paper();
    /**
     * Share the key-switch decompose (WordDecomp + forward NTTs of the
     * digits) across all rotations of one ciphertext — HEAX-style
     * hoisting. Only affects scheduling: group members use hoisted
     * numerics either way, so results are bit-identical with the flag
     * off (each rotation then re-decomposes privately, which is what
     * the hoisting benchmark compares against).
     */
    bool hoist_rotations = true;
    /**
     * Noise-budget propagation (noise_pass.h): every compilation
     * annotates CompiledCircuit::noise_budget_bits; this knob decides
     * whether a circuit whose predicted budget is exhausted before its
     * outputs compiles anyway. The default warns — existing pipelines
     * keep compiling, but a depth-over-budget program is named at
     * compile time rather than discovered as a garbage decryption.
     */
    NoiseCheck noise_check = NoiseCheck::kWarn;
    /**
     * Static verification of the compiled artifact (verify/verify.h):
     * after lowering, an abstract interpreter proves the emitted
     * program's slot, layout, level, key and liveness invariants. The
     * pass costs a few percent of compile time; the default warns so a
     * miscompiled program is named at compile time instead of decrypting
     * to garbage. Overridable per process with HEAT_VERIFY=off|warn|
     * reject (the sanitizer CI leg runs under reject).
     */
    VerifyCheck verify = defaultVerifyCheck();
    /**
     * Automatic level assignment (noise_pass.h, insertModSwitches):
     * before lowering, walk the DAG and insert kModSwitch drops at the
     * noise-cheapest points, then compile the transformed circuit —
     * deeper values run over fewer live RNS primes, shrinking the
     * Lift/Scale chains, relin digit loads and DMA bursts. The noise
     * annotation switches to the average-case bound (the one the
     * assignment plans with); rejection under NoiseCheck::kReject then
     * means no level assignment can save the circuit. Off by default:
     * the depth-4 level-0 story of the paper is unchanged unless asked
     * for.
     */
    bool auto_mod_switch = false;
    /**
     * Input positions (indices into the circuit's input submission
     * order) whose ciphertexts are coprocessor-resident. The compiler
     * allocates their slot pairs FIRST — so they form a stable
     * record-id prefix a warm coprocessor already holds — and never
     * spills, consumes, demotes or releases them; no upload Transfer is
     * ever emitted for them. The serving layer pins the prefix across
     * requests (hw::MemoryFile::setPinnedRecords) so repeat executions
     * of the same circuit skip the operand DMA entirely — see
     * runCompiledCircuitWarm().
     */
    std::vector<uint32_t> resident_inputs;
};

/** One host<->coprocessor polynomial transfer. */
struct Transfer
{
    enum class Source : uint8_t
    {
        kValue,   ///< a circuit value's polynomial
        kConstant ///< an encoded plaintext from the constant pool
    };

    Source source = Source::kValue;
    /** ValueId, or index into CompiledCircuit::constants. */
    uint32_t index = 0;
    /** Polynomial within the value (always 0 for constants). */
    uint32_t poly = 0;
    /** Memory-file slot. */
    hw::PolyId slot = hw::kNoPoly;

    bool operator==(const Transfer &o) const = default;
};

/**
 * One dispatch unit: uploads staged before the program runs, a fused
 * straight-line instruction stream, downloads (spill stores and final
 * outputs) after it completes.
 */
struct Segment
{
    std::vector<Transfer> uploads;
    hw::Program program;
    std::vector<Transfer> downloads;
};

/**
 * A lowered circuit: segments plus the slot-action log that replays
 * the compiler's deterministic memory-file allocation on any freshly
 * reset coprocessor. A plain value — share it across workers.
 */
struct CompiledCircuit
{
    std::shared_ptr<const fv::FvParams> params;
    hw::HwConfig hw;

    std::vector<Segment> segments;
    /** Allocation log; replaySlotActions() materializes the slots. */
    std::vector<hw::SlotAction> slot_actions;
    /** Host-encoded plaintext operands (uploaded like inputs). */
    std::vector<ntt::RnsPoly> constants;

    /**
     * The circuit that was actually lowered: the caller's circuit, or
     * its insertModSwitches transform under auto_mod_switch. All value
     * ids below index into THIS circuit — run evaluateCircuit or
     * runCircuitOpByOp on it to reproduce the compiled program's
     * results bit for bit.
     */
    Circuit circuit;

    /** Input values in submission order. */
    std::vector<ValueId> inputs;
    /** Output values in download order. */
    std::vector<ValueId> outputs;
    /** Ciphertext element count per value id. */
    std::vector<uint32_t> value_sizes;
    /** Ciphertext level per value id (all zero without mod-switches). */
    std::vector<uint32_t> value_levels;
    /** Galois elements whose keys the executing coprocessor must hold
     *  (sorted ascending; empty for rotation-free circuits). */
    std::vector<uint32_t> galois_elements;

    // --- cycle attribution (see attribution.h) -------------------------
    /** Per segment, per instruction: the circuit node whose emission
     *  produced the instruction (kNoValue for bookkeeping such as the
     *  shared zero slot). Parallel to segments[s].program.instrs. */
    std::vector<std::vector<ValueId>> instr_nodes;
    /** Attributed modeled compute cycles per value id: each node's
     *  share of a fused execution's fpga_cycles (dispatch overhead
     *  excluded — it belongs to segments, not nodes). */
    std::vector<hw::Cycle> node_cycles;

    // --- resident operand cache (CompilerOptions::resident_inputs) -----
    /** Input positions compiled as coprocessor-resident (ascending). */
    std::vector<uint32_t> resident_inputs;
    /** Pinned memory-file slot pair per resident input; these are the
     *  first 2*resident_inputs.size() record ids. */
    std::vector<std::array<hw::PolyId, 2>> resident_slots;
    /** Leading slot_actions that materialize the resident prefix; a
     *  warm replay resumes after them (resetToPinned keeps the rest). */
    size_t resident_action_count = 0;

    // --- noise annotation (see noise_pass.h) ---------------------------
    /** Predicted remaining invariant-noise budget (bits) per value id,
     *  assuming fresh-encryption inputs. */
    std::vector<double> noise_budget_bits;
    /** Minimum predicted budget over the output values. */
    double min_output_noise_budget_bits = 0.0;
    /** First value with exhausted predicted budget (kNoValue if none;
     *  with CompilerOptions::NoiseCheck::kReject compilation throws
     *  instead of ever producing such a circuit). */
    ValueId noise_exhausted_node = kNoValue;

    // --- compile-time accounting ---------------------------------------
    /** Memory-file high-water mark (slots). */
    size_t peak_slots = 0;
    /** Polynomials DMA'd back to the host under slot pressure. */
    size_t spilled_polys = 0;
    /** Polynomials re-uploaded after a spill. */
    size_t reloaded_polys = 0;

    /** @return total instruction count across segments. */
    size_t instructionCount() const;
};

/**
 * Lower @p circuit for the hardware configuration in @p options.
 * Throws FatalError when the circuit is malformed or a single node
 * cannot fit the memory file even after spilling everything else
 * (the message reports the slot pressure and the requesting op).
 */
CompiledCircuit compileCircuit(std::shared_ptr<const fv::FvParams> params,
                               const Circuit &circuit,
                               const CompilerOptions &options = {});

/**
 * Compile the one-node circuit add(x, y) (@p kind kAdd) or mult(x, y)
 * (kMult) over level-0 inputs for @p config, with the noise and
 * verifier passes off. This is the one lowering of a single operation:
 * ExecutionService::submit(Op) serves it, hw::profileMultJob and the
 * paper-table benches price its segment program.
 */
CompiledCircuit compileOpCircuit(std::shared_ptr<const fv::FvParams> params,
                                 NodeKind kind, const hw::HwConfig &config);

/**
 * Check that @p ct can enter a compiled circuit over @p params: a
 * size-2, level-0, coefficient-form ciphertext of the parameter set's
 * degree and q base. Throws FatalError naming the first violation —
 * the serving layer calls this on the submitting thread, so malformed
 * operands are rejected synchronously.
 */
void validateInput(const fv::FvParams &params, const fv::Ciphertext &ct);

/** Modeled cost of one circuit execution. */
struct CircuitRunStats
{
    hw::Cycle fpga_cycles = 0;
    double dma_us = 0.0;
    double host_us = 0.0;
    /** fpga_cycles bucketed by functional unit (index by hw::Unit);
     *  sums exactly to fpga_cycles. */
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    uint64_t instructions = 0;
    /** Arm dispatches charged (fused: one per segment's program). */
    uint64_t dispatches = 0;
    size_t segments = 0;
    size_t uploaded_polys = 0;
    size_t downloaded_polys = 0;

    /** Modeled end-to-end time (us). */
    double
    modeledUs(const hw::HwConfig &config) const
    {
        return config.cyclesToUs(fpga_cycles) + dma_us + host_us;
    }
};

/**
 * Execute a compiled circuit on @p cp (which must hold the matching
 * relinearization keys when the circuit relinearizes). Resets the
 * coprocessor, replays the slot actions, then runs every segment:
 * upload, one fused dispatch, download. Returns the output
 * ciphertexts in output order; bit-exact with evaluateCircuit() over
 * the HPS evaluator.
 */
std::vector<fv::Ciphertext> runCompiledCircuit(
    hw::Coprocessor &cp, const CompiledCircuit &compiled,
    std::span<const fv::Ciphertext> inputs,
    CircuitRunStats *stats = nullptr);

/**
 * Warm execution of a circuit compiled with
 * CompilerOptions::resident_inputs: the coprocessor must already hold
 * the circuit's pinned record prefix from a prior (cold)
 * runCompiledCircuit of the SAME compiled circuit — the cold pass pins
 * it via hw::MemoryFile::setPinnedRecords. The pinned operands are
 * neither validated nor uploaded (that's the point: their DMA cost is
 * paid once, on the cold pass); @p request_inputs supplies only the
 * non-resident inputs, in position order with the resident positions
 * skipped. Results are bit-identical to the cold pass. The caller is
 * responsible for circuit identity — the pinned-record count is
 * sanity-checked, but running circuit B warm over circuit A's pins with
 * the same prefix size computes over A's operands.
 */
std::vector<fv::Ciphertext> runCompiledCircuitWarm(
    hw::Coprocessor &cp, const CompiledCircuit &compiled,
    std::span<const fv::Ciphertext> request_inputs,
    CircuitRunStats *stats = nullptr);

/**
 * Reference execution model of the *unfused* serving path: every node
 * becomes its own host round trip (operands uploaded, the node's
 * program dispatched per instruction, results downloaded), with a
 * kRelin folded into its producer as in a one-node mult(x, y) circuit.
 * Functionally identical to runCompiledCircuit(); the modeled time is
 * what circuit fusion is benchmarked against.
 */
std::vector<fv::Ciphertext> runCircuitOpByOp(
    hw::Coprocessor &cp, std::shared_ptr<const fv::FvParams> params,
    const Circuit &circuit, std::span<const fv::Ciphertext> inputs,
    CircuitRunStats *stats = nullptr);

} // namespace heat::compiler

#endif // HEAT_COMPILER_COMPILER_H
