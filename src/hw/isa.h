/**
 * @file
 * The coprocessor's instruction set (Table II of the paper).
 *
 * One instruction operates on one *batch* of residues: batch 0 covers
 * the q primes (RPAUs 0..5), batch 1 the seven extension primes
 * (RPAUs 0..6). All RPAUs of a batch execute in parallel, which is why
 * the per-instruction cost is independent of the batch width.
 *
 * Opcodes:
 *   kNtt / kIntt           forward / inverse NTT of one batch
 *   kCoeffMul/Add/Sub      coefficient-wise arithmetic, one batch
 *   kRearrange             layout permutation natural <-> paired
 *   kLift                  Lift q->Q (extends a q poly to the full base)
 *   kScale                 Scale Q->q (optionally emitting WordDecomp
 *                          digit broadcasts during writeback)
 *   kAutomorph             Galois automorphism tau_g: an index-mapped
 *                          permutation of one residue polynomial in the
 *                          memory file (optionally emitting WordDecomp
 *                          digit broadcasts during writeback, reusing
 *                          the Scale unit's reduce lanes)
 *   kKeyLoad               DMA one key-switching key pair from DDR
 *                          (relinearization or Galois, selected by aux)
 *   kModSwitch             modulus switch: dst = round(src0 / q_last)
 *                          over the basis with the last live prime
 *                          dropped (dst is allocated one level deeper;
 *                          runs on the Scale unit's divide-and-round
 *                          datapath with t = 1)
 */

#ifndef HEAT_HW_ISA_H
#define HEAT_HW_ISA_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/config.h"
#include "hw/memory_file.h"

namespace heat::hw {

/** Coprocessor opcodes. */
enum class Opcode : uint8_t
{
    kNtt,
    kIntt,
    kCoeffMul,
    kCoeffAdd,
    kCoeffSub,
    kRearrange,
    kLift,
    kScale,
    kAutomorph,
    kKeyLoad,
    kModSwitch,
};

/** @return a printable mnemonic. */
const char *opcodeName(Opcode op);

/**
 * Functional units of the coprocessor, the buckets of the
 * cycle-attribution profiler (the paper's Fig. 10-style breakdown).
 * Every instruction's compute cycles land in exactly one unit, so the
 * per-unit totals sum to the program's fpga_cycles without loss.
 */
enum class Unit : uint8_t
{
    kNttUnit,       ///< NTT butterflies + rearrange + automorph permute
    kLiftUnit,      ///< HPS Lift q->Q
    kScaleUnit,     ///< HPS Scale Q->q (incl. WordDecomp broadcast)
    kCoeffUnit,     ///< coefficient-wise mul/add/sub lanes
    kModReduceUnit, ///< modulus-switch divide-and-round drop
    kDmaUnit,       ///< DDR transfers (tracked in µs, not cycles)
    kKeyLoadUnit,   ///< key-switch key streaming (DMA-bound, 0 cycles)
    kArmUnit,       ///< Arm-side dispatch + completion overhead
};

inline constexpr size_t kUnitCount = 8;

/** @return a printable unit name ("NTT", "Lift", ...). */
const char *unitName(Unit unit);

/** @return the functional unit an opcode's compute cycles charge to. */
Unit unitOf(Opcode op);

/**
 * kKeyLoad aux encoding: the low byte is the digit index, the upper 24
 * bits select the key set — 0 for the relinearization keys, otherwise
 * the Galois element whose key-switching keys to stream. Legacy
 * programs that store a bare digit index therefore keep their meaning
 * (selector 0).
 */
constexpr uint32_t
keyLoadAux(uint32_t selector, uint32_t digit)
{
    return (selector << 8) | (digit & 0xffu);
}

/** @return the digit index of a kKeyLoad aux word. */
constexpr uint32_t
keyLoadDigit(uint32_t aux)
{
    return aux & 0xffu;
}

/** @return the key-set selector (0 = relin, else Galois element). */
constexpr uint32_t
keyLoadSelector(uint32_t aux)
{
    return aux >> 8;
}

/** One coprocessor instruction. */
struct Instruction
{
    Opcode op;
    /** Destination (also in-place operand for transforms). */
    PolyId dst = kNoPoly;
    /** First source operand. */
    PolyId src0 = kNoPoly;
    /** Second source operand. */
    PolyId src1 = kNoPoly;
    /** Residue batch: 0 = q primes, 1 = extension primes. */
    uint8_t batch = 0;
    /** Auxiliary immediate: key selector + digit for kKeyLoad (see
     *  keyLoadAux), the Galois element for kAutomorph. */
    uint32_t aux = 0;
    /** Extra destinations: WordDecomp digit broadcasts for kScale and
     *  kAutomorph, key-buffer targets for kKeyLoad. */
    std::vector<PolyId> extra;

    bool operator==(const Instruction &o) const = default;
};

/**
 * How the Arm dispatches a program to the coprocessor.
 *
 * The paper's measured per-instruction times (Table II) include the
 * Arm-side dispatch + completion overhead on every instruction — the
 * kPerInstruction mode, which the paper tables and the op-by-op
 * reference (compiler::runCircuitOpByOp) use. A compiled program is
 * queued once: the coprocessor streams the instruction sequence
 * back-to-back and the dispatch overhead is charged once per program
 * (kFusedProgram). Every job the serving layer runs, a single
 * operation included, is priced this way.
 */
enum class DispatchMode : uint8_t
{
    kPerInstruction, ///< one Arm dispatch per instruction (Table II)
    kFusedProgram,   ///< one Arm dispatch for the whole program
};

/**
 * A straight-line instruction sequence. Its inputs and results move
 * through the host transfers of the compiled segment that holds it
 * (compiler::Segment).
 */
struct Program
{
    std::vector<Instruction> instrs;

    /** @return a full assembly-style listing of the program. */
    std::string listing() const;

    bool operator==(const Program &o) const = default;
};

/** @return a one-line assembly-style rendering of an instruction. */
std::string disassemble(const Instruction &instr);

/** Per-opcode execution statistics. */
struct OpStats
{
    uint64_t calls = 0;
    Cycle fpga_cycles = 0;
    double dma_us = 0.0;
};

/** Aggregated statistics of one program run. */
struct ExecStats
{
    std::map<Opcode, OpStats> per_op;
    Cycle fpga_cycles = 0;
    double dma_us = 0.0;
    /** Instructions executed. */
    uint64_t instructions = 0;
    /** Arm dispatch overhead included in fpga_cycles (one per
     *  instruction, or one per program when fused). */
    Cycle dispatch_cycles = 0;
    /** fpga_cycles bucketed by functional unit (index by Unit).
     *  Invariant: the entries sum exactly to fpga_cycles — compute
     *  cycles charge unitOf(op), dispatch cycles charge kArmUnit. */
    std::array<Cycle, kUnitCount> unit_cycles{};
    /** Modeled microseconds this run advanced the tracing clock by
     *  (obs::advanceModeledUs), accumulated as an exact sum of the
     *  per-instruction durations so enclosing spans can report a
     *  duration independent of the clock's base value (floating-point
     *  addition is not associative; end-minus-start would differ in
     *  ulps across worker clocks). 0 when no tracer is installed. */
    double traced_us = 0.0;

    Cycle
    unitCycles(Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }

    /** Total time in microseconds at the given configuration. */
    double
    totalUs(const HwConfig &config) const
    {
        return config.cyclesToUs(fpga_cycles) + dma_us;
    }
};

} // namespace heat::hw

#endif // HEAT_HW_ISA_H
