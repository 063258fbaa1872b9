/**
 * @file
 * The coprocessor's instruction set (Table II of the paper).
 *
 * One instruction operates on one *batch* of residues: batch 0 covers
 * the q primes (RPAUs 0..5), batch 1 the seven extension primes
 * (RPAUs 0..6). All RPAUs of a batch execute in parallel, which is why
 * the per-instruction cost is independent of the batch width.
 *
 * Opcodes (each one's operands, layout rule, unit and pricing level
 * are defined once, in its row of the kOpInfo table):
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
#include <string>
#include <vector>

#include "common/panic.h"
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

inline constexpr size_t kOpcodeCount = 11;

/** @return the Table II display name ("NTT", "Lift q->Q", ...). */
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

/** An instruction field a descriptor row can point at. */
enum class Operand : uint8_t
{
    kNone,
    kDst,
    kSrc0,
    kExtra0, ///< extra[0]
};

/** What an instruction does with one of its register operands. */
enum class Role : uint8_t
{
    kUnused,   ///< ignored
    kRead,     ///< read only
    kWritten,  ///< overwritten without being read
    kInPlace,  ///< read, then overwritten
    kOptional, ///< overwritten when present (kNoPoly disables it)
};

/** What an instruction's `extra` list holds. */
enum class ExtraRole : uint8_t
{
    kNone,
    /** WordDecomp digit broadcast targets, none or one per live q prime
     *  (written, natural order). */
    kDigitLanes,
    /** Digit lanes of which kNoPoly entries are disabled. */
    kSparseDigitLanes,
    /** Exactly two key-switching key buffers (written). */
    kKeyBuffers,
};

/** A set of layouts, one bit per Layout. */
using LayoutSet = uint8_t;

constexpr LayoutSet
layoutBit(Layout l)
{
    return static_cast<LayoutSet>(1u << static_cast<unsigned>(l));
}

/** The layout an instruction leaves in the residues it writes. */
enum class Produces : uint8_t
{
    kNatural,
    kPaired,
    kNttDomain,
    kInput,   ///< the input layout, unchanged
    kToggled, ///< natural <-> paired
};

/**
 * One row of the opcode descriptor table: everything the coprocessor's
 * accounting, the compile-time attribution, the static verifier and the
 * disassembler need to know about an opcode apart from its arithmetic.
 */
struct OpInfo
{
    Opcode op;
    /** Table II display name (opcodeName). */
    const char *name;
    /** Disassembly mnemonic. */
    const char *mnemonic;
    /** Functional unit its compute cycles charge to. */
    Unit unit;
    /** Whether `batch` selects the residues it runs on (residuesOfBatch);
     *  the others cover their operands' whole live base. */
    bool batched;
    /** Operand whose record level prices the instruction (kNone:
     *  level-independent). */
    Operand level_operand;
    /** Operand that spans the full base Q (Lift's output, Scale's
     *  input), kNone for all other opcodes. */
    Operand full_base;
    Role dst;
    Role src0;
    Role src1;
    ExtraRole extra;
    /** Input layouts accepted (0: reads no layout-typed input). */
    LayoutSet accepts;
    Produces produces;
};

inline constexpr LayoutSet kAnyLayout = layoutBit(Layout::kNatural) |
                                        layoutBit(Layout::kPaired) |
                                        layoutBit(Layout::kNttDomain);

/**
 * The opcode descriptor table, one row per Opcode in enum order.
 * Rearrange and the automorphism permutation run on the NTT engine's
 * memory datapath. ModSwitch is physically the Scale unit's
 * divide-and-round datapath, but bucketed separately so leveled
 * circuits show their drop cost.
 */
inline constexpr std::array<OpInfo, kOpcodeCount> kOpInfo = {{
    // op, name, mnemonic, unit, batched, level operand, full-base
    // operand, dst, src0, src1, extra, accepts, produces
    {Opcode::kNtt, "NTT", "ntt", Unit::kNttUnit, true, Operand::kNone,
     Operand::kNone, Role::kInPlace, Role::kUnused, Role::kUnused,
     ExtraRole::kNone, layoutBit(Layout::kPaired), Produces::kNttDomain},
    {Opcode::kIntt, "Inverse-NTT", "intt", Unit::kNttUnit, true,
     Operand::kNone, Operand::kNone, Role::kInPlace, Role::kUnused,
     Role::kUnused, ExtraRole::kNone, layoutBit(Layout::kNttDomain),
     Produces::kPaired},
    {Opcode::kCoeffMul, "Coeff-wise Multiplication", "cmul", Unit::kCoeffUnit,
     true, Operand::kNone, Operand::kNone, Role::kWritten, Role::kRead,
     Role::kRead, ExtraRole::kNone, kAnyLayout, Produces::kInput},
    {Opcode::kCoeffAdd, "Coeff-wise Addition", "cadd", Unit::kCoeffUnit,
     true, Operand::kNone, Operand::kNone, Role::kWritten, Role::kRead,
     Role::kRead, ExtraRole::kNone, kAnyLayout, Produces::kInput},
    {Opcode::kCoeffSub, "Coeff-wise Subtraction", "csub", Unit::kCoeffUnit,
     true, Operand::kNone, Operand::kNone, Role::kWritten, Role::kRead,
     Role::kRead, ExtraRole::kNone, kAnyLayout, Produces::kInput},
    {Opcode::kRearrange, "Memory Rearrange", "rearr", Unit::kNttUnit, true,
     Operand::kNone, Operand::kNone, Role::kInPlace, Role::kUnused,
     Role::kUnused, ExtraRole::kNone,
     layoutBit(Layout::kNatural) | layoutBit(Layout::kPaired),
     Produces::kToggled},
    {Opcode::kLift, "Lift q->Q", "lift", Unit::kLiftUnit, false,
     Operand::kDst, Operand::kDst, Role::kInPlace, Role::kUnused,
     Role::kUnused, ExtraRole::kNone, layoutBit(Layout::kNatural),
     Produces::kNatural},
    {Opcode::kScale, "Scale Q->q", "scale", Unit::kScaleUnit, false,
     Operand::kSrc0, Operand::kSrc0, Role::kWritten, Role::kRead,
     Role::kUnused, ExtraRole::kDigitLanes, layoutBit(Layout::kNatural),
     Produces::kNatural},
    {Opcode::kAutomorph, "Galois Automorphism", "autmp", Unit::kNttUnit,
     false, Operand::kNone, Operand::kNone, Role::kOptional, Role::kRead,
     Role::kUnused, ExtraRole::kSparseDigitLanes,
     layoutBit(Layout::kNatural) | layoutBit(Layout::kNttDomain),
     Produces::kInput},
    {Opcode::kKeyLoad, "Key-switch-key DMA", "kload", Unit::kKeyLoadUnit,
     false, Operand::kExtra0, Operand::kNone, Role::kUnused, Role::kUnused,
     Role::kUnused, ExtraRole::kKeyBuffers, 0, Produces::kNttDomain},
    {Opcode::kModSwitch, "Modulus Switch", "mswitch", Unit::kModReduceUnit,
     false, Operand::kSrc0, Operand::kNone, Role::kWritten, Role::kRead,
     Role::kUnused, ExtraRole::kNone, layoutBit(Layout::kNatural),
     Produces::kNatural},
}};

namespace detail {

constexpr bool
rowsInOpcodeOrder()
{
    for (size_t i = 0; i < kOpInfo.size(); ++i) {
        if (static_cast<size_t>(kOpInfo[i].op) != i)
            return false;
    }
    return true;
}

} // namespace detail

static_assert(kOpcodeCount == static_cast<size_t>(Opcode::kModSwitch) + 1,
              "one descriptor row per opcode");
static_assert(detail::rowsInOpcodeOrder(), "row i must describe opcode i");


/** @return @p op's descriptor row (panics on an out-of-range opcode). */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto i = static_cast<size_t>(op);
    panicIf(i >= kOpcodeCount, "unknown opcode ", i);
    return kOpInfo[i];
}

/** @return whether @p op accepts an input residue in layout @p l. */
inline bool
acceptsLayout(Opcode op, Layout l)
{
    return (opInfo(op).accepts & layoutBit(l)) != 0;
}

/** @return the layout @p info's opcode leaves in a residue whose input
 *  was @p in. */
inline Layout
producedLayout(const OpInfo &info, Layout in)
{
    switch (info.produces) {
      case Produces::kNatural:
        return Layout::kNatural;
      case Produces::kPaired:
        return Layout::kPaired;
      case Produces::kNttDomain:
        return Layout::kNttDomain;
      case Produces::kInput:
        return in;
      case Produces::kToggled:
        return in == Layout::kNatural ? Layout::kPaired : Layout::kNatural;
    }
    return in;
}

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
    /** Register operands; the opcode's OpInfo row gives their roles. */
    PolyId dst = kNoPoly;
    PolyId src0 = kNoPoly;
    PolyId src1 = kNoPoly;
    /** Residue batch: 0 = q primes, 1 = extension primes. */
    uint8_t batch = 0;
    /** Auxiliary immediate: key selector + digit for kKeyLoad (see
     *  keyLoadAux), the Galois element for kAutomorph. */
    uint32_t aux = 0;
    /** Extra destinations (OpInfo::extra: digit lanes or key buffers). */
    std::vector<PolyId> extra;

    bool operator==(const Instruction &o) const = default;
};

/** @return the record @p instr names in field @p which (kNoPoly for
 *  Operand::kNone or an empty extra list). */
inline PolyId
operandOf(const Instruction &instr, Operand which)
{
    switch (which) {
      case Operand::kNone:
        return kNoPoly;
      case Operand::kDst:
        return instr.dst;
      case Operand::kSrc0:
        return instr.src0;
      case Operand::kExtra0:
        return instr.extra.empty() ? kNoPoly : instr.extra[0];
    }
    return kNoPoly;
}

/**
 * How the Arm dispatches a program to the coprocessor.
 *
 * The paper's measured per-instruction times (Table II) include the
 * Arm-side dispatch + completion overhead on every instruction — the
 * kPerInstruction mode, which the paper tables and the op-by-op
 * baseline use (compiler::runCircuitOpByOp: a compileCircuitOpByOp
 * program, one segment per node, run by the compiled-circuit
 * executor). Otherwise a compiled program is queued once: the
 * coprocessor streams the instruction sequence back-to-back and the
 * dispatch overhead is charged once per program (kFusedProgram).
 * Every job the serving layer runs, a single operation included, is
 * priced this way. The static price of a compiled program
 * (compiler::attributeCompiledCircuit) takes either mode: the paper
 * tables read its kPerInstruction price, the service its kFusedProgram
 * price.
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

/** Aggregated statistics of one program run. */
struct ExecStats
{
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

    Cycle
    unitCycles(Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }
};

} // namespace heat::hw

#endif // HEAT_HW_ISA_H
