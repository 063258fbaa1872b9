/**
 * @file
 * The instruction-set coprocessor (Fig. 10): seven RPAUs, two Lift/Scale
 * cores and the on-chip memory file behind a small instruction set.
 *
 * Execution is functional *and* timed: every instruction updates the
 * memory-file contents through the same arithmetic kernels the software
 * evaluator uses (results are bit-exact against fv::Evaluator's HPS
 * path) and charges the CostModel's price for it plus the Arm dispatch
 * overhead. DMA time (key-switching keys) is tracked separately in
 * microseconds of the 250 MHz domain.
 */

#ifndef HEAT_HW_COPROCESSOR_H
#define HEAT_HW_COPROCESSOR_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "fv/galois.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "hw/coeff_unit.h"
#include "hw/config.h"
#include "hw/dma.h"
#include "hw/isa.h"
#include "hw/lift_unit.h"
#include "hw/memory_file.h"
#include "hw/ntt_engine.h"
#include "hw/scale_unit.h"

namespace heat::hw {

/** Modeled cost of one instruction. */
struct InstrCost
{
    /** Block-model compute cycles (no Arm dispatch overhead). */
    Cycle cycles = 0;
    /** DDR transfer microseconds (key loads only). */
    double dma_us = 0.0;
};

/**
 * The one place an opcode is priced: the block models (NttEngine,
 * CoeffUnit, LiftUnit, ScaleUnit, DmaModel) behind one cost function.
 * The coprocessor charges its runs from it and the compile-time
 * attribution (compiler::attributeCompiledCircuit) prices compiled
 * programs with it; the two differ only in where they look up the
 * record level of the operand OpInfo::level_operand names — the memory
 * file at run time, the slot-action log at compile time.
 */
class CostModel
{
  public:
    CostModel(std::shared_ptr<const fv::FvParams> params,
              const HwConfig &config);

    /**
     * Cost of opcode @p op whose level operand sits at modulus-switching
     * level @p level. NTT and coefficient-wise costs are
     * batch-width-independent (the residues run on parallel RPAUs), so
     * levels only shrink the serial Lift/Scale input chains and the
     * key-load bursts.
     */
    InstrCost cost(Opcode op, size_t level) const;

    /** The block models that also execute (all RPAUs share one
     *  CoeffUnit: they run in lock-step). */
    const CoeffUnit &coeff() const { return coeff_; }
    const LiftUnit &lift() const { return lift_; }
    const ScaleUnit &scale() const { return scale_; }

  private:
    std::shared_ptr<const fv::FvParams> params_;
    NttEngine engine_;
    CoeffUnit coeff_;
    LiftUnit lift_;
    ScaleUnit scale_;
    DmaModel dma_;
};

/**
 * When a program binds and returns memory-file records, each list
 * sorted by instruction index: compiler::runCompiledImpl binds each
 * record at its first touch and returns it after its last.
 */
struct RecordSchedule
{
    struct Event
    {
        /** Index into Program::instrs. */
        uint32_t instr = 0;
        PolyId id = kNoPoly;
        /** Binds only: zero-fill the buffer (false when the instruction
         *  overwrites the record whole, hw::overwritesRecord). */
        bool fill = true;
    };

    /** Records bound just before their instruction runs, each at its
     *  shape in *log. */
    std::vector<Event> binds;
    /** Records returned right after their instruction is priced. */
    std::vector<Event> returns;
    const SlotLogShape *log = nullptr;
};

/** One coprocessor instance. */
class Coprocessor
{
  public:
    /**
     * @param params FV parameter set.
     * @param config hardware configuration.
     * @param rlk relinearization keys resident in DDR (may be null if
     *        the workload never issues kKeyLoad).
     * @param gkeys Galois key-switching keys resident in DDR (may be
     *        null if the workload never issues a Galois-selector
     *        kKeyLoad; see keyLoadAux).
     */
    Coprocessor(std::shared_ptr<const fv::FvParams> params,
                const HwConfig &config,
                const fv::RelinKeys *rlk = nullptr,
                const fv::GaloisKeys *gkeys = nullptr);

    /** @return the parameter set. */
    const fv::FvParams &params() const { return *params_; }

    /** @return the configuration. */
    const HwConfig &config() const { return config_; }

    /** @return the memory file. */
    MemoryFile &memory() { return memory_; }
    const MemoryFile &memory() const { return memory_; }

    /** Reprogram: return every memory-file record to the buffer pool,
     *  so a different program can bind its records. */
    void reset() { memory_.reset(); }

    /**
     * Swap the DDR-resident key sets the kKeyLoad instruction streams
     * from (selector 0 = relin, else the Galois element) — the
     * multi-tenant serving layer re-points a worker's coprocessor at
     * the submitting session's keys before running its jobs. Either
     * pointer may be null when the upcoming programs never load from
     * that set; both must outlive every subsequent execute().
     */
    void
    attachKeys(const fv::RelinKeys *rlk, const fv::GaloisKeys *gkeys)
    {
        rlk_ = rlk;
        gkeys_ = gkeys;
    }

    /**
     * Write operand @p poly into bound record @p id, whose buffer the
     * bind zero-filled unless the operand covers it: only the operand's
     * words are copied, and its residues take the layout of poly.form()
     * (kNtt: NTT domain, else natural).
     */
    void uploadInto(PolyId id, const ntt::RnsPoly &poly);

    /**
     * Execute a program; returns its statistics. In kPerInstruction
     * mode every instruction carries the Arm dispatch overhead (the
     * paper's measured Table II costs); in kFusedProgram mode the whole
     * instruction stream is queued with a single dispatch — the circuit
     * compiler's fused execution model. @p schedule, when given, binds
     * and returns records around the instructions it names. Key loads
     * lend their buffers the key (MemoryFile::borrow); every borrow
     * still live when the program ends, or throws, is copied in.
     */
    ExecStats execute(const Program &program,
                      DispatchMode mode = DispatchMode::kPerInstruction,
                      const RecordSchedule *schedule = nullptr);

    /** Cycle cost of one instruction (dispatch overhead included). */
    Cycle instructionCycles(const Instruction &instr) const;

  private:
    /** The CostModel's price at the record level of the instruction's
     *  level operand (level 0 when that record does not exist). */
    InstrCost instructionCost(const Instruction &instr) const;

    void exec(const Instruction &instr);
    void execTransform(const Instruction &instr);
    void execCoeffOp(const Instruction &instr);
    void execAutomorph(const Instruction &instr);
    void execKeyLoad(const Instruction &instr);

    /** The NTT-domain index map of tau_g (fv::galoisNttIndexMap) as
     *  32-bit indices, built on first use, checked blockwise
     *  (simd::isBlockwiseMap, which simd::Kernels::automorph_ntt
     *  relies on) and kept for the coprocessor's lifetime. */
    const std::vector<uint32_t> &galoisNttMap(uint32_t g);

    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
    MemoryFile memory_;
    CostModel cost_;
    const fv::RelinKeys *rlk_;
    const fv::GaloisKeys *gkeys_;
    std::unordered_map<uint32_t, std::vector<uint32_t>> galois_maps_;
    /** A coefficient-order automorphism's permuted residues, reused
     *  across calls. */
    std::vector<uint64_t> permuted_;
};

} // namespace heat::hw

#endif // HEAT_HW_COPROCESSOR_H
