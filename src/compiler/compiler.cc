#include "compiler/compiler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include <cstdio>
#include <cstdlib>

#include "common/panic.h"
#include "compiler/attribution.h"
#include "compiler/noise_pass.h"
#include "hw/arm_host.h"
#include "hw/program_builder.h"
#include "obs/trace.h"
#include "verify/verify.h"

namespace heat::compiler {

size_t
CompiledCircuit::instructionCount() const
{
    size_t count = 0;
    for (const Segment &seg : segments)
        count += seg.program.instrs.size();
    return count;
}

namespace {

/** Sentinel "used by the output download set" (after every node). */
constexpr size_t kUseAtEnd = std::numeric_limits<size_t>::max();

/** Compile-time state of one circuit value. */
struct ValueState
{
    /** Memory-file slots (valid while resident). */
    std::vector<hw::PolyId> slots;
    /** Slots hold the value on chip. */
    bool resident = false;
    /** A current host copy exists (inputs always; spills afterwards). */
    bool host = false;
    /** The value was on chip at least once (distinguishes the first
     *  upload from a spill reload in the statistics). */
    bool ever_resident = false;
    /** First segment whose program may consume the host copy. */
    size_t host_ready_segment = 0;
    /** Consuming node indices, ascending; kUseAtEnd for outputs. */
    std::vector<size_t> uses;
};

class CircuitCompiler
{
  public:
    CircuitCompiler(std::shared_ptr<const fv::FvParams> params,
                    const Circuit &circuit,
                    const CompilerOptions &options)
        : params_(std::move(params)),
          circuit_(options.auto_mod_switch
                       ? insertModSwitches(circuit, params_)
                       : circuit),
          evaluator_(params_),
          alloc_(*params_, options.hw, /*throw_on_pressure=*/true),
          hoist_rotations_(options.hoist_rotations),
          noise_check_(options.noise_check),
          auto_mod_switch_(options.auto_mod_switch),
          resident_positions_(options.resident_inputs)
    {
        std::sort(resident_positions_.begin(), resident_positions_.end());
        out_.params = params_;
        out_.hw = options.hw;
    }

    CompiledCircuit
    compile()
    {
        circuit_.validate();
        checkNoise();
        analyze();
        pinResidentInputs();
        segments_.emplace_back();

        for (size_t i = 0; i < circuit_.nodes.size(); ++i) {
            const CircuitNode &node = circuit_.nodes[i];
            if (node.kind == NodeKind::kInput)
                continue;
            if (node.kind == NodeKind::kRelin) {
                panicIf(!relin_emitted_[i],
                        "relinearization was not fused with its "
                        "producer");
                continue;
            }
            emitNode(i);
            tagNewInstructions(static_cast<ValueId>(i));
        }

        // Only still-live outputs travel back; spilled outputs already
        // have a current host copy.
        for (ValueId out : circuit_.outputs) {
            const ValueState &vs = values_[out];
            if (!vs.resident)
                continue;
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                currentSegment().downloads.push_back(
                    Transfer{Transfer::Source::kValue, out, p,
                             vs.slots[p]});
        }

        while (!segments_.empty() && segments_.back().uploads.empty() &&
               segments_.back().downloads.empty() &&
               segments_.back().program.instrs.empty())
            segments_.pop_back();

        // Pinned operands must still be resident with their original
        // slots — anything else means a guard above was bypassed and a
        // warm rerun would read garbage.
        for (size_t k = 0; k < out_.resident_inputs.size(); ++k) {
            const ValueState &vs =
                values_[circuit_.inputs[out_.resident_inputs[k]]];
            panicIf(!vs.resident ||
                        vs.slots != std::vector<hw::PolyId>{
                            out_.resident_slots[k][0],
                            out_.resident_slots[k][1]},
                    "resident input lost its pinned slots");
        }

        // Square away the instruction->node tags: one entry per
        // instruction in every surviving segment (untagged stragglers
        // stay kNoValue).
        instr_nodes_.resize(segments_.size());
        for (size_t s = 0; s < segments_.size(); ++s)
            instr_nodes_[s].resize(segments_[s].program.instrs.size(),
                                   kNoValue);
        out_.instr_nodes = std::move(instr_nodes_);

        out_.segments = std::move(segments_);
        out_.slot_actions = alloc_.actions();
        out_.inputs = circuit_.inputs;
        out_.outputs = circuit_.outputs;
        out_.peak_slots = alloc_.peakSlots();
        out_.galois_elements =
            requiredGaloisElements(circuit_, params_->degree());
        out_.circuit = std::move(circuit_);
        return std::move(out_);
    }

  private:
    // --- analysis --------------------------------------------------------

    /** Budget-propagation pass: always annotates, and per the
     *  noise_check option warns about or rejects circuits whose
     *  predicted budget dies before the outputs. Under auto_mod_switch
     *  the estimate runs on the transformed circuit with the
     *  average-case bound — the one the level assignment plans with
     *  (the worst-case bound can never profit from dropping levels, so
     *  judging the assignment by it would reject every gain). Also
     *  fixes each value's ciphertext level for the lowering below. */
    void
    checkNoise()
    {
        const NoiseEstimate est = estimateCircuitNoise(
            params_, circuit_,
            auto_mod_switch_ ? fv::NoiseBound::kAverageCase
                             : fv::NoiseBound::kWorstCase);
        levels_ = est.levels;
        out_.value_levels.assign(levels_.begin(), levels_.end());
        out_.noise_budget_bits = est.budget_bits;
        out_.min_output_noise_budget_bits = est.min_output_budget_bits;
        out_.noise_exhausted_node = est.first_exhausted;
        if (est.ok() || noise_check_ == NoiseCheck::kOff)
            return;
        const std::string diagnostic =
            noiseDiagnostic(params_, circuit_, est);
        fatalIf(noise_check_ == NoiseCheck::kReject, diagnostic);
        std::fprintf(stderr, "compileCircuit: warning: %s\n",
                     diagnostic.c_str());
    }

    void
    analyze()
    {
        const size_t n = circuit_.nodes.size();
        values_.resize(n);
        relin_of_.assign(n, kNoValue);
        relin_emitted_.assign(n, false);
        is_output_.assign(n, false);
        pinned_value_.assign(n, false);
        out_.value_sizes.resize(n);

        for (size_t i = 0; i < n; ++i) {
            const CircuitNode &node = circuit_.nodes[i];
            out_.value_sizes[i] =
                static_cast<uint32_t>(circuit_.valueSize(
                    static_cast<ValueId>(i)));
            for (int a = 0; a < nodeArgCount(node.kind); ++a)
                values_[node.args[a]].uses.push_back(i);
            if (node.kind == NodeKind::kRelin)
                relin_of_[node.args[0]] = static_cast<ValueId>(i);
        }
        for (ValueId out : circuit_.outputs) {
            values_[out].uses.push_back(kUseAtEnd);
            is_output_[out] = true;
        }
        for (ValueId in : circuit_.inputs)
            values_[in].host = true;

        hoist_sizes_ = rotationHoistGroupSizes(circuit_);
        for (size_t i = 0; i < n; ++i) {
            if (isRotationNode(circuit_.nodes[i].kind) &&
                hoist_sizes_[i] >= 2)
                ++hoist_remaining_[circuit_.nodes[i].args[0]];
        }
    }

    /**
     * Allocate the resident inputs' slot pairs before anything else, so
     * their record ids are the deterministic prefix 0..2R-1 of the slot
     * action log: a warm coprocessor that kept these records through
     * resetToPinned() replays the remaining actions and lands on
     * exactly the same ids. No upload Transfer is emitted — the cold
     * execution path uploads the pinned operands directly, and warm
     * executions skip them entirely.
     */
    void
    pinResidentInputs()
    {
        for (uint32_t pos : resident_positions_) {
            fatalIf(pos >= circuit_.inputs.size(),
                    "resident input position ", pos,
                    " out of range for a circuit with ",
                    circuit_.inputs.size(), " inputs");
            const ValueId v = circuit_.inputs[pos];
            fatalIf(pinned_value_[v],
                    "duplicate resident input position ", pos);
            ValueState &vs = values_[v];
            alloc_.setLevel(levels_[v]);
            std::array<hw::PolyId, 2> slots{hw::kNoPoly, hw::kNoPoly};
            for (int p = 0; p < 2; ++p) {
                slots[p] = alloc_.allocate(hw::BaseTag::kQ,
                                           hw::Layout::kNatural,
                                           "resident input");
                panicIf(slots[p] !=
                            2 * out_.resident_inputs.size() +
                                static_cast<size_t>(p),
                        "resident input slots are not the record prefix");
            }
            vs.slots = {slots[0], slots[1]};
            vs.resident = true;
            vs.ever_resident = true;
            pinned_value_[v] = true;
            out_.resident_inputs.push_back(pos);
            out_.resident_slots.push_back(slots);
        }
        out_.resident_action_count = alloc_.actions().size();
    }

    size_t
    nextUseAfter(ValueId v, size_t node) const
    {
        for (size_t use : values_[v].uses) {
            if (use > node)
                return use;
        }
        return 0; // no further use (0 is never "after" a node)
    }

    bool
    deadAfter(ValueId v, size_t node) const
    {
        return nextUseAfter(v, node) == 0;
    }

    // --- segments and residency -----------------------------------------

    Segment &currentSegment() { return segments_.back(); }
    size_t currentSegmentIndex() const { return segments_.size() - 1; }

    /**
     * Bring @p v on chip. Inputs and constants are host-available from
     * the start, so their uploads simply join the current segment;
     * reloading a value spilled in the current segment needs a fresh
     * one (its download runs after this segment's program).
     */
    void
    ensureResident(ValueId v, std::span<const ValueId> pinned,
                   size_t node)
    {
        ValueState &vs = values_[v];
        if (vs.resident)
            return;
        panicIf(!vs.host, "value ", v,
                " is neither resident nor host-backed");

        const size_t size = out_.value_sizes[v];
        // A level-l value spans fewer residue slots — allocate at the
        // value's own level so reloads match the spilled polynomials.
        const size_t live =
            alloc_.liveResidues(hw::BaseTag::kQ, levels_[v]);
        makeRoom(size * live, pinned, node);

        if (currentSegmentIndex() < vs.host_ready_segment)
            segments_.emplace_back();

        const char *label =
            vs.ever_resident ? "spill reload" : "circuit input";
        vs.slots.clear();
        alloc_.setLevel(levels_[v]);
        for (uint32_t p = 0; p < size; ++p) {
            const hw::PolyId slot = alloc_.allocate(
                hw::BaseTag::kQ, hw::Layout::kNatural, label);
            vs.slots.push_back(slot);
            currentSegment().uploads.push_back(
                Transfer{Transfer::Source::kValue, v, p, slot});
        }
        if (vs.ever_resident)
            out_.reloaded_polys += size;
        vs.resident = true;
        vs.ever_resident = true;
    }

    /** Spill live values until @p need slots are free. */
    void
    makeRoom(size_t need, std::span<const ValueId> pinned, size_t node)
    {
        while (alloc_.freeSlots() < need) {
            if (!spillOne(pinned, node))
                outOfSlots(node, need);
        }
    }

    [[noreturn]] void
    outOfSlots(size_t node, size_t need) const
    {
        fatal("circuit does not fit the memory file at node ", node,
              " (", nodeKindName(circuit_.nodes[node].kind), "): need ",
              need, " slots, ", alloc_.freeSlots(), " free of ",
              alloc_.capacity(), " (live ", alloc_.slotsInUse(),
              ", peak ", alloc_.peakSlots(),
              ") and no spillable value remains");
    }

    /**
     * Spill the resident value with the farthest next use (Belady).
     * Values whose host copy is already current (inputs, previously
     * spilled values) just drop their slots; everything else is DMA'd
     * back through a download appended to the current segment.
     */
    bool
    spillOne(std::span<const ValueId> pinned, size_t node)
    {
        ValueId victim = kNoValue;
        size_t victim_next = 0;
        for (size_t v = 0; v < values_.size(); ++v) {
            const ValueState &vs = values_[v];
            if (!vs.resident || pinned_value_[v])
                continue;
            if (std::find(pinned.begin(), pinned.end(),
                          static_cast<ValueId>(v)) != pinned.end())
                continue;
            const size_t next =
                nextUseAfter(static_cast<ValueId>(v), node);
            if (victim == kNoValue || next > victim_next) {
                victim = static_cast<ValueId>(v);
                victim_next = next;
            }
        }
        if (victim == kNoValue)
            return false;

        ValueState &vs = values_[victim];
        if (!vs.host) {
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                currentSegment().downloads.push_back(
                    Transfer{Transfer::Source::kValue, victim, p,
                             vs.slots[p]});
            out_.spilled_polys += vs.slots.size();
            vs.host = true;
            vs.host_ready_segment = currentSegmentIndex() + 1;
        }
        for (hw::PolyId slot : vs.slots)
            alloc_.release(slot);
        vs.slots.clear();
        vs.resident = false;
        return true;
    }

    /**
     * Store a live value back to the host while keeping its slots
     * resident, so the current node can consume (and the emitter
     * release) them. The download must complete before the consuming
     * instructions overwrite the records, hence the segment break.
     */
    void
    spillOperandKeepResident(ValueId v)
    {
        ValueState &vs = values_[v];
        panicIf(!vs.resident, "demoting a non-resident operand");
        if (!vs.host) {
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                currentSegment().downloads.push_back(
                    Transfer{Transfer::Source::kValue, v, p,
                             vs.slots[p]});
            out_.spilled_polys += vs.slots.size();
            vs.host = true;
            vs.host_ready_segment = currentSegmentIndex() + 1;
            segments_.emplace_back();
        }
    }

    // --- constants --------------------------------------------------------

    /** Encode (once per level) and stage (per use) a plaintext
     *  constant. Constants are level-specific: a level-l consumer needs
     *  the plaintext embedded in R_{q_l} (and scaled by Delta_l for
     *  AddPlain), so the pool is keyed by (plain index, level). */
    hw::PolyId
    stageConstant(const CircuitNode &node, size_t node_index,
                  std::span<const ValueId> pinned)
    {
        const size_t level = levels_[node_index];
        auto &cache = node.kind == NodeKind::kAddPlain
                          ? plain_const_add_
                          : plain_const_mul_;
        auto [it, fresh] =
            cache.try_emplace({node.plain, level}, -1);
        if (fresh) {
            const fv::Plaintext &plain = circuit_.plains[node.plain];
            out_.constants.push_back(
                node.kind == NodeKind::kAddPlain
                    ? evaluator_.scaledPlain(plain, level)
                    : evaluator_.embeddedPlain(plain, level));
            it->second = static_cast<int32_t>(out_.constants.size() - 1);
        }

        const size_t live = alloc_.liveResidues(hw::BaseTag::kQ, level);
        makeRoom(live, pinned, node_index);
        alloc_.setLevel(level);
        const hw::PolyId slot = alloc_.allocate(
            hw::BaseTag::kQ, hw::Layout::kNatural, "plaintext constant");
        currentSegment().uploads.push_back(
            Transfer{Transfer::Source::kConstant,
                     static_cast<uint32_t>(it->second), 0, slot});
        return slot;
    }

    // --- node emission ----------------------------------------------------

    std::array<hw::PolyId, 2>
    pair(ValueId v) const
    {
        const ValueState &vs = values_[v];
        panicIf(vs.slots.size() < 2, "value ", v, " has no slot pair");
        return {vs.slots[0], vs.slots[1]};
    }

    struct EmitResult
    {
        std::vector<hw::PolyId> result;       // slots of value i
        std::vector<hw::PolyId> relin_result; // slots of the fused relin
        /** Shared key-switch digit slots a hoist group's first member
         *  materialized (committed to hoist_digits_ on success). */
        std::vector<hw::PolyId> hoist_digits;
    };

    void
    emitNode(size_t i)
    {
        const CircuitNode &node = circuit_.nodes[i];

        std::vector<ValueId> operands;
        for (int a = 0; a < nodeArgCount(node.kind); ++a)
            operands.push_back(node.args[a]);

        for (ValueId v : operands)
            ensureResident(v, operands, i);

        hw::PolyId plain_slot = hw::kNoPoly;
        if (node.plain >= 0)
            plain_slot = stageConstant(node, i, operands);

        // Consume flags: an operand whose last use this is may be
        // overwritten, aliased into the result, or released by the
        // emitter — its slots die with it either way. Mult/Square can
        // additionally consume a still-live operand whose host copy is
        // current ("demotion"): the emitter releases its slots instead
        // of copying them, and a later use reloads from the host.
        // Rotation emitters never consume (their results are always
        // fresh slots); dead rotation operands release through the
        // generic death handling below.
        const bool rotation_like =
            isRotationNode(node.kind) ||
            node.kind == NodeKind::kRotateSum;
        bool consume_a = !rotation_like &&
                         !pinned_value_[operands[0]] &&
                         deadAfter(operands[0], i);
        bool consume_b = operands.size() > 1 &&
                         operands[1] != operands[0] &&
                         !pinned_value_[operands[1]] &&
                         deadAfter(operands[1], i);
        bool demoted_a = false;
        bool demoted_b = false;
        const bool can_demote = node.kind == NodeKind::kMult ||
                                node.kind == NodeKind::kSquare;

        // Emit at the operand's level: every emitter allocates its
        // temporaries and results against the allocator level, and a
        // kModSwitch emitter moves it one deeper itself. (The snapshot
        // below captures the level, so rollbacks keep it.)
        alloc_.setLevel(levels_[operands[0]]);

        // Retry loop: a failed allocation rolls the partial emission
        // back, frees slots one step at a time and tries again.
        EmitResult emitted;
        for (;;) {
            const hw::CountingAllocator alloc_snapshot = alloc_;
            const size_t n_instrs = currentSegment().program.instrs.size();
            const hw::PolyId zero_snapshot = zero_;
            try {
                emitted = emitOp(i, node, operands, plain_slot,
                                 consume_a, consume_b);
                break;
            } catch (const hw::SlotPressureError &e) {
                alloc_ = alloc_snapshot;
                currentSegment().program.instrs.resize(n_instrs);
                zero_ = zero_snapshot;
                if (spillOne(operands, i))
                    continue;
                // Pinned operands can never be demoted: their slots
                // must survive the whole program for warm reruns.
                if (can_demote && !consume_a &&
                    !pinned_value_[operands[0]] &&
                    values_[operands[0]].host) {
                    consume_a = true;
                    demoted_a = true;
                    continue;
                }
                if (can_demote && operands.size() > 1 &&
                    operands[1] != operands[0] && !consume_b &&
                    !pinned_value_[operands[1]] &&
                    values_[operands[1]].host) {
                    consume_b = true;
                    demoted_b = true;
                    continue;
                }
                // Last resort: store a live operand back to the host
                // (a segment break — its data must leave before the
                // schedule overwrites it) and let the op consume it.
                if (can_demote && !consume_a &&
                    !pinned_value_[operands[0]]) {
                    spillOperandKeepResident(operands[0]);
                    consume_a = true;
                    demoted_a = true;
                    continue;
                }
                if (can_demote && operands.size() > 1 &&
                    operands[1] != operands[0] && !consume_b &&
                    !pinned_value_[operands[1]]) {
                    spillOperandKeepResident(operands[1]);
                    consume_b = true;
                    demoted_b = true;
                    continue;
                }
                fatal("circuit does not fit the memory file at node ",
                      i, " (", nodeKindName(node.kind), "): ", e.what(),
                      "; no spillable value remains");
            }
        }

        // Hoist-group bookkeeping: commit freshly-materialized shared
        // digits, and release them after the group's last rotation.
        if (isRotationNode(node.kind) && hoist_sizes_[i] >= 2 &&
            hoist_rotations_) {
            if (!emitted.hoist_digits.empty())
                hoist_digits_[operands[0]] = emitted.hoist_digits;
            uint32_t &remaining = hoist_remaining_[operands[0]];
            if (--remaining == 0) {
                const auto it = hoist_digits_.find(operands[0]);
                if (it != hoist_digits_.end()) {
                    for (hw::PolyId d : it->second)
                        alloc_.release(d);
                    hoist_digits_.erase(it);
                }
            }
        }

        // Results become resident values.
        const ValueId relin_node =
            (node.kind == NodeKind::kMult ||
             node.kind == NodeKind::kSquare)
                ? relin_of_[i]
                : kNoValue;
        if (!emitted.result.empty()) {
            ValueState &vs = values_[i];
            vs.slots = emitted.result;
            vs.resident = true;
            vs.ever_resident = true;
        }
        if (relin_node != kNoValue) {
            ValueState &vs = values_[relin_node];
            vs.slots = emitted.relin_result;
            vs.resident = true;
            vs.ever_resident = true;
            relin_emitted_[relin_node] = true;
        }

        // Operand death. Consumed operands were overwritten/aliased/
        // released by the emitter; dead-but-unconsumed ones (the b side
        // of element-wise ops) release their slots here.
        const bool emitter_consumes_b =
            node.kind == NodeKind::kMult || node.kind == NodeKind::kSquare;
        for (size_t k = 0; k < operands.size(); ++k) {
            const ValueId v = operands[k];
            if (k > 0 && v == operands[0])
                continue; // same value, handled once
            if (pinned_value_[v])
                continue; // stays resident for warm reruns
            if (!deadAfter(v, i))
                continue;
            ValueState &vs = values_[v];
            const bool consumed =
                (k == 0 && consume_a) ||
                (k == 1 && consume_b && emitter_consumes_b);
            if (!consumed) {
                for (hw::PolyId slot : vs.slots)
                    alloc_.release(slot);
            }
            vs.slots.clear();
            vs.resident = false;
        }

        // Demoted operands gave their slots to the op (the emitter
        // released them); the value itself lives on through its host
        // copy and reloads at its next use.
        if (demoted_a && !deadAfter(operands[0], i)) {
            values_[operands[0]].slots.clear();
            values_[operands[0]].resident = false;
        }
        if (demoted_b && !deadAfter(operands[1], i)) {
            values_[operands[1]].slots.clear();
            values_[operands[1]].resident = false;
        }

        if (plain_slot != hw::kNoPoly)
            alloc_.release(plain_slot);

        // Values nothing will ever read (dead on arrival) free their
        // slots immediately.
        retireIfUnused(static_cast<ValueId>(i), i);
        if (relin_node != kNoValue)
            retireIfUnused(relin_node, i);
    }

    /** Attribute every instruction not yet tagged to @p node: called
     *  right after emitNode(i), so the delta since the previous sync —
     *  including spill traffic and reloads the node's emission forced,
     *  across any segments it opened — charges to node i. Rolled-back
     *  partial emissions never reach here (tags happen on success). */
    void
    tagNewInstructions(ValueId node)
    {
        instr_nodes_.resize(segments_.size());
        for (size_t s = 0; s < segments_.size(); ++s)
            instr_nodes_[s].resize(segments_[s].program.instrs.size(),
                                   node);
    }

    void
    retireIfUnused(ValueId v, size_t node)
    {
        ValueState &vs = values_[v];
        if (!vs.resident || !deadAfter(v, node))
            return;
        for (hw::PolyId slot : vs.slots)
            alloc_.release(slot);
        vs.slots.clear();
        vs.resident = false;
    }

    EmitResult
    emitOp(size_t i, const CircuitNode &node,
           std::span<const ValueId> operands, hw::PolyId plain_slot,
           bool consume_a, bool consume_b)
    {
        hw::OpEmitter em(*params_, alloc_, currentSegment().program);
        em.setZeroSlotId(zero_);

        EmitResult out;
        const auto asVector = [](std::array<hw::PolyId, 2> r) {
            return std::vector<hw::PolyId>{r[0], r[1]};
        };
        switch (node.kind) {
          case NodeKind::kAdd:
            out.result = asVector(em.emitAdd(
                pair(operands[0]), pair(operands[1]), consume_a));
            break;
          case NodeKind::kSub:
            out.result = asVector(em.emitSub(
                pair(operands[0]), pair(operands[1]), consume_a));
            break;
          case NodeKind::kNegate:
            out.result =
                asVector(em.emitNegate(pair(operands[0]), consume_a));
            break;
          case NodeKind::kAddPlain:
            out.result = asVector(em.emitAddPlain(
                pair(operands[0]), plain_slot, consume_a));
            break;
          case NodeKind::kMultPlain:
            out.result = asVector(em.emitMultPlain(
                pair(operands[0]), plain_slot, consume_a));
            break;
          case NodeKind::kMult:
          case NodeKind::kSquare: {
            const ValueId relin_node = relin_of_[i];
            const bool has_relin = relin_node != kNoValue;
            // A 3-element value the caller wants back (or that nothing
            // relinearizes) must materialize c2; a relin-only tensor
            // lets the digit broadcast replace it.
            const bool want_c2 = is_output_[i] || !has_relin;
            const bool square =
                node.kind == NodeKind::kSquare ||
                (operands.size() > 1 && operands[0] == operands[1]);
            hw::OpEmitter::MultResult tensor =
                square
                    ? em.emitSquare(pair(operands[0]), consume_a,
                                    has_relin, want_c2)
                    : em.emitMult(pair(operands[0]), pair(operands[1]),
                                  consume_a, consume_b, has_relin,
                                  want_c2);
            if (want_c2)
                out.result = {tensor.ct[0], tensor.ct[1], tensor.ct[2]};
            if (has_relin) {
                // In-place accumulation would clobber c0/c1, so a
                // tensor that must survive as a value is copied first.
                const std::array<hw::PolyId, 2> relin = em.emitRelin(
                    tensor.ct[0], tensor.ct[1], tensor.digits,
                    /*consume_c01=*/!want_c2);
                out.relin_result = {relin[0], relin[1]};
            }
            break;
          }
          case NodeKind::kRotate:
          case NodeKind::kRotateColumns: {
            const uint32_t g = rotationElement(node, params_->degree());
            const std::array<hw::PolyId, 2> a = pair(operands[0]);
            if (g == 1) {
                // Identity rotation (steps congruent to zero): a fresh
                // copy, no key-switch, no shared digits consumed.
                out.result = {em.copyPoly(a[0]), em.copyPoly(a[1])};
            } else if (hoist_sizes_[i] < 2) {
                out.result = asVector(em.emitApplyGalois(a, g));
            } else if (!hoist_rotations_) {
                // Hoisted numerics without the sharing: the bit-exact
                // baseline the hoisting benchmark compares against.
                out.result =
                    asVector(em.emitApplyGaloisHoistedSingle(a, g));
            } else {
                const auto it = hoist_digits_.find(operands[0]);
                if (it == hoist_digits_.end()) {
                    out.hoist_digits =
                        em.emitDecomposeNtt(a[1]);
                    out.result = asVector(
                        em.emitHoistedGalois(a, out.hoist_digits, g));
                } else {
                    out.result = asVector(
                        em.emitHoistedGalois(a, it->second, g));
                }
            }
            break;
          }
          case NodeKind::kRotateSum:
            out.result = asVector(em.emitRotateSum(pair(operands[0])));
            break;
          case NodeKind::kModSwitch:
            out.result = asVector(
                em.emitModSwitch(pair(operands[0]), consume_a));
            break;
          case NodeKind::kInput:
          case NodeKind::kRelin:
            panic("node kind cannot be emitted directly");
        }

        zero_ = em.zeroSlotId();
        return out;
    }

    std::shared_ptr<const fv::FvParams> params_;
    /** Owned: the caller's circuit, or its insertModSwitches transform. */
    Circuit circuit_;
    fv::Evaluator evaluator_;
    hw::CountingAllocator alloc_;

    CompiledCircuit out_;
    std::vector<Segment> segments_;
    /** Instruction->node tags, kept in sync by tagNewInstructions(). */
    std::vector<std::vector<ValueId>> instr_nodes_;
    std::vector<ValueState> values_;
    std::vector<ValueId> relin_of_;
    std::vector<bool> relin_emitted_;
    std::vector<bool> is_output_;
    /** Value is a pinned resident input (never spilled or released). */
    std::vector<bool> pinned_value_;
    /** Constant-pool index per (plain index, ciphertext level). */
    std::map<std::pair<int32_t, size_t>, int32_t> plain_const_add_;
    std::map<std::pair<int32_t, size_t>, int32_t> plain_const_mul_;
    hw::PolyId zero_ = hw::kNoPoly;

    bool hoist_rotations_;
    NoiseCheck noise_check_;
    bool auto_mod_switch_;
    /** Sorted copy of CompilerOptions::resident_inputs. */
    std::vector<uint32_t> resident_positions_;
    /** Ciphertext level per value id (valueLevels of circuit_). */
    std::vector<size_t> levels_;
    /** Per-node hoist-group size (0 for non-rotation nodes). */
    std::vector<uint32_t> hoist_sizes_;
    /** Rotations of each grouped input not yet emitted. */
    std::map<ValueId, uint32_t> hoist_remaining_;
    /** Live shared NTT-domain digit slots, keyed by rotated input. */
    std::map<ValueId, std::vector<hw::PolyId>> hoist_digits_;
};

} // namespace

void
validateInput(const fv::FvParams &params, const fv::Ciphertext &ct)
{
    fatalIf(ct.size() != 2, "circuit inputs must be size-2 "
                            "ciphertexts (relinearize first)");
    fatalIf(ct.level != 0,
            "circuit inputs enter at level 0 (the compiler inserts "
            "any mod-switches itself); got level ", ct.level);
    for (size_t i = 0; i < ct.size(); ++i) {
        fatalIf(ct[i].degree() != params.degree() ||
                    ct[i].residueCount() != params.qBase()->size(),
                "input polynomial does not match the parameter set");
        fatalIf(ct[i].form() != ntt::PolyForm::kCoeff,
                "inputs must be in coefficient form (what the DMA "
                "streams to the accelerator)");
    }
}

namespace {

void
validateInputs(const fv::FvParams &params,
               std::span<const fv::Ciphertext> inputs, size_t expected)
{
    fatalIf(inputs.size() != expected, "circuit expects ", expected,
            " inputs, got ", inputs.size());
    for (const fv::Ciphertext &ct : inputs)
        validateInput(params, ct);
}

/**
 * Shared executor behind runCompiledCircuit / runCompiledCircuitWarm.
 * @p inputs holds one pointer per circuit input position; resident
 * positions may be null on the warm path (their operands are already
 * in the pinned memory-file prefix).
 */
std::vector<fv::Ciphertext>
runCompiledImpl(hw::Coprocessor &cp, const CompiledCircuit &compiled,
                std::span<const fv::Ciphertext *const> inputs,
                bool warm, CircuitRunStats *stats)
{
    const hw::ArmHostModel host(compiled.params, cp.config());
    const size_t resident_count = compiled.resident_inputs.size();

    CircuitRunStats run;
    run.segments = compiled.segments.size();

    // Modeled-time tracing (see obs/trace.h): host-transfer spans are
    // emitted here; cp.execute() emits the per-instruction spans and
    // advances the shared thread-local modeled clock itself.
    obs::Tracer *const tracer = obs::activeTracer();
    const double trace_start_us = obs::modeledNowUs();
    // Exact sum of every modeled advance under this span — reported as
    // the run-circuit duration instead of end-minus-start, whose
    // rounding depends on the worker clock's base value (determinism
    // across worker counts).
    double traced_us = 0.0;
    const auto hostSpan = [&](const char *name, double dur_us) {
        if (tracer == nullptr || dur_us <= 0.0)
            return;
        obs::recordModeledSpan(name, "host", obs::modeledNowUs(), dur_us);
        obs::advanceModeledUs(dur_us);
        traced_us += dur_us;
    };

    if (warm) {
        fatalIf(resident_count == 0,
                "warm execution needs a circuit compiled with "
                "resident inputs");
        fatalIf(cp.memory().pinnedRecords() != 2 * resident_count,
                "coprocessor does not hold this circuit's pinned "
                "prefix (", cp.memory().pinnedRecords(),
                " pinned records, expected ", 2 * resident_count,
                "); run a cold pass first");
        cp.memory().resetToPinned();
        hw::replaySlotActions(
            cp.memory(),
            std::span<const hw::SlotAction>(compiled.slot_actions)
                .subspan(compiled.resident_action_count));
    } else {
        cp.reset();
        hw::replaySlotActions(cp.memory(), compiled.slot_actions);
        // Pinned operands bypass the segment upload lists: they are
        // DMA'd straight into their prefix slots once, here, and then
        // survive every warm rerun through resetToPinned().
        for (size_t k = 0; k < resident_count; ++k) {
            const fv::Ciphertext &ct =
                *inputs[compiled.resident_inputs[k]];
            for (int p = 0; p < 2; ++p)
                cp.uploadInto(compiled.resident_slots[k][p], ct[p]);
        }
        if (resident_count > 0) {
            run.uploaded_polys += 2 * resident_count;
            const double us = host.sendPolysUs(2 * resident_count);
            run.host_us += us;
            hostSpan("upload:resident", us);
            cp.memory().setPinnedRecords(2 * resident_count);
        }
    }

    std::vector<std::vector<ntt::RnsPoly>> values(
        compiled.value_sizes.size());
    for (size_t k = 0; k < compiled.inputs.size(); ++k) {
        if (inputs[k] != nullptr)
            values[compiled.inputs[k]] = {(*inputs[k])[0],
                                          (*inputs[k])[1]};
    }

    for (const Segment &seg : compiled.segments) {
        for (const Transfer &up : seg.uploads) {
            const ntt::RnsPoly &src =
                up.source == Transfer::Source::kConstant
                    ? compiled.constants[up.index]
                    : values[up.index][up.poly];
            panicIf(src.degree() == 0, "upload source is not available");
            cp.uploadInto(up.slot, src);
        }
        run.uploaded_polys += seg.uploads.size();
        if (!seg.uploads.empty()) {
            const double us = host.sendPolysUs(seg.uploads.size());
            run.host_us += us;
            hostSpan("upload", us);
        }

        const hw::ExecStats es =
            cp.execute(seg.program, hw::DispatchMode::kFusedProgram);
        traced_us += es.traced_us;
        run.fpga_cycles += es.fpga_cycles;
        run.dma_us += es.dma_us;
        run.instructions += es.instructions;
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            run.unit_cycles[u] += es.unit_cycles[u];
        if (!seg.program.instrs.empty())
            ++run.dispatches;

        for (const Transfer &down : seg.downloads) {
            std::vector<ntt::RnsPoly> &store = values[down.index];
            store.resize(compiled.value_sizes[down.index]);
            // Value polynomials are q-base; the record may be slot-
            // extended by a later lift of this fused program.
            store[down.poly] = cp.memory().exportQBase(down.slot);
        }
        run.downloaded_polys += seg.downloads.size();
        if (!seg.downloads.empty()) {
            const double us = host.receivePolysUs(seg.downloads.size());
            run.host_us += us;
            hostSpan("download", us);
        }
    }
    if (tracer != nullptr) {
        obs::recordModeledSpan(
            warm ? "run-circuit:warm" : "run-circuit", "compiler",
            trace_start_us, traced_us,
            {{"segments", std::to_string(run.segments)},
             {"instructions", std::to_string(run.instructions)},
             {"fpga_cycles", std::to_string(run.fpga_cycles)}});
    }

    std::vector<fv::Ciphertext> outputs;
    outputs.reserve(compiled.outputs.size());
    for (ValueId out : compiled.outputs) {
        const std::vector<ntt::RnsPoly> &store = values[out];
        panicIf(store.size() != compiled.value_sizes[out],
                "output value ", out, " was never materialized");
        fv::Ciphertext ct;
        ct.level = out < compiled.value_levels.size()
                       ? compiled.value_levels[out]
                       : 0;
        for (const ntt::RnsPoly &poly : store) {
            panicIf(poly.degree() == 0, "output polynomial missing");
            ct.polys.push_back(poly);
        }
        outputs.push_back(std::move(ct));
    }
    if (stats != nullptr)
        *stats = run;
    return outputs;
}

} // namespace

VerifyCheck
defaultVerifyCheck()
{
    static const VerifyCheck check = [] {
        const char *env = std::getenv("HEAT_VERIFY");
        if (env == nullptr)
            return VerifyCheck::kWarn;
        const std::string_view v(env);
        if (v == "off")
            return VerifyCheck::kOff;
        if (v == "reject")
            return VerifyCheck::kReject;
        if (v != "warn")
            std::fprintf(stderr,
                         "HEAT_VERIFY: unknown value \"%s\" (want "
                         "off|warn|reject); using warn\n",
                         env);
        return VerifyCheck::kWarn;
    }();
    return check;
}

CompiledCircuit
compileCircuit(std::shared_ptr<const fv::FvParams> params,
               const Circuit &circuit, const CompilerOptions &options)
{
    CompiledCircuit out =
        CircuitCompiler(std::move(params), circuit, options).compile();
    out.node_cycles = attributeCompiledCircuit(out).node_cycles;
    if (options.verify != VerifyCheck::kOff) {
        const verify::VerifyResult result =
            verify::verifyCompiledCircuit(out);
        if (!result.ok()) {
            fatalIf(options.verify == VerifyCheck::kReject,
                    "compiled circuit failed static verification\n",
                    result.report());
            std::fprintf(stderr,
                         "compileCircuit: warning: static verifier: %s",
                         result.report().c_str());
        }
    }
    return out;
}

CompiledCircuit
compileOpCircuit(std::shared_ptr<const fv::FvParams> params, NodeKind kind,
                 const hw::HwConfig &config)
{
    fatalIf(kind != NodeKind::kAdd && kind != NodeKind::kMult,
            "compileOpCircuit: ", nodeKindName(kind),
            " is not a served operation");
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    b.output(kind == NodeKind::kAdd ? b.add(x, y) : b.mult(x, y));
    CompilerOptions options;
    options.hw = config;
    options.noise_check = NoiseCheck::kOff;
    options.verify = VerifyCheck::kOff;
    return compileCircuit(std::move(params), b.build(), options);
}

std::vector<fv::Ciphertext>
runCompiledCircuit(hw::Coprocessor &cp, const CompiledCircuit &compiled,
                   std::span<const fv::Ciphertext> inputs,
                   CircuitRunStats *stats)
{
    validateInputs(*compiled.params, inputs, compiled.inputs.size());
    std::vector<const fv::Ciphertext *> ptrs;
    ptrs.reserve(inputs.size());
    for (const fv::Ciphertext &ct : inputs)
        ptrs.push_back(&ct);
    return runCompiledImpl(cp, compiled, ptrs, /*warm=*/false, stats);
}

std::vector<fv::Ciphertext>
runCompiledCircuitWarm(hw::Coprocessor &cp,
                       const CompiledCircuit &compiled,
                       std::span<const fv::Ciphertext> request_inputs,
                       CircuitRunStats *stats)
{
    fatalIf(request_inputs.size() + compiled.resident_inputs.size() !=
                compiled.inputs.size(),
            "circuit expects ",
            compiled.inputs.size() - compiled.resident_inputs.size(),
            " non-resident inputs, got ", request_inputs.size());
    std::vector<const fv::Ciphertext *> ptrs(compiled.inputs.size(),
                                             nullptr);
    std::vector<bool> resident(compiled.inputs.size(), false);
    for (uint32_t pos : compiled.resident_inputs)
        resident[pos] = true;
    size_t next = 0;
    for (size_t k = 0; k < ptrs.size(); ++k) {
        if (resident[k])
            continue;
        validateInput(*compiled.params, request_inputs[next]);
        ptrs[k] = &request_inputs[next++];
    }
    return runCompiledImpl(cp, compiled, ptrs, /*warm=*/true, stats);
}

std::vector<fv::Ciphertext>
runCircuitOpByOp(hw::Coprocessor &cp,
                 std::shared_ptr<const fv::FvParams> params,
                 const Circuit &circuit,
                 std::span<const fv::Ciphertext> inputs,
                 CircuitRunStats *stats)
{
    circuit.validate();
    validateInputs(*params, inputs, circuit.inputs.size());
    const fv::Evaluator evaluator(params);
    const hw::ArmHostModel host(params, cp.config());

    std::vector<ValueId> relin_of(circuit.nodes.size(), kNoValue);
    std::vector<bool> is_output(circuit.nodes.size(), false);
    const std::vector<uint32_t> hoist_sizes =
        rotationHoistGroupSizes(circuit);
    const std::vector<size_t> levels = valueLevels(circuit);
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        if (circuit.nodes[i].kind == NodeKind::kRelin)
            relin_of[circuit.nodes[i].args[0]] =
                static_cast<ValueId>(i);
    }
    for (ValueId out : circuit.outputs)
        is_output[out] = true;

    std::vector<fv::Ciphertext> values(circuit.nodes.size());
    CircuitRunStats run;
    size_t next_input = 0;

    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        const CircuitNode &node = circuit.nodes[i];
        if (node.kind == NodeKind::kInput) {
            values[i] = inputs[next_input++];
            continue;
        }
        if (node.kind == NodeKind::kRelin)
            continue; // folded into its producer's round trip

        // One full round trip per operation: reprogram, upload the
        // operands, dispatch per instruction, download the results.
        // Temporaries allocate at the operand's level (uploads size
        // their records from the polynomial itself; a kModSwitch
        // emitter moves the allocator one level deeper on its own).
        cp.reset();
        cp.memory().setLevel(levels[node.args[0]]);
        hw::Program program;
        hw::OpEmitter em(*params, cp.memory(), program);

        const auto uploadValue = [&](ValueId v) {
            const fv::Ciphertext &ct = values[v];
            std::array<hw::PolyId, 2> slots{hw::kNoPoly, hw::kNoPoly};
            for (int p = 0; p < 2; ++p)
                slots[p] = cp.uploadPoly(ct[p]);
            run.uploaded_polys += 2;
            return slots;
        };
        const auto uploadPlain = [&](const ntt::RnsPoly &poly) {
            run.uploaded_polys += 1;
            return cp.uploadPoly(poly);
        };

        std::vector<std::pair<ValueId, std::vector<hw::PolyId>>> results;
        size_t round_uploads = 0;
        switch (node.kind) {
          case NodeKind::kAdd: {
            const auto a = uploadValue(node.args[0]);
            const auto b = uploadValue(node.args[1]);
            round_uploads = 4;
            const auto r = em.emitAdd(a, b, /*consume_a=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kSub: {
            const auto a = uploadValue(node.args[0]);
            const auto b = uploadValue(node.args[1]);
            round_uploads = 4;
            const auto r = em.emitSub(a, b, /*consume_a=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kNegate: {
            const auto a = uploadValue(node.args[0]);
            round_uploads = 2;
            const auto r = em.emitNegate(a, /*consume=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kAddPlain: {
            const auto a = uploadValue(node.args[0]);
            const hw::PolyId plain = uploadPlain(evaluator.scaledPlain(
                circuit.plains[node.plain], levels[i]));
            round_uploads = 3;
            const auto r = em.emitAddPlain(a, plain, /*consume=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kMultPlain: {
            const auto a = uploadValue(node.args[0]);
            const hw::PolyId plain = uploadPlain(evaluator.embeddedPlain(
                circuit.plains[node.plain], levels[i]));
            round_uploads = 3;
            const auto r = em.emitMultPlain(a, plain, /*consume=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kMult:
          case NodeKind::kSquare: {
            const ValueId relin_node = relin_of[i];
            const bool has_relin = relin_node != kNoValue;
            const bool want_c2 = is_output[static_cast<ValueId>(i)] ||
                                 !has_relin;
            const bool square =
                node.kind == NodeKind::kSquare ||
                node.args[0] == node.args[1];
            hw::OpEmitter::MultResult tensor;
            if (square) {
                const auto a = uploadValue(node.args[0]);
                round_uploads = 2;
                tensor = em.emitSquare(a, /*consume=*/true, has_relin,
                                       want_c2);
            } else {
                const auto a = uploadValue(node.args[0]);
                const auto b = uploadValue(node.args[1]);
                round_uploads = 4;
                tensor = em.emitMult(a, b, true, true, has_relin,
                                     want_c2);
            }
            if (want_c2)
                results.push_back(
                    {static_cast<ValueId>(i),
                     {tensor.ct[0], tensor.ct[1], tensor.ct[2]}});
            if (has_relin) {
                const auto r =
                    em.emitRelin(tensor.ct[0], tensor.ct[1],
                                 tensor.digits,
                                 /*consume_c01=*/!want_c2);
                results.push_back({relin_node, {r[0], r[1]}});
            }
            break;
          }
          case NodeKind::kRotate:
          case NodeKind::kRotateColumns: {
            const auto a = uploadValue(node.args[0]);
            round_uploads = 2;
            const uint32_t g = rotationElement(node, params->degree());
            // Hoist-group members keep the hoisted numerics so the
            // op-by-op baseline stays bit-identical to the fused path
            // — it just pays the decompose per rotation.
            const auto r =
                hoist_sizes[i] >= 2
                    ? em.emitApplyGaloisHoistedSingle(a, g)
                    : em.emitApplyGalois(a, g);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kRotateSum: {
            const auto a = uploadValue(node.args[0]);
            round_uploads = 2;
            const auto r = em.emitRotateSum(a);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kModSwitch: {
            const auto a = uploadValue(node.args[0]);
            round_uploads = 2;
            const auto r = em.emitModSwitch(a, /*consume=*/true);
            results.push_back({static_cast<ValueId>(i), {r[0], r[1]}});
            break;
          }
          case NodeKind::kInput:
          case NodeKind::kRelin:
            panic("unreachable");
        }

        const hw::ExecStats es =
            cp.execute(program, hw::DispatchMode::kPerInstruction);
        run.fpga_cycles += es.fpga_cycles;
        run.dma_us += es.dma_us;
        run.instructions += es.instructions;
        run.dispatches += es.instructions;
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            run.unit_cycles[u] += es.unit_cycles[u];
        run.segments += 1;

        size_t round_downloads = 0;
        for (const auto &[value, slots] : results) {
            fv::Ciphertext ct;
            ct.level = levels[value];
            for (hw::PolyId slot : slots)
                ct.polys.push_back(cp.downloadPoly(slot));
            round_downloads += slots.size();
            values[value] = std::move(ct);
        }
        run.downloaded_polys += round_downloads;
        const double round_host_us = host.sendPolysUs(round_uploads) +
                                     host.receivePolysUs(round_downloads);
        run.host_us += round_host_us;
        if (obs::activeTracer() != nullptr) {
            obs::recordModeledSpan("host-roundtrip", "host",
                                   obs::modeledNowUs(), round_host_us);
            obs::advanceModeledUs(round_host_us);
        }
    }

    std::vector<fv::Ciphertext> outputs;
    outputs.reserve(circuit.outputs.size());
    for (ValueId out : circuit.outputs)
        outputs.push_back(values[out]);
    if (stats != nullptr)
        *stats = run;
    return outputs;
}

} // namespace heat::compiler
