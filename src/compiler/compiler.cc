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

using hw::Layout;

/** Domain per polynomial of a value (a 3-element value is natural). */
using Forms = std::array<Layout, 3>;

constexpr Forms kAllNatural = {Layout::kNatural, Layout::kNatural,
                               Layout::kNatural};

/** Where a rotation reads c0. */
enum class C0From : uint8_t
{
    kOperand,   ///< the rotated value's own c0, in its domain
    kGroupCopy, ///< the hoist group's NTT-domain copy of c0
    kNewCopy,   ///< a group copy this rotation makes (one forward NTT)
};

/** What a rotation's domain plan needs to know of its hoist group. */
struct HoistState
{
    /** The rotation shares its group's digits (hoisting on, >= 2
     *  rotations of one value). */
    bool shared = false;
    /** The group's digits exist already (no decompose here). */
    bool digits = false;
    /** The group's NTT-domain c0 copy exists already. */
    bool c0_copy = false;
};

/**
 * One node's domain plan: the operand polynomials converted to natural
 * layout first, the domains of the result, and the transforms those
 * choices cost (the decision-independent ones — Mult's, the digits' —
 * are left out).
 */
struct DomainStep
{
    /** Bit 2a + p: polynomial p of operand a is transformed to natural
     *  layout in place before the node is emitted. */
    uint8_t to_natural = 0;
    std::array<Layout, 2> out{Layout::kNatural, Layout::kNatural};
    /** MultPlain / rotation: the emitter leaves its result NTT-domain. */
    bool ntt_out = false;
    C0From c0 = C0From::kOperand;
    uint32_t transforms = 0;
};

constexpr uint8_t
toNaturalBit(int operand, int poly)
{
    return static_cast<uint8_t>(1u << (2 * operand + poly));
}

/** @return whether @p node is a rotation by the identity automorphism
 *  (a copy: no key switch). */
bool
isIdentityRotation(const CircuitNode &node, size_t degree)
{
    return isRotationNode(node.kind) && rotationElement(node, degree) == 1;
}

/**
 * The domain rule of one node, shared by the planner's dry runs and the
 * lowering, so the transforms a plan is chosen by are the transforms
 * emitted. @p x and @p y are the current forms of the node's operands
 * (y = x for one operand), @p ntt the planner's choice for the node,
 * @p group a key-switching rotation's hoist group. Consumers that read
 * natural layout convert lazily, in place, so a value converts once
 * however many natural uses follow.
 */
DomainStep
planDomains(const CircuitNode &node, size_t degree, const Forms &x,
            const Forms &y, bool ntt, const HoistState &group)
{
    constexpr Layout kN = Layout::kNatural;
    constexpr Layout kT = Layout::kNttDomain;
    DomainStep st;
    const auto toNatural = [&](int operand, int poly, const Forms &f) {
        const uint8_t bit = toNaturalBit(operand, poly);
        if (f[poly] == kT && (st.to_natural & bit) == 0) {
            st.to_natural |= bit;
            ++st.transforms;
        }
    };
    switch (node.kind) {
      case NodeKind::kAdd:
      case NodeKind::kSub: {
        // Both polynomials of a pair in the NTT domain stay there; a
        // mixed pair meets in natural layout.
        const bool same = node.args[0] == node.args[1];
        for (int p = 0; p < 2; ++p) {
            if (ntt && x[p] == kT && y[p] == kT) {
                st.out[p] = kT;
                continue;
            }
            toNatural(0, p, x);
            if (!same)
                toNatural(1, p, y);
        }
        break;
      }
      case NodeKind::kNegate:
        for (int p = 0; p < 2; ++p) {
            if (ntt && x[p] == kT)
                st.out[p] = kT;
            else
                toNatural(0, p, x);
        }
        break;
      case NodeKind::kAddPlain:
        toNatural(0, 0, x); // Delta*m is natural
        st.out[1] = x[1];
        break;
      case NodeKind::kMultPlain:
        st.ntt_out = ntt;
        for (int p = 0; p < 2; ++p) {
            st.transforms += (x[p] == kN) + !ntt;
            st.out[p] = ntt ? kT : kN;
        }
        break;
      case NodeKind::kRotate:
      case NodeKind::kRotateColumns: {
        if (isIdentityRotation(node, degree)) {
            st.out = {x[0], x[1]};
            break;
        }
        if (!group.shared || !group.digits)
            toNatural(0, 1, x); // the decompose streams c1 natural
        Layout c0 = x[0];
        if (group.shared && group.c0_copy) {
            st.c0 = C0From::kGroupCopy;
            c0 = kT;
        }
        st.ntt_out = ntt;
        if (!ntt) {
            st.transforms += 2;
        } else {
            st.out = {kT, kT};
            if (c0 == kN) {
                ++st.transforms;
                if (group.shared)
                    st.c0 = C0From::kNewCopy;
            }
        }
        break;
      }
      case NodeKind::kMult:
      case NodeKind::kSquare:
      case NodeKind::kModSwitch:
      case NodeKind::kRotateSum: {
        const bool same = node.args[0] == node.args[1];
        for (int p = 0; p < 2; ++p) {
            toNatural(0, p, x);
            if (nodeArgCount(node.kind) > 1 && !same)
                toNatural(1, p, y);
        }
        break;
      }
      case NodeKind::kInput:
      case NodeKind::kRelin:
        break;
    }
    return st;
}

/**
 * Chooses, for the fused lowering, which MultPlain, rotation and
 * Add/Sub/Negate results stay in the NTT domain. Starting from the
 * all-natural choice, it flips one node at a time in program order and
 * keeps a flip when a dry run of planDomains over the whole circuit
 * (outputs converted back at the end) counts no more transforms than
 * before. The count therefore never exceeds the all-natural
 * lowering's; the no-worse flips are kept because they let later ones
 * pay (a sum of NTT-domain products converts once). Spills and reloads
 * keep a value's domain, so the count does not depend on slot pressure.
 */
class DomainPlanner
{
  public:
    DomainPlanner(const Circuit &circuit, size_t degree,
                  const std::vector<uint32_t> &hoist_sizes, bool hoist)
        : circuit_(circuit), degree_(degree), hoist_sizes_(hoist_sizes),
          hoist_(hoist)
    {
    }

    /** @return the NTT-domain choice per node. */
    std::vector<bool>
    choose()
    {
        const size_t n = circuit_.nodes.size();
        std::vector<bool> ntt(n, false);
        // Only MultPlain and key-switching rotations make NTT-domain
        // results; without one, every choice is all natural.
        std::vector<size_t> candidates;
        bool source = false;
        for (size_t i = 0; i < n; ++i) {
            const CircuitNode &node = circuit_.nodes[i];
            switch (node.kind) {
              case NodeKind::kMultPlain:
                source = true;
                candidates.push_back(i);
                break;
              case NodeKind::kRotate:
              case NodeKind::kRotateColumns:
                if (!isIdentityRotation(node, degree_)) {
                    source = true;
                    candidates.push_back(i);
                }
                break;
              case NodeKind::kAdd:
              case NodeKind::kSub:
              case NodeKind::kNegate:
                candidates.push_back(i);
                break;
              default:
                break;
            }
        }
        if (!source)
            return ntt;
        uint64_t best = transforms(ntt);
        for (size_t i : candidates) {
            ntt[i] = true;
            const uint64_t cost = transforms(ntt);
            if (cost <= best)
                best = cost;
            else
                ntt[i] = false;
        }
        return ntt;
    }

  private:
    /** Dry run: the decision-dependent transforms of the lowering. */
    uint64_t
    transforms(const std::vector<bool> &ntt)
    {
        const size_t n = circuit_.nodes.size();
        forms_.assign(n, kAllNatural);
        digits_.assign(n, false);
        c0_copy_.assign(n, false);
        uint64_t count = 0;
        for (size_t i = 0; i < n; ++i) {
            const CircuitNode &node = circuit_.nodes[i];
            if (node.kind == NodeKind::kInput ||
                node.kind == NodeKind::kRelin)
                continue;
            const ValueId a = node.args[0];
            const ValueId b =
                nodeArgCount(node.kind) > 1 ? node.args[1] : a;
            HoistState group;
            if (hoist_ && hoist_sizes_[i] >= 2 &&
                !isIdentityRotation(node, degree_))
                group = {true, digits_[a], c0_copy_[a]};
            const DomainStep st = planDomains(node, degree_, forms_[a],
                                              forms_[b], ntt[i], group);
            count += st.transforms;
            for (int p = 0; p < 2; ++p) {
                if (st.to_natural & toNaturalBit(0, p))
                    forms_[a][p] = Layout::kNatural;
                if (st.to_natural & toNaturalBit(1, p))
                    forms_[b][p] = Layout::kNatural;
            }
            forms_[i] = {st.out[0], st.out[1], Layout::kNatural};
            if (group.shared) {
                digits_[a] = true;
                c0_copy_[a] = c0_copy_[a] || st.c0 == C0From::kNewCopy;
            }
        }
        for (ValueId out : circuit_.outputs) {
            for (Layout &f : forms_[out]) {
                count += f == Layout::kNttDomain;
                f = Layout::kNatural;
            }
        }
        return count;
    }

    const Circuit &circuit_;
    size_t degree_;
    const std::vector<uint32_t> &hoist_sizes_;
    bool hoist_;
    std::vector<Forms> forms_;
    std::vector<bool> digits_;
    std::vector<bool> c0_copy_;
};

/** Compile-time state of one circuit value. */
struct ValueState
{
    /** Memory-file slots (valid while resident). */
    std::vector<hw::PolyId> slots;
    /** Domain of each polynomial, on chip and in a host copy alike
     *  (spills and reloads keep it). */
    Forms domain = kAllNatural;
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
    /**
     * @param op_by_op lower every node as its own host round trip (the
     *        compileCircuitOpByOp policy): one segment per node, every
     *        operand consumed, every result downloaded and the memory
     *        file emptied at the node boundary (endRoundTrip).
     */
    CircuitCompiler(std::shared_ptr<const fv::FvParams> params,
                    const Circuit &circuit,
                    const CompilerOptions &options, bool op_by_op = false)
        : params_(std::move(params)),
          circuit_(options.auto_mod_switch
                       ? insertModSwitches(circuit, params_)
                       : circuit),
          evaluator_(params_),
          alloc_(*params_, options.hw),
          op_by_op_(op_by_op),
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
        ntt_out_.assign(circuit_.nodes.size(), false);
        if (!op_by_op_)
            ntt_out_ = DomainPlanner(circuit_, params_->degree(),
                                     hoist_sizes_, hoist_rotations_)
                           .choose();
        pinResidentInputs();
        openSegment();

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

        downloadOutputs();

        while (!segments_.empty() && segments_.back().uploads.empty() &&
               segments_.back().downloads.empty() &&
               segments_.back().program.instrs.empty())
            segments_.pop_back();
        // The last segment's range also takes the actions of any empty
        // segments dropped after it.
        if (!segments_.empty())
            segments_.back().action_end = alloc_.actions().size();

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
     * action log: a warm coprocessor keeps these records bound through
     * resetToPinned() and binds only the segments' records. No upload
     * Transfer is emitted — the cold execution path uploads the pinned
     * operands directly, and warm executions skip them entirely.
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
                try {
                    slots[p] = alloc_.allocate(hw::BaseTag::kQ,
                                               hw::Layout::kNatural,
                                               "resident input");
                } catch (const hw::SlotPressureError &e) {
                    fatal("resident inputs do not fit the memory file: ",
                          e.what());
                }
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

    /** Close the current segment's slot-action range and open the
     *  next segment. */
    void
    openSegment()
    {
        if (!segments_.empty())
            segments_.back().action_end = alloc_.actions().size();
        segments_.emplace_back();
    }

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
            openSegment();

        const char *label =
            vs.ever_resident ? "spill reload" : "circuit input";
        vs.slots.clear();
        alloc_.setLevel(levels_[v]);
        for (uint32_t p = 0; p < size; ++p) {
            const hw::PolyId slot =
                alloc_.allocate(hw::BaseTag::kQ, vs.domain[p], label);
            vs.slots.push_back(slot);
            currentSegment().uploads.push_back(
                Transfer{Transfer::Source::kValue, v, p, slot,
                         vs.domain[p]});
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
        if (!vs.host)
            downloadValue(victim);
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
            downloadValue(v);
            openSegment();
        }
    }

    /** Spill store: append downloads of resident @p v, in its domain,
     *  to the current segment; the host copy serves the next one. */
    void
    downloadValue(ValueId v)
    {
        ValueState &vs = values_[v];
        for (uint32_t p = 0; p < vs.slots.size(); ++p)
            currentSegment().downloads.push_back(
                Transfer{Transfer::Source::kValue, v, p, vs.slots[p],
                         vs.domain[p]});
        out_.spilled_polys += vs.slots.size();
        vs.host = true;
        vs.host_ready_segment = currentSegmentIndex() + 1;
    }

    /**
     * Transform polynomial @p p of resident @p v to natural layout in
     * place, if it is NTT-domain. A host copy of the value holds the
     * old domain, so it no longer counts as current: a later spill
     * stores the natural form.
     */
    void
    toNatural(ValueId v, uint32_t p)
    {
        ValueState &vs = values_[v];
        if (vs.domain[p] == Layout::kNatural)
            return;
        panicIf(!vs.resident || pinned_value_[v],
                "converting value ", v, " off chip or pinned");
        hw::OpEmitter em(*params_, alloc_, currentSegment().program);
        em.toNatural(vs.slots[p]);
        vs.domain[p] = Layout::kNatural;
        vs.host = false;
    }

    /**
     * Download every circuit output in natural layout. A resident
     * output converts in place; a spilled one whose host copy is
     * NTT-domain is reloaded (a fresh segment when it was spilled in
     * this one) and converted first. Spilled natural outputs already
     * have their host copy.
     */
    void
    downloadOutputs()
    {
        const size_t end = circuit_.nodes.size();
        for (ValueId out : circuit_.outputs) {
            ValueState &vs = values_[out];
            const bool ntt = std::find(vs.domain.begin(), vs.domain.end(),
                                       Layout::kNttDomain) !=
                             vs.domain.end();
            if (!vs.resident && !ntt)
                continue;
            const ValueId keep[] = {out};
            ensureResident(out, keep, end);
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                toNatural(out, p);
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                currentSegment().downloads.push_back(
                    Transfer{Transfer::Source::kValue, out, p,
                             vs.slots[p]});
            if (!pinned_value_[out]) {
                // Later reloads may take its slots; this copy is final.
                vs.host = true;
                vs.host_ready_segment = currentSegmentIndex() + 1;
            }
        }
    }

    // --- constants --------------------------------------------------------

    /** Encode (once per level) and stage (per use) a plaintext
     *  constant. Constants are level-specific: a level-l consumer needs
     *  the plaintext embedded in R_{q_l} (and scaled by Delta_l for
     *  AddPlain), so the pool is keyed by (plain index, level). A fused
     *  lowering encodes MultPlain's embedding NTT-form with the level's
     *  q context, so no program transforms a constant. */
    hw::PolyId
    stageConstant(const CircuitNode &node, size_t node_index,
                  std::span<const ValueId> pinned)
    {
        const size_t level = levels_[node_index];
        const bool add = node.kind == NodeKind::kAddPlain;
        const Layout layout = add || op_by_op_ ? Layout::kNatural
                                               : Layout::kNttDomain;
        auto &cache = add ? plain_const_add_ : plain_const_mul_;
        auto [it, fresh] =
            cache.try_emplace({node.plain, level}, -1);
        if (fresh) {
            const fv::Plaintext &plain = circuit_.plains[node.plain];
            if (add) {
                out_.constants.push_back(
                    evaluator_.scaledPlain(plain, level));
            } else {
                ntt::RnsPoly poly = evaluator_.embeddedPlain(plain, level);
                if (layout == Layout::kNttDomain)
                    poly.toNtt(params_->qContext(level));
                out_.constants.push_back(std::move(poly));
            }
            it->second = static_cast<int32_t>(out_.constants.size() - 1);
        }

        const size_t live = alloc_.liveResidues(hw::BaseTag::kQ, level);
        makeRoom(live, pinned, node_index);
        alloc_.setLevel(level);
        const hw::PolyId slot = alloc_.allocate(hw::BaseTag::kQ, layout,
                                                "plaintext constant");
        currentSegment().uploads.push_back(
            Transfer{Transfer::Source::kConstant,
                     static_cast<uint32_t>(it->second), 0, slot, layout});
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
        /** A hoist group's NTT-domain c0 copy made by this rotation
         *  (committed to hoist_c0_ on success). */
        hw::PolyId hoist_c0 = hw::kNoPoly;
        /** The rotated value handed its slots to its hoist group (its
         *  c0 record became the group's copy, c1's was released). */
        bool retired = false;
    };

    /** @return node @p i's domain plan over the current value forms. */
    DomainStep
    planNode(size_t i) const
    {
        const CircuitNode &node = circuit_.nodes[i];
        const ValueId a = node.args[0];
        const ValueId b = nodeArgCount(node.kind) > 1 ? node.args[1] : a;
        HoistState group;
        if (hoist_rotations_ && hoist_sizes_[i] >= 2 &&
            !isIdentityRotation(node, params_->degree()))
            group = {true, hoist_digits_.count(a) > 0,
                     hoist_c0_.count(a) > 0};
        return planDomains(node, params_->degree(), values_[a].domain,
                           values_[b].domain, ntt_out_[i], group);
    }

    void
    emitNode(size_t i)
    {
        const CircuitNode &node = circuit_.nodes[i];

        std::vector<ValueId> operands;
        for (int a = 0; a < nodeArgCount(node.kind); ++a)
            operands.push_back(node.args[a]);

        // A rotation reading its group's digits and c0 copy needs
        // nothing else of the rotated value, which may be gone already
        // (releaseToHoistGroup).
        const DomainStep plan = planNode(i);
        const bool operand_needed =
            !(isRotationNode(node.kind) && plan.c0 == C0From::kGroupCopy);
        if (operand_needed) {
            for (ValueId v : operands)
                ensureResident(v, operands, i);
        }

        hw::PolyId plain_slot = hw::kNoPoly;
        if (node.plain >= 0)
            plain_slot = stageConstant(node, i, operands);

        for (size_t k = 0; k < operands.size(); ++k)
            for (uint32_t p = 0; p < 2; ++p)
                if (plan.to_natural &
                    toNaturalBit(static_cast<int>(k), static_cast<int>(p)))
                    toNatural(operands[k], p);

        // Consume flags: an operand whose last use this is may be
        // overwritten, aliased into the result, or released by the
        // emitter — its slots die with it either way. Mult/Square can
        // additionally consume a still-live operand whose host copy is
        // current ("demotion"): the emitter releases its slots instead
        // of copying them, and a later use reloads from the host.
        // Rotation emitters never consume (their results are always
        // fresh slots); dead rotation operands release through the
        // generic death handling below. Op by op, every operand has a
        // current host copy, so each one an emitter can consume is
        // consumed (and, if still live, demoted).
        const bool rotation_like =
            isRotationNode(node.kind) ||
            node.kind == NodeKind::kRotateSum;
        const bool can_demote = node.kind == NodeKind::kMult ||
                                node.kind == NodeKind::kSquare;
        bool consume_a = !rotation_like &&
                         !pinned_value_[operands[0]] &&
                         (op_by_op_ || deadAfter(operands[0], i));
        bool consume_b = operands.size() > 1 &&
                         operands[1] != operands[0] &&
                         !pinned_value_[operands[1]] &&
                         (op_by_op_ || deadAfter(operands[1], i));
        bool demoted_a = op_by_op_ && consume_a;
        bool demoted_b = op_by_op_ && consume_b && can_demote;

        // Emit at the operand's level: every emitter allocates its
        // temporaries and results against the allocator level, and a
        // kModSwitch emitter moves it one deeper itself. (The snapshot
        // below captures the level, so rollbacks keep it.)
        alloc_.setLevel(levels_[operands[0]]);

        // A rotation making its hoist group's c0 copy may retire the
        // rotated value into the group when every later use of the
        // value reads the group's records only.
        const bool retire = plan.c0 == C0From::kNewCopy &&
                            onlyHoistedUsesAfter(operands[0], i);

        // Retry loop: a failed allocation rolls the partial emission
        // back, frees slots one step at a time and tries again.
        EmitResult emitted;
        for (;;) {
            const hw::CountingAllocator alloc_snapshot = alloc_;
            const size_t n_instrs = currentSegment().program.instrs.size();
            const hw::OpEmitter::ZeroSlots zero_snapshot = zero_;
            try {
                emitted = emitOp(i, node, operands, plain_slot, plan,
                                 retire, consume_a, consume_b);
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
        // digits and c0 copy, and release them after the group's last
        // rotation.
        if (isRotationNode(node.kind) && hoist_sizes_[i] >= 2 &&
            hoist_rotations_) {
            const ValueId x = operands[0];
            if (emitted.retired) {
                values_[x].slots.clear();
                values_[x].resident = false;
            }
            if (!emitted.hoist_digits.empty())
                hoist_digits_[x] = emitted.hoist_digits;
            if (emitted.hoist_c0 != hw::kNoPoly)
                hoist_c0_[x] = emitted.hoist_c0;
            uint32_t &remaining = hoist_remaining_[x];
            if (--remaining == 0) {
                const auto it = hoist_digits_.find(x);
                if (it != hoist_digits_.end()) {
                    for (hw::PolyId d : it->second)
                        alloc_.release(d);
                    hoist_digits_.erase(it);
                }
                const auto c0 = hoist_c0_.find(x);
                if (c0 != hoist_c0_.end()) {
                    alloc_.release(c0->second);
                    hoist_c0_.erase(c0);
                }
            } else {
                releaseToHoistGroup(x, i);
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
            vs.domain = {plan.out[0], plan.out[1], Layout::kNatural};
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
                (k == 1 && consume_b && can_demote);
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

        if (op_by_op_) {
            endRoundTrip(static_cast<ValueId>(i), relin_node);
            return;
        }
        // Values nothing will ever read (dead on arrival) free their
        // slots immediately.
        retireIfUnused(static_cast<ValueId>(i), i);
        if (relin_node != kNoValue)
            retireIfUnused(relin_node, i);
    }

    /**
     * Once the digits and the NTT-domain c0 copy of @p x's hoist group
     * exist and only the group's key-switching rotations still read
     * @p x, its own slots serve nobody: release them (the value lives
     * on in the group's records).
     */
    void
    releaseToHoistGroup(ValueId x, size_t node)
    {
        ValueState &vs = values_[x];
        if (!vs.resident || !hoist_digits_.count(x) || !hoist_c0_.count(x) ||
            !onlyHoistedUsesAfter(x, node))
            return;
        for (hw::PolyId slot : vs.slots)
            alloc_.release(slot);
        vs.slots.clear();
        vs.resident = false;
    }

    /** @return whether unpinned @p x is read after @p node only by
     *  key-switching rotations (its hoist group), not as an output. */
    bool
    onlyHoistedUsesAfter(ValueId x, size_t node) const
    {
        if (pinned_value_[x] || !values_[x].resident)
            return false;
        for (size_t use : values_[x].uses) {
            if (use <= node)
                continue;
            if (use == kUseAtEnd ||
                !isRotationNode(circuit_.nodes[use].kind) ||
                isIdentityRotation(circuit_.nodes[use], params_->degree()))
                return false;
        }
        return true;
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

    /**
     * Close node @p node's host round trip (op-by-op lowering): every
     * result it produced goes back to the host — dead-on-arrival ones
     * too, as an Arm issuing one operation at a time downloads them —
     * then every resident record and the shared zero slot are
     * released, and the next node opens a fresh segment that uploads
     * its operands again.
     */
    void
    endRoundTrip(ValueId node, ValueId relin_node)
    {
        for (ValueId v : {node, relin_node}) {
            if (v == kNoValue || !values_[v].resident)
                continue;
            ValueState &vs = values_[v];
            for (uint32_t p = 0; p < vs.slots.size(); ++p)
                currentSegment().downloads.push_back(
                    Transfer{Transfer::Source::kValue, v, p, vs.slots[p]});
            vs.host = true;
            vs.host_ready_segment = currentSegmentIndex() + 1;
        }
        for (ValueState &vs : values_) {
            if (!vs.resident)
                continue;
            for (hw::PolyId slot : vs.slots)
                alloc_.release(slot);
            vs.slots.clear();
            vs.resident = false;
        }
        for (hw::PolyId zero : {zero_.natural, zero_.ntt})
            if (zero != hw::kNoPoly)
                alloc_.release(zero);
        zero_ = {};
        openSegment();
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
           const DomainStep &plan, bool retire, bool consume_a,
           bool consume_b)
    {
        hw::OpEmitter em(*params_, alloc_, currentSegment().program);
        em.setZeroSlots(zero_);
        const Forms &forms = values_[operands[0]].domain;
        const hw::Domains domains = {forms[0], forms[1]};

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
            out.result = asVector(
                em.emitNegate(pair(operands[0]), consume_a, domains));
            break;
          case NodeKind::kAddPlain:
            out.result = asVector(em.emitAddPlain(
                pair(operands[0]), plain_slot, consume_a, forms[1]));
            break;
          case NodeKind::kMultPlain:
            out.result = asVector(em.emitMultPlain(
                pair(operands[0]), plain_slot, consume_a, domains,
                /*plain_ntt=*/!op_by_op_, plan.ntt_out));
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
            const ValueId x = operands[0];
            std::array<hw::PolyId, 2> a = {hw::kNoPoly, hw::kNoPoly};
            if (values_[x].resident)
                a = pair(x);
            Layout c0_domain = forms[0];
            if (plan.c0 == C0From::kGroupCopy) {
                a[0] = hoist_c0_.at(x);
                c0_domain = Layout::kNttDomain;
            }
            if (g == 1) {
                // Identity rotation (steps congruent to zero): a fresh
                // copy, no key-switch, no shared digits consumed.
                out.result = {em.copyPoly(a[0], forms[0]),
                              em.copyPoly(a[1], forms[1])};
            } else if (hoist_sizes_[i] < 2) {
                out.result = asVector(
                    em.emitApplyGalois(a, g, c0_domain, plan.ntt_out));
            } else if (!hoist_rotations_) {
                // Hoisted numerics without the sharing: the bit-exact
                // baseline the hoisting benchmark compares against.
                out.result = asVector(em.emitApplyGaloisHoistedSingle(
                    a, g, c0_domain, plan.ntt_out));
            } else {
                const auto it = hoist_digits_.find(x);
                const std::vector<hw::PolyId> &digits =
                    it != hoist_digits_.end()
                        ? it->second
                        : (out.hoist_digits = em.emitDecomposeNtt(a[1]));
                if (plan.c0 == C0From::kNewCopy && retire) {
                    // The value's own c0 record becomes the group's
                    // copy, transformed in place; c1 is done with.
                    em.toNttDomain(a[0]);
                    alloc_.release(a[1]);
                    out.hoist_c0 = a[0];
                    out.retired = true;
                    c0_domain = Layout::kNttDomain;
                } else if (plan.c0 == C0From::kNewCopy) {
                    out.hoist_c0 = em.emitNttCopy(a[0]);
                    a[0] = out.hoist_c0;
                    c0_domain = Layout::kNttDomain;
                }
                out.result = asVector(em.emitHoistedGalois(
                    a, digits, g, c0_domain, plan.ntt_out));
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

        zero_ = em.zeroSlots();
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
    hw::OpEmitter::ZeroSlots zero_;
    /** Per node: its result stays NTT-domain (DomainPlanner; all false
     *  op by op). */
    std::vector<bool> ntt_out_;

    /** One segment and host round trip per node (see endRoundTrip). */
    bool op_by_op_;
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
    /** Live shared NTT-domain c0 copies, keyed by rotated input. */
    std::map<ValueId, hw::PolyId> hoist_c0_;
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
 * Plans when a segment binds and returns the records of its slot-log
 * range, from the segment alone, so a program the verifier only warned
 * about behaves as if the whole range were bound for the segment: a
 * fresh record reads zero, and a touch after its release throws
 * InvalidRecordError. A record the range allocates is bound before the
 * uploads when one writes it or no instruction names it, else just
 * before the first instruction naming it (dst, src0, src1 or extra). A
 * record the range releases is returned after the downloads when one
 * reads it or no instruction names it, else right after the last
 * instruction naming it. The scratch persists across runs, so planning
 * does not allocate once it has grown.
 */
class SegmentBinder
{
  public:
    void
    plan(const Segment &seg, std::span<const hw::SlotAction> range,
         const hw::SlotLogShape &log)
    {
        constexpr uint32_t kNone = ~uint32_t(0);
        const size_t records = log.records.size();
        if (touch_.size() < records)
            touch_.resize(records);
        before_uploads.clear();
        after_downloads.clear();
        schedule.binds.clear();
        schedule.returns.clear();
        schedule.log = &log;

        // Only the range's records are tracked; their entries are
        // cleared again below, so every entry is clean between plans.
        for (const hw::SlotAction &a : range)
            if (a.id < records)
                touch_[a.id] = Touch{kNone, kNone, true, false, false};
        const auto tracked = [&](hw::PolyId id) {
            return id < records && touch_[id].in_range;
        };
        for (const Transfer &up : seg.uploads)
            if (tracked(up.slot))
                touch_[up.slot].uploaded = true;
        for (const Transfer &down : seg.downloads)
            if (tracked(down.slot))
                touch_[down.slot].downloaded = true;
        const std::vector<hw::Instruction> &instrs = seg.program.instrs;
        const auto named = [&](hw::PolyId id, uint32_t i) {
            if (!tracked(id))
                return;
            Touch &t = touch_[id];
            if (t.first == kNone)
                t.first = i;
            t.last = i;
        };
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            named(instrs[i].dst, i);
            named(instrs[i].src0, i);
            named(instrs[i].src1, i);
            for (hw::PolyId id : instrs[i].extra)
                named(id, i);
        }

        for (const hw::SlotAction &a : range) {
            if (a.id >= records)
                continue;
            const Touch &t = touch_[a.id];
            if (a.kind == hw::SlotAction::Kind::kAllocate) {
                if (t.uploaded || t.first == kNone)
                    before_uploads.push_back(a.id);
                else
                    schedule.binds.push_back({t.first, a.id});
            } else if (a.kind == hw::SlotAction::Kind::kRelease) {
                if (t.downloaded || t.last == kNone)
                    after_downloads.push_back(a.id);
                else
                    schedule.returns.push_back({t.last, a.id});
            }
        }
        for (const hw::SlotAction &a : range)
            if (a.id < records)
                touch_[a.id] = Touch{};

        const auto byInstr = [](const hw::RecordSchedule::Event &x,
                                const hw::RecordSchedule::Event &y) {
            return x.instr != y.instr ? x.instr < y.instr : x.id < y.id;
        };
        std::sort(schedule.binds.begin(), schedule.binds.end(), byInstr);
        std::sort(schedule.returns.begin(), schedule.returns.end(),
                  byInstr);
    }

    std::vector<hw::PolyId> before_uploads;
    std::vector<hw::PolyId> after_downloads;
    hw::RecordSchedule schedule;

  private:
    struct Touch
    {
        uint32_t first = 0;
        uint32_t last = 0;
        bool in_range = false;
        bool uploaded = false;
        bool downloaded = false;
    };

    std::vector<Touch> touch_;
};

/**
 * The one executor, behind runCompiledCircuit, runCompiledCircuitWarm
 * and runCircuitOpByOp. @p inputs holds one pointer per circuit input
 * position; resident positions may be null on the warm path (their
 * operands are already in the pinned memory-file prefix). @p mode is
 * how the Arm dispatches each segment's program.
 */
std::vector<fv::Ciphertext>
runCompiledImpl(hw::Coprocessor &cp, const CompiledCircuit &compiled,
                std::span<const fv::Ciphertext *const> inputs,
                bool warm, hw::DispatchMode mode, CircuitRunStats *stats)
{
    const hw::ArmHostModel host(compiled.params, cp.config());
    const size_t resident_count = compiled.resident_inputs.size();
    const bool fused = mode == hw::DispatchMode::kFusedProgram;

    CircuitRunStats run;
    run.segments = compiled.segments.size();

    // Record ids are memory-file addresses. Range 0 of the slot log
    // allocates the resident prefix; segment s binds and returns the
    // records of range s + 1 as SegmentBinder plans.
    hw::MemoryFile &memory = cp.memory();
    const std::span<const hw::SlotAction> actions(compiled.slot_actions);
    const hw::SlotLogShape log =
        hw::shapeSlotLog(*compiled.params, actions);
    memory.checkCapacity(log);
    std::vector<std::span<const hw::SlotAction>> ranges;
    size_t bound = 0;
    size_t most_bound = 0; // records bound at once
    for (size_t s = 0, begin = 0; s <= compiled.segments.size(); ++s) {
        const size_t end = s == 0 ? compiled.resident_action_count
                                  : compiled.segments[s - 1].action_end;
        fatalIf(end < begin || end > actions.size(), "slot-action range [",
                begin, ", ", end, ") is not inside the slot log");
        ranges.push_back(actions.subspan(begin, end - begin));
        begin = end;
        for (const hw::SlotAction &a : ranges.back())
            bound += a.kind == hw::SlotAction::Kind::kAllocate;
        most_bound = std::max(most_bound, bound);
        for (const hw::SlotAction &a : ranges.back())
            bound -= a.kind == hw::SlotAction::Kind::kRelease;
    }
    const auto bindShaped = [&](hw::PolyId id) {
        if (id < log.records.size())
            memory.bindRecord(id, log.records[id]);
    };
    if (warm) {
        fatalIf(resident_count == 0,
                "warm execution needs a circuit compiled with "
                "resident inputs");
        fatalIf(memory.pinnedRecords() != 2 * resident_count,
                "coprocessor does not hold this circuit's pinned "
                "prefix (", memory.pinnedRecords(),
                " pinned records, expected ", 2 * resident_count,
                "); run a cold pass first");
        memory.resetToPinned();
    } else {
        // Keep no more pooled buffers than this run binds at once: a
        // larger earlier program's buffers do not outlive it.
        memory.reset(most_bound);
        for (const hw::SlotAction &a : ranges[0])
            if (a.kind == hw::SlotAction::Kind::kAllocate)
                bindShaped(a.id);
        // Pinned operands bypass the segment upload lists: they are
        // DMA'd straight into their prefix slots once, here, and then
        // stay bound through every warm rerun's resetToPinned().
        for (size_t k = 0; k < resident_count; ++k) {
            const fv::Ciphertext &ct =
                *inputs[compiled.resident_inputs[k]];
            for (int p = 0; p < 2; ++p)
                cp.uploadInto(compiled.resident_slots[k][p], ct[p]);
        }
        if (resident_count > 0) {
            run.uploaded_polys += 2 * resident_count;
            run.host_us += host.sendPolysUs(2 * resident_count);
            memory.setPinnedRecords(2 * resident_count);
        }
    }

    // Downloaded polynomials by value; an input value's polynomials
    // upload straight from the request's ciphertext.
    std::vector<std::vector<ntt::RnsPoly>> values(
        compiled.value_sizes.size());
    std::vector<const fv::Ciphertext *> input_of(values.size(), nullptr);
    for (size_t k = 0; k < compiled.inputs.size(); ++k)
        input_of[compiled.inputs[k]] = inputs[k];
    const auto valuePoly = [&](ValueId v,
                               uint32_t p) -> const ntt::RnsPoly * {
        if (p < values[v].size() && values[v][p].degree() != 0)
            return &values[v][p];
        return input_of[v] != nullptr && p < input_of[v]->size()
                   ? &(*input_of[v])[p]
                   : nullptr;
    };

    thread_local SegmentBinder binder;
    for (size_t s = 0; s < compiled.segments.size(); ++s) {
        const Segment &seg = compiled.segments[s];
        binder.plan(seg, ranges[s + 1], log);
        for (hw::PolyId id : binder.before_uploads)
            bindShaped(id);
        for (const Transfer &up : seg.uploads) {
            const ntt::RnsPoly *src =
                up.source == Transfer::Source::kConstant
                    ? &compiled.constants[up.index]
                    : valuePoly(up.index, up.poly);
            panicIf(src == nullptr || src->degree() == 0,
                    "upload source is not available");
            panicIf((src->form() == ntt::PolyForm::kNtt) !=
                        (up.layout == hw::Layout::kNttDomain),
                    "upload source is not in the domain its transfer "
                    "declares");
            cp.uploadInto(up.slot, *src);
        }
        run.uploaded_polys += seg.uploads.size();
        const double upload_us =
            seg.uploads.empty() ? 0.0 : host.sendPolysUs(seg.uploads.size());

        const hw::ExecStats es =
            cp.execute(seg.program, mode, &binder.schedule);
        run.fpga_cycles += es.fpga_cycles;
        run.dma_us += es.dma_us;
        run.instructions += es.instructions;
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            run.unit_cycles[u] += es.unit_cycles[u];
        if (!fused)
            run.dispatches += es.instructions;
        else if (!seg.program.instrs.empty())
            ++run.dispatches;

        for (const Transfer &down : seg.downloads) {
            std::vector<ntt::RnsPoly> &store = values[down.index];
            store.resize(compiled.value_sizes[down.index]);
            // Value polynomials are q-base; the record may be slot-
            // extended by a later lift of this fused program.
            store[down.poly] = memory.exportQBase(down.slot);
        }
        for (hw::PolyId id : binder.after_downloads)
            memory.returnRecord(id);
        run.downloaded_polys += seg.downloads.size();
        const double download_us =
            seg.downloads.empty() ? 0.0
                                  : host.receivePolysUs(seg.downloads.size());
        // Dispatched per instruction, a segment is one host round trip,
        // charged as one sum.
        if (fused) {
            run.host_us += upload_us;
            run.host_us += download_us;
        } else {
            run.host_us += upload_us + download_us;
        }
    }

    std::vector<fv::Ciphertext> outputs;
    outputs.reserve(compiled.outputs.size());
    for (size_t k = 0; k < compiled.outputs.size(); ++k) {
        const ValueId out = compiled.outputs[k];
        // A value's last output takes its downloaded polynomials.
        const bool last =
            std::find(compiled.outputs.begin() + k + 1,
                      compiled.outputs.end(), out) == compiled.outputs.end();
        fv::Ciphertext ct;
        ct.level = out < compiled.value_levels.size()
                       ? compiled.value_levels[out]
                       : 0;
        for (uint32_t p = 0; p < compiled.value_sizes[out]; ++p) {
            const ntt::RnsPoly *poly = valuePoly(out, p);
            panicIf(poly == nullptr, "output value ", out,
                    " was never materialized");
            if (last && p < values[out].size() && poly == &values[out][p])
                ct.polys.push_back(std::move(values[out][p]));
            else
                ct.polys.push_back(*poly);
        }
        outputs.push_back(std::move(ct));
    }
    if (stats != nullptr)
        *stats = run;
    return outputs;
}

/** Run @p compiled cold over one ciphertext per input position. */
std::vector<fv::Ciphertext>
runCold(hw::Coprocessor &cp, const CompiledCircuit &compiled,
        std::span<const fv::Ciphertext> inputs, hw::DispatchMode mode,
        CircuitRunStats *stats)
{
    validateInputs(*compiled.params, inputs, compiled.inputs.size());
    std::vector<const fv::Ciphertext *> ptrs;
    ptrs.reserve(inputs.size());
    for (const fv::Ciphertext &ct : inputs)
        ptrs.push_back(&ct);
    return runCompiledImpl(cp, compiled, ptrs, /*warm=*/false, mode,
                           stats);
}

/** The passes every lowering ends with: node attribution, then the
 *  static verifier as @p check asks. */
CompiledCircuit
finishCompile(CompiledCircuit out, VerifyCheck check)
{
    out.node_cycles = attributeCompiledCircuit(out).node_cycles;
    if (check != VerifyCheck::kOff) {
        const verify::VerifyResult result =
            verify::verifyCompiledCircuit(out);
        if (!result.ok()) {
            fatalIf(check == VerifyCheck::kReject,
                    "compiled circuit failed static verification\n",
                    result.report());
            std::fprintf(stderr,
                         "compileCircuit: warning: static verifier: %s",
                         result.report().c_str());
        }
    }
    return out;
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
    return finishCompile(
        CircuitCompiler(std::move(params), circuit, options).compile(),
        options.verify);
}

CompiledCircuit
compileCircuitOpByOp(std::shared_ptr<const fv::FvParams> params,
                     const Circuit &circuit, const hw::HwConfig &config)
{
    CompilerOptions options;
    options.hw = config;
    options.hoist_rotations = false;
    options.noise_check = NoiseCheck::kOff;
    return finishCompile(CircuitCompiler(std::move(params), circuit,
                                         options, /*op_by_op=*/true)
                             .compile(),
                         options.verify);
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
    return runCold(cp, compiled, inputs, hw::DispatchMode::kFusedProgram,
                   stats);
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
    return runCompiledImpl(cp, compiled, ptrs, /*warm=*/true,
                           hw::DispatchMode::kFusedProgram, stats);
}

std::vector<fv::Ciphertext>
runCircuitOpByOp(hw::Coprocessor &cp,
                 std::shared_ptr<const fv::FvParams> params,
                 const Circuit &circuit,
                 std::span<const fv::Ciphertext> inputs,
                 CircuitRunStats *stats)
{
    return runCold(cp, compileCircuitOpByOp(std::move(params), circuit,
                                            cp.config()),
                   inputs, hw::DispatchMode::kPerInstruction, stats);
}

} // namespace heat::compiler
