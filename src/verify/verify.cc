#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "compiler/circuit.h"
#include "fv/galois.h"
#include "hw/rpau.h"

namespace heat::verify {

namespace {

using compiler::CompiledCircuit;
using compiler::Transfer;
using hw::BaseTag;
using hw::Instruction;
using hw::kNoPoly;
using hw::Layout;
using hw::Opcode;
using hw::PolyId;
using hw::SlotAction;

/** @return "natural", "natural or paired", ... for a layout set. */
const char *
layoutSetName(hw::LayoutSet set)
{
    // Indexed by the set's bits: natural 1, paired 2, ntt-domain 4.
    static constexpr const char *kNames[] = {
        "none", "natural", "paired", "natural or paired", "ntt-domain",
        "natural or ntt-domain", "paired or ntt-domain", "any layout"};
    return set < std::size(kNames) ? kNames[set] : "?";
}

/** @return "layout natural", "layout ntt-domain", ... */
std::string
layoutText(Layout layout)
{
    return std::string("layout ") + layoutSetName(hw::layoutBit(layout));
}

/**
 * Abstract state of one memory-file record, built from the slot-action
 * log the way the executor binds records (hw::shapeSlotLog): records
 * carry their final (extend-applied) shape, and the
 * interpreter tracks per-residue layout typestate plus definedness.
 * A freshly allocated record reads back zeros (the emitters' shared
 * zero constant depends on it), so `written` distinguishes "zero by
 * allocation" from "produced by an upload or instruction".
 */
/** Residue capacity of a record's inline state. The paper's extended
 *  base spans 13 residues; structurallySound() rejects parameter sets
 *  beyond the cap before any record state is built. Inline arrays
 *  keep RecState allocation-free — the verifier runs on every compile
 *  and service admission, so its constant factor matters. */
constexpr size_t kMaxResidues = 64;

struct RecState
{
    bool exists = false;
    bool released = false;
    bool pinned = false;
    BaseTag base = BaseTag::kQ;
    size_t level = 0;
    /** Live q residues (qPrimeCount at the record's level). */
    size_t q_live = 0;
    /** Live residue count (layout/written entries 0..live-1). */
    size_t live = 0;
    std::array<Layout, kMaxResidues> layout{};
    std::array<bool, kMaxResidues> written{};

    size_t residues() const { return live; }
};

/** The verification pass: one instance per verifyCompiledCircuit. */
class Verifier
{
  public:
    explicit Verifier(const CompiledCircuit &compiled)
        : c_(compiled), params_(*compiled.params)
    {
    }

    VerifyResult
    run()
    {
        if (!structurallySound())
            return std::move(result_);
        // Size the id-indexed tables once: the log's allocation count
        // bounds every well-formed record id. An id at or past it is
        // never allocated (phase 2 refuses it), so it is not tracked
        // and every later use reports it unallocated; an untrusted id
        // never sizes a table.
        size_t allocs = 0;
        for (const hw::SlotAction &a : c_.slot_actions)
            if (a.kind == hw::SlotAction::Kind::kAllocate)
                ++allocs;
        recs_.resize(allocs);
        first_touch_.assign(allocs, kNoIndex);
        last_touch_.assign(allocs, kNoIndex);
        first_ext_touch_.assign(allocs, kNoIndex);
        checkGaloisElements();
        collectTouches();
        replayActions();
        checkResidentPrefix();
        checkSegmentRanges();
        checkConsumeHazards();
        interpretSegments();
        checkInputCoverage();
        checkOutputs();
        return std::move(result_);
    }

  private:
    // --- diagnostics -----------------------------------------------------

    Diagnostic &
    diag(Invariant inv, std::string message, std::string expected = {},
         std::string actual = {})
    {
        Diagnostic d;
        d.invariant = inv;
        d.message = std::move(message);
        d.expected = std::move(expected);
        d.actual = std::move(actual);
        result_.diagnostics.push_back(std::move(d));
        return result_.diagnostics.back();
    }

    /** A diagnostic at slot action @p action on record @p record. */
    void
    diagAction(Invariant inv, size_t action, PolyId record,
               std::string message, std::string expected = {},
               std::string actual = {})
    {
        Diagnostic &d = diag(inv, std::move(message), std::move(expected),
                             std::move(actual));
        d.action = action;
        d.record = record;
    }

    /** A diagnostic at a transfer of segment @p segment. */
    void
    diagTransfer(Invariant inv, size_t segment, PolyId record,
                 std::string message, std::string expected = {},
                 std::string actual = {})
    {
        Diagnostic &d = diag(inv, std::move(message), std::move(expected),
                             std::move(actual));
        d.segment = segment;
        d.record = record;
    }

    /** A diagnostic at instruction @p i of segment @p s. */
    void
    diagAt(Invariant inv, size_t s, size_t i, Opcode op, PolyId record,
           std::string message, std::string expected = {},
           std::string actual = {})
    {
        Diagnostic &d = diag(inv, std::move(message), std::move(expected),
                             std::move(actual));
        d.segment = s;
        d.instr = i;
        d.has_op = true;
        d.op = op;
        d.record = record;
    }

    // --- shared bookkeeping ----------------------------------------------

    RecState *
    state(PolyId id)
    {
        return id < recs_.size() && recs_[id].exists ? &recs_[id]
                                                     : nullptr;
    }

    bool
    validGalois(uint32_t g) const
    {
        return fv::isValidGaloisElement(g, params_.degree());
    }

    /** The expected column of an invalid-element diagnostic. */
    std::string
    validGaloisRange() const
    {
        return "odd element < " + std::to_string(2 * params_.degree());
    }

    bool
    galoisDeclared(uint32_t g) const
    {
        return std::binary_search(c_.galois_elements.begin(),
                                  c_.galois_elements.end(), g);
    }

    bool
    circuitRelinearizes() const
    {
        for (const compiler::CircuitNode &node : c_.circuit.nodes) {
            if (node.kind == compiler::NodeKind::kRelin)
                return true;
        }
        return false;
    }

    // --- phase 0: structural sanity --------------------------------------

    bool
    structurallySound()
    {
        if (c_.params == nullptr) {
            diag(Invariant::kShape, "compiled circuit has no parameter "
                                    "set");
            return false;
        }
        const size_t values = c_.circuit.nodes.size();
        if (c_.value_sizes.size() != values ||
            c_.value_levels.size() != values) {
            diag(Invariant::kShape,
                 "value_sizes/value_levels do not cover the circuit",
                 std::to_string(values) + " entries",
                 std::to_string(c_.value_sizes.size()) + "/" +
                     std::to_string(c_.value_levels.size()));
            return false;
        }
        if (c_.instr_nodes.size() > c_.segments.size()) {
            diag(Invariant::kShape,
                 "instr_nodes names more segments than exist");
            return false;
        }
        if (c_.params->fullBase()->size() > kMaxResidues) {
            diag(Invariant::kShape,
                 "parameter set exceeds the verifier's inline residue "
                 "capacity",
                 "<= " + std::to_string(kMaxResidues) + " residues",
                 std::to_string(c_.params->fullBase()->size()) +
                     " residues");
            return false;
        }
        return true;
    }

    /**
     * galois_elements must be strictly ascending (galoisDeclared
     * binary-searches it) and name only real automorphisms: an element
     * that is even or >= 2n passes the declaration check but panics the
     * executing coprocessor.
     */
    void
    checkGaloisElements()
    {
        const std::vector<uint32_t> &gs = c_.galois_elements;
        for (size_t i = 0; i < gs.size(); ++i) {
            if (!validGalois(gs[i]))
                diag(Invariant::kKey,
                     "declared Galois element is not odd and < 2n",
                     validGaloisRange(),
                     "element " + std::to_string(gs[i]));
            if (i > 0 && gs[i] <= gs[i - 1])
                diag(Invariant::kKey,
                     "galois_elements is not strictly ascending "
                     "(unsorted or duplicate)",
                     "> " + std::to_string(gs[i - 1]),
                     "element " + std::to_string(gs[i]) + " at index " +
                         std::to_string(i));
        }
    }

    // --- phase 1: program positions --------------------------------------

    /**
     * Assign every upload and instruction a global program position
     * (downloads are excluded: the modeled DMA streams a record's data
     * as of its release point, so a spill download never conflicts
     * with later slot reuse). Records the first/last touch of every
     * record id plus the first touch of its lift-extension residues —
     * the anchors of the monotone consume-hazard check.
     */
    void
    collectTouches()
    {
        size_t pos = 0;
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            for (const Transfer &t : seg.uploads) {
                // Uploads extend a record's lifetime but do not anchor
                // its first touch: the compiler stages constant uploads
                // at the head of a segment whose slot it allocated
                // mid-segment (after earlier releases), and the record
                // ids those uploads write are fresh by construction.
                touchLast(t.slot, pos);
                ++pos;
            }
            for (const Instruction &in : seg.program.instrs) {
                const size_t p = pos++;
                if (static_cast<size_t>(in.op) >= hw::kOpcodeCount)
                    continue; // interpret() reports it
                // Fields an opcode does not use hold kNoPoly (interpret()
                // rejects anything else), so every field is touched.
                touch(in.dst, p);
                touch(in.src0, p);
                touch(in.src1, p);
                for (PolyId e : in.extra)
                    touch(e, p);
                // Positions grow monotonically, so the first write keeps
                // the FIRST touch of each record's extension residues:
                // the row's full-base operand and a batch-1
                // instruction's registers reach them.
                const auto ext = [&](PolyId id) {
                    if (tracked(id) && first_ext_touch_[id] == kNoIndex)
                        first_ext_touch_[id] = p;
                };
                const hw::OpInfo &info = hw::opInfo(in.op);
                ext(hw::operandOf(in, info.full_base));
                if (info.batched && in.batch == 1) {
                    ext(in.dst);
                    ext(in.src0);
                    ext(in.src1);
                }
            }
            result_.instructions += seg.program.instrs.size();
        }
    }

    /** @return whether @p id indexes the id tables (kNoPoly and ids
     *  past the log's allocation count do not). */
    bool
    tracked(PolyId id) const
    {
        return id < recs_.size();
    }

    void
    touch(PolyId id, size_t pos)
    {
        if (!tracked(id))
            return;
        if (first_touch_[id] == kNoIndex) // positions are monotone
            first_touch_[id] = pos;
        last_touch_[id] = pos;
    }

    void
    touchLast(PolyId id, size_t pos)
    {
        if (tracked(id))
            last_touch_[id] = pos;
    }

    /** @return the recorded position, or kNoIndex when never touched. */
    static size_t
    touchAt(const std::vector<size_t> &table, PolyId id)
    {
        return id < table.size() ? table[id] : kNoIndex;
    }

    // --- phase 2: slot-action log ----------------------------------------

    void
    replayActions()
    {
        const size_t capacity = c_.hw.n_rpaus * c_.hw.slots_per_rpau;
        const size_t q_residues = params_.qBase()->size();
        const size_t full_residues = params_.fullBase()->size();
        const size_t pinned_count = 2 * c_.resident_inputs.size();
        size_t in_use = 0;
        size_t peak = 0;
        PolyId next_id = 0;

        for (size_t a = 0; a < c_.slot_actions.size(); ++a) {
            const SlotAction &act = c_.slot_actions[a];
            switch (act.kind) {
              case SlotAction::Kind::kAllocate: {
                if (!tracked(act.id)) {
                    diagAction(Invariant::kSlotLog, a, act.id,
                               "slot log allocates a record id past its "
                               "allocation count",
                               "id < " + std::to_string(recs_.size()),
                               "id " + std::to_string(act.id));
                    break;
                }
                if (act.id != next_id)
                    diagAction(Invariant::kSlotLog, a, act.id,
                               "slot log allocates out of sequence "
                               "(record ids are handed out in order)",
                               "id " + std::to_string(next_id),
                               "id " + std::to_string(act.id));
                if (act.level > params_.maxLevel()) {
                    diagAction(Invariant::kShape, a, act.id,
                               "allocation level beyond the last level",
                               "level <= " +
                                   std::to_string(params_.maxLevel()),
                               "level " + std::to_string(act.level));
                    break;
                }
                const size_t base_residues = act.base == BaseTag::kQ
                                                 ? q_residues
                                                 : full_residues;
                const size_t live = base_residues - act.level;
                in_use += live;
                peak = std::max(peak, in_use);
                if (in_use > capacity)
                    diagAction(Invariant::kSlotCapacity, a, act.id,
                               "slot-action log oversubscribes the "
                               "memory file (a worker run would "
                               "abort)",
                               "<= " + std::to_string(capacity) + " slots",
                               std::to_string(in_use) + " slots");
                RecState rec;
                rec.exists = true;
                rec.base = act.base;
                rec.level = act.level;
                rec.q_live = params_.qPrimeCount(act.level);
                rec.live = live;
                rec.layout.fill(act.layout);
                rec.pinned = act.id < pinned_count;
                if (rec.pinned) {
                    // The cold pass uploads pinned operands directly
                    // (outside the transfer lists) and warm reruns
                    // inherit their data; both enter in coefficient
                    // order, fully defined.
                    rec.written.fill(true);
                }
                recs_[act.id] = std::move(rec);
                next_id = std::max(next_id, act.id) + 1;
                break;
              }
              case SlotAction::Kind::kRelease: {
                RecState *rec = state(act.id);
                if (rec == nullptr) {
                    diagAction(Invariant::kSlotLog, a, act.id,
                               "release of an unallocated record");
                    break;
                }
                if (rec->released) {
                    diagAction(Invariant::kSlotLog, a, act.id,
                               "double release of a record");
                    break;
                }
                if (rec->pinned) {
                    diagAction(Invariant::kPinned, a, act.id,
                               "release of a pinned resident-prefix "
                               "record (its slots must survive warm "
                               "reruns)");
                    break;
                }
                const size_t base_residues = rec->base == BaseTag::kQ
                                                 ? q_residues
                                                 : full_residues;
                in_use -= base_residues - rec->level;
                rec->released = true;
                break;
              }
              case SlotAction::Kind::kExtend: {
                RecState *rec = state(act.id);
                if (rec == nullptr) {
                    diagAction(Invariant::kSlotLog, a, act.id,
                               "extend of an unallocated record");
                    break;
                }
                if (rec->base != BaseTag::kQ || rec->released) {
                    diagAction(Invariant::kSlotLog, a, act.id,
                               rec->released
                                   ? "extend of a released record"
                                   : "extend of an already-extended "
                                     "record");
                    break;
                }
                if (rec->pinned) {
                    diagAction(Invariant::kPinned, a, act.id,
                               "lift extension of a pinned resident-"
                               "prefix record (demotes the warm cache)");
                    break;
                }
                in_use += full_residues - q_residues;
                peak = std::max(peak, in_use);
                if (in_use > capacity)
                    diagAction(Invariant::kSlotCapacity, a, act.id,
                               "lift extension oversubscribes the "
                               "memory file",
                               "<= " + std::to_string(capacity) + " slots",
                               std::to_string(in_use) + " slots");
                rec->base = BaseTag::kFull;
                const size_t live = full_residues - rec->level;
                for (size_t k = rec->live; k < live; ++k) {
                    rec->layout[k] = Layout::kNatural;
                    rec->written[k] = false;
                }
                rec->live = live;
                break;
              }
            }
        }
        result_.records = recs_.size();

        if (peak != c_.peak_slots)
            diag(Invariant::kSlotCapacity,
                 "slot-action log disagrees with the recorded peak (the "
                 "log is not the one this circuit was built with)",
                 std::to_string(c_.peak_slots) + " peak slots",
                 std::to_string(peak) + " peak slots");
    }

    // --- phase 3: resident-prefix shape ----------------------------------

    void
    checkResidentPrefix()
    {
        const size_t pinned_count = 2 * c_.resident_inputs.size();
        if (pinned_count == 0) {
            if (c_.resident_action_count != 0)
                diag(Invariant::kPinned,
                     "resident_action_count nonzero without resident "
                     "inputs");
            return;
        }
        if (c_.resident_action_count > c_.slot_actions.size() ||
            c_.resident_action_count != pinned_count) {
            diag(Invariant::kPinned,
                 "resident action prefix does not cover exactly the "
                 "pinned slot pairs (warm runs would misalign)",
                 std::to_string(pinned_count) + " actions",
                 std::to_string(c_.resident_action_count));
            return;
        }
        for (size_t a = 0; a < c_.resident_action_count; ++a) {
            const SlotAction &act = c_.slot_actions[a];
            if (act.kind != SlotAction::Kind::kAllocate ||
                act.id != a) {
                diagAction(Invariant::kPinned, a, act.id,
                           "resident prefix action is not the pinned "
                           "record's allocation");
                return;
            }
        }
        for (const auto &pair : c_.resident_slots) {
            for (PolyId slot : pair) {
                if (slot >= pinned_count)
                    diag(Invariant::kPinned,
                         "resident slot pair escapes the pinned prefix")
                        .record = slot;
            }
        }
    }

    // --- phase 4: segment action ranges ----------------------------------

    /**
     * The executor binds each record a segment's slot-action range
     * allocates at the segment's first touch of it (before the uploads
     * when one writes it, else just before the first instruction naming
     * it) and returns each record the range releases at the segment's
     * last touch of it (after the downloads when one reads it, else
     * right after the last instruction naming it); a record the segment
     * does not touch is bound at its start or returned at its end. So
     * the ranges must tile the log after the resident prefix, and every
     * touch of a record (downloads included) must fall between its
     * binding and returning segments: a touch in an earlier segment
     * finds it unbound, one in a later segment finds it returned.
     */
    void
    checkSegmentRanges()
    {
        // The segment whose range allocates / releases each record
        // (kNoIndex: the resident prefix / never), and the first program
        // position of each segment (phase 1's numbering), then the end.
        std::vector<size_t> bound(recs_.size(), kNoIndex);
        std::vector<size_t> returned(recs_.size(), kNoIndex);
        std::vector<size_t> seg_pos{0};
        const size_t log_size = c_.slot_actions.size();
        size_t a = c_.resident_action_count;
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            if (seg.action_end < a || seg.action_end > log_size) {
                diag(Invariant::kSlotLog,
                     "segment slot-action range is not monotone",
                     ">= " + std::to_string(a) + ", <= " +
                         std::to_string(log_size),
                     std::to_string(seg.action_end))
                    .segment = s;
                return;
            }
            for (; a < seg.action_end; ++a) {
                const SlotAction &act = c_.slot_actions[a];
                if (act.id >= recs_.size())
                    continue;
                if (act.kind == SlotAction::Kind::kAllocate)
                    bound[act.id] = s;
                else if (act.kind == SlotAction::Kind::kRelease)
                    returned[act.id] = s;
            }
            seg_pos.push_back(seg_pos.back() + seg.uploads.size() +
                              seg.program.instrs.size());
        }
        if (a != log_size) {
            diag(Invariant::kSlotLog,
                 "segment slot-action ranges end before the log",
                 std::to_string(log_size), std::to_string(a));
            return;
        }

        const auto check = [&](size_t s, PolyId id) {
            const bool early = bound[id] != kNoIndex && bound[id] > s;
            if (!early && (returned[id] == kNoIndex || returned[id] >= s))
                return;
            diagTransfer(Invariant::kSlotLog, s, id,
                         early ? "record bound after its first touch"
                               : "record returned before its last touch",
                         "touched in segment " + std::to_string(s),
                         early ? "bound by " + std::to_string(bound[id])
                               : "returned by " +
                                     std::to_string(returned[id]));
            bound[id] = returned[id] = kNoIndex; // one diagnostic each
        };
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            for (const auto *transfers :
                 {&c_.segments[s].uploads, &c_.segments[s].downloads})
                for (const Transfer &t : *transfers)
                    if (t.slot < recs_.size())
                        check(s, t.slot);
        }
        const auto segmentAt = [&](size_t pos) -> size_t {
            return std::upper_bound(seg_pos.begin(), seg_pos.end(), pos) -
                   seg_pos.begin() - 1;
        };
        for (PolyId id = 0; id < recs_.size(); ++id) {
            const size_t first = touchAt(first_touch_, id);
            const size_t last = touchAt(last_touch_, id);
            if (first != kNoIndex && bound[id] != kNoIndex &&
                first < seg_pos[bound[id]])
                check(segmentAt(first), id);
            if (last != kNoIndex && returned[id] != kNoIndex &&
                last >= seg_pos[returned[id] + 1])
                check(segmentAt(last), id);
        }
    }

    // --- phase 5: consume hazards ----------------------------------------

    /**
     * The compiler's static slot accounting is sound iff the action
     * log admits a monotone placement against program order: walking
     * the log with a cursor that jumps past a released record's last
     * use, every subsequent allocation (or lift extension) must first
     * touch its slots at or after the cursor — otherwise a record is
     * read or written while slots freed for it still hold live data,
     * which on the physical memory file is silent corruption (the
     * simulator masks it: every record has a buffer of its own).
     */
    void
    checkConsumeHazards()
    {
        size_t cursor = 0;
        PolyId freed_by = kNoPoly;
        for (size_t a = 0; a < c_.slot_actions.size(); ++a) {
            const SlotAction &act = c_.slot_actions[a];
            switch (act.kind) {
              case SlotAction::Kind::kRelease: {
                const size_t last = touchAt(last_touch_, act.id);
                if (last != kNoIndex && last + 1 > cursor) {
                    cursor = last + 1;
                    freed_by = act.id;
                }
                break;
              }
              case SlotAction::Kind::kAllocate: {
                const size_t first = touchAt(first_touch_, act.id);
                if (first != kNoIndex && first < cursor)
                    consumeHazard(a, act.id, first, freed_by);
                break;
              }
              case SlotAction::Kind::kExtend: {
                const size_t first = touchAt(first_ext_touch_, act.id);
                if (first != kNoIndex && first < cursor)
                    consumeHazard(a, act.id, first, freed_by);
                break;
              }
            }
        }
    }

    void
    consumeHazard(size_t action, PolyId id, size_t pos, PolyId freed_by)
    {
        Diagnostic &d = diag(
            Invariant::kUseAfterConsume,
            "record " + std::to_string(id) +
                " occupies slots of record " + std::to_string(freed_by) +
                " before that record's last use — released slots "
                "reused while still live",
            "first use after record " + std::to_string(freed_by) +
                "'s last use");
        d.action = action;
        d.record = id;
        // Resolve the clashing touch to (segment, instruction) when it
        // is an instruction (upload positions keep kNoIndex).
        size_t seen = 0;
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            const size_t instr_base = seen + seg.uploads.size();
            const size_t seg_end =
                instr_base + seg.program.instrs.size();
            if (pos < seg_end) {
                if (pos >= instr_base) {
                    d.segment = s;
                    d.instr = pos - instr_base;
                    d.has_op = true;
                    d.op = seg.program.instrs[d.instr].op;
                }
                break;
            }
            seen = seg_end;
        }
    }

    // --- phase 6: abstract interpretation of the segments ----------------

    void
    interpretSegments()
    {
        // Values whose data the host holds when a segment opens:
        // circuit inputs arrive with the request; spill downloads of
        // segment s are host-visible from segment s+1 (the compiler
        // breaks segments exactly so reload uploads follow the DMA).
        std::vector<bool> host(c_.circuit.nodes.size(), false);
        for (compiler::ValueId v : c_.inputs)
            if (v < host.size())
                host[v] = true;
        // Inputs arrive natural; a download sets its polynomial's form.
        host_form_.assign(c_.circuit.nodes.size(),
                          {Layout::kNatural, Layout::kNatural,
                           Layout::kNatural});

        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            for (size_t u = 0; u < seg.uploads.size(); ++u)
                applyUpload(s, seg.uploads[u], host);
            for (size_t i = 0; i < seg.program.instrs.size(); ++i)
                interpret(s, i, seg.program.instrs[i]);
            for (const Transfer &t : seg.downloads) {
                applyDownload(s, t);
                if (t.source == Transfer::Source::kValue &&
                    t.index < host.size())
                    host[t.index] = true;
            }
        }
    }

    void
    applyUpload(size_t s, const Transfer &t, const std::vector<bool> &host)
    {
        RecState *rec = state(t.slot);
        if (rec == nullptr) {
            diagTransfer(Invariant::kDefBeforeUse, s, t.slot,
                         "upload targets a record the slot log never "
                         "allocates");
            return;
        }
        if (rec->pinned) {
            diagTransfer(Invariant::kPinned, s, t.slot,
                         "upload overwrites a pinned resident-prefix "
                         "record");
            return;
        }
        size_t live = rec->q_live;
        if (t.layout != Layout::kNatural && t.layout != Layout::kNttDomain)
            diagTransfer(Invariant::kLayout, s, t.slot,
                         "upload declares a layout no host polynomial "
                         "travels in",
                         "layout natural or ntt-domain",
                         layoutText(t.layout));
        if (t.source == Transfer::Source::kValue) {
            if (t.index >= c_.value_levels.size()) {
                diagTransfer(Invariant::kShape, s, t.slot,
                             "upload of an unknown value id");
                return;
            }
            if (!host[t.index])
                diagTransfer(Invariant::kDefBeforeUse, s, t.slot,
                             "upload of value " +
                                 std::to_string(t.index) +
                                 " before the host holds its data (not "
                                 "an input, no prior spill download)");
            const size_t value_level = c_.value_levels[t.index];
            if (rec->level != value_level)
                diagTransfer(Invariant::kShape, s, t.slot,
                             "upload record level disagrees with the "
                             "value's level",
                             "level " + std::to_string(value_level),
                             "level " + std::to_string(rec->level));
            live = params_.qPrimeCount(value_level);
            // A reload lands in the domain its spill stored.
            const Layout stored = hostForm(t.index, t.poly);
            if (t.layout != stored)
                diagTransfer(Invariant::kLayout, s, t.slot,
                             "upload of value " + std::to_string(t.index) +
                                 " declares a domain other than the one "
                                 "its host copy holds",
                             layoutText(stored), layoutText(t.layout));
        } else {
            if (t.index >= c_.constants.size()) {
                diagTransfer(Invariant::kShape, s, t.slot,
                             "upload references a constant outside the "
                             "pool",
                             "< " + std::to_string(c_.constants.size()),
                             std::to_string(t.index));
                return;
            }
            const size_t residues =
                c_.constants[t.index].residueCount();
            if (residues != rec->q_live)
                diagTransfer(Invariant::kShape, s, t.slot,
                             "constant residue count disagrees with the "
                             "staged record's level",
                             std::to_string(rec->q_live) + " residues",
                             std::to_string(residues) + " residues");
            live = std::min(residues, rec->residues());
            const Layout form =
                c_.constants[t.index].form() == ntt::PolyForm::kNtt
                    ? Layout::kNttDomain
                    : Layout::kNatural;
            if (t.layout != form)
                diagTransfer(Invariant::kLayout, s, t.slot,
                             "constant " + std::to_string(t.index) +
                                 " is uploaded as another domain than "
                                 "its encoded form",
                             layoutText(form), layoutText(t.layout));
        }
        // uploadInto(): operand data lands in the domain it travels in;
        // any lift-extension residues keep the zeros of the bind.
        for (size_t k = 0; k < rec->residues(); ++k) {
            rec->layout[k] = k < live ? t.layout : Layout::kNatural;
            rec->written[k] = k < live;
        }
    }

    /** @return the domain of the host copy of value @p v's polynomial
     *  @p poly (natural for an input, else its last download's). */
    Layout
    hostForm(size_t v, uint32_t poly) const
    {
        return v < host_form_.size() && poly < 3 ? host_form_[v][poly]
                                                 : Layout::kNatural;
    }

    void
    applyDownload(size_t s, const Transfer &t)
    {
        RecState *rec = state(t.slot);
        if (rec == nullptr) {
            diagTransfer(Invariant::kDefBeforeUse, s, t.slot,
                         "download from a record the slot log never "
                         "allocates");
            return;
        }
        for (size_t k = 0; k < std::min(rec->q_live, rec->residues());
             ++k) {
            if (!rec->written[k]) {
                diagTransfer(Invariant::kDefBeforeUse, s, t.slot,
                             "download of a record nothing ever wrote "
                             "(residue " +
                                 std::to_string(k) + ")");
                return;
            }
        }
        if (t.source == Transfer::Source::kValue &&
            t.index < c_.value_levels.size() &&
            rec->level != c_.value_levels[t.index])
            diagTransfer(Invariant::kShape, s, t.slot,
                         "download record level disagrees with the "
                         "value's level",
                         "level " +
                             std::to_string(c_.value_levels[t.index]),
                         "level " + std::to_string(rec->level));
        // MemoryFile::exportQBase tags the host polynomial with the
        // record's domain: every q residue must be in the one the
        // transfer declares.
        for (size_t k = 0; k < std::min(rec->q_live, rec->residues());
             ++k) {
            if (rec->layout[k] != t.layout) {
                diagTransfer(Invariant::kLayout, s, t.slot,
                             "download of a record in another domain "
                             "than its transfer declares (residue " +
                                 std::to_string(k) + ")",
                             layoutText(t.layout),
                             layoutText(rec->layout[k]));
                break;
            }
        }
        if (t.source == Transfer::Source::kValue &&
            t.index < host_form_.size() && t.poly < 3)
            host_form_[t.index][t.poly] = t.layout;
    }

    // --- per-instruction interpretation ----------------------------------

    /** The records of an instruction's register operands, as resolved
     *  for its row (nullptr where the row leaves a field unused). */
    struct Regs
    {
        RecState *dst = nullptr;
        RecState *src0 = nullptr;
        RecState *src1 = nullptr;
    };

    /** An opcode's own transfer function: the checks and effects its
     *  descriptor row does not capture. */
    using OpRule = void (Verifier::*)(size_t, size_t, const Instruction &,
                                      const hw::OpInfo &, const Regs &);

    void
    interpret(size_t s, size_t i, const Instruction &in)
    {
        switch (in.op) {
          case Opcode::kNtt:
            return step<Opcode::kNtt, &Verifier::inPlace>(s, i, in);
          case Opcode::kIntt:
            return step<Opcode::kIntt, &Verifier::inPlace>(s, i, in);
          case Opcode::kRearrange:
            return step<Opcode::kRearrange, &Verifier::inPlace>(s, i, in);
          case Opcode::kCoeffMul:
            return step<Opcode::kCoeffMul, &Verifier::coeffOp>(s, i, in);
          case Opcode::kCoeffAdd:
            return step<Opcode::kCoeffAdd, &Verifier::coeffOp>(s, i, in);
          case Opcode::kCoeffSub:
            return step<Opcode::kCoeffSub, &Verifier::coeffOp>(s, i, in);
          case Opcode::kLift:
            return step<Opcode::kLift, &Verifier::lift>(s, i, in);
          case Opcode::kScale:
            return step<Opcode::kScale, &Verifier::scale>(s, i, in);
          case Opcode::kModSwitch:
            return step<Opcode::kModSwitch, &Verifier::modSwitch>(s, i, in);
          case Opcode::kAutomorph:
            return step<Opcode::kAutomorph, &Verifier::automorph>(s, i, in);
          case Opcode::kKeyLoad:
            return step<Opcode::kKeyLoad, &Verifier::keyLoad>(s, i, in);
        }
        diagAt(Invariant::kShape, s, i, in.op, in.dst, "unknown opcode");
    }

    /**
     * The checks every instruction passes, read from its descriptor
     * row — batch range, no stray fields, operand resolution and the
     * pinned-write guard, the full-base operand — then the opcode's
     * own @p transfer. The row is a compile-time constant here, so its
     * role tests fold away; the transfer functions and their layout
     * helpers are always_inline so the row's accepted and produced
     * layouts fold into them too (the verifier runs on every compile
     * and admission, and CI gates its cost at 5% of compile time).
     */
    template <Opcode Op, OpRule transfer>
    void
    step(size_t s, size_t i, const Instruction &in)
    {
        static constexpr const hw::OpInfo &info =
            hw::kOpInfo[static_cast<size_t>(Op)];
        // hw::residuesOfBatch panics on any batch but 0 and 1; opcodes
        // that do not batch ignore the field, so it must stay 0.
        if (in.batch > (info.batched ? 1 : 0)) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "batch out of range",
                   info.batched ? "batch 0 or 1" : "batch 0",
                   "batch " + std::to_string(in.batch));
            return;
        }
        // Resolve every record the row names: the registers it does not
        // mark unused (an optional one only when present), then the
        // extra list minus disabled sparse digit lanes. A record named
        // in a field the row marks unused is a miscompile (the
        // coprocessor ignores it), and no record the instruction
        // writes may be pinned.
        Regs regs;
        bool ok = true;
        PolyId pinned = kNoPoly;
        // The diagnostics live in separate functions so these lambdas
        // stay small enough to inline.
        const auto resolve = [&](PolyId id, bool writes,
                                 const char *field) -> RecState * {
            RecState *rec = state(id);
            if (rec == nullptr)
                ok = unresolved(s, i, in, id, field);
            else if (writes && rec->pinned && pinned == kNoPoly)
                pinned = id;
            return rec;
        };
        const auto stray = [&](const char *field) {
            ok = unusedFieldSet(s, i, in, field);
        };
        const auto reg = [&](hw::Role role, PolyId id,
                             const char *field) -> RecState * {
            if (role == hw::Role::kUnused) {
                if (id != kNoPoly)
                    stray(field);
                return nullptr;
            }
            if (role == hw::Role::kOptional && id == kNoPoly)
                return nullptr;
            return resolve(id, role != hw::Role::kRead, field);
        };
        regs.dst = reg(info.dst, in.dst, "dst");
        regs.src0 = reg(info.src0, in.src0, "src0");
        regs.src1 = reg(info.src1, in.src1, "src1");
        if (info.extra == hw::ExtraRole::kNone) {
            if (!in.extra.empty())
                stray("extra");
        } else {
            for (PolyId id : in.extra) {
                if (id != kNoPoly ||
                    info.extra != hw::ExtraRole::kSparseDigitLanes)
                    resolve(id, true, "extra");
            }
        }
        if (!ok)
            return;
        if (pinned != kNoPoly) {
            diagAt(Invariant::kPinned, s, i, in.op, pinned,
                   "instruction writes a pinned resident-prefix record "
                   "(warm reruns would see corrupted operands)");
            return;
        }
        const PolyId wide = hw::operandOf(in, info.full_base);
        if (wide != kNoPoly && state(wide)->base != BaseTag::kFull) {
            diagAt(Invariant::kShape, s, i, in.op, wide,
                   std::string(info.name) +
                       " needs a record the slot log extends to the full "
                       "base (lift before scale)",
                   "full base", "q base");
            return;
        }
        (this->*transfer)(s, i, in, info, regs);
    }

    /** Report that @p field names no allocated record. @return false. */
    bool
    unresolved(size_t s, size_t i, const Instruction &in, PolyId id,
               const char *field)
    {
        diagAt(Invariant::kDefBeforeUse, s, i, in.op, id,
               std::string(field) +
                   " names a record the slot log never allocates");
        return false;
    }

    /** Report a record in a field @p in's opcode does not use.
     *  @return false. */
    bool
    unusedFieldSet(size_t s, size_t i, const Instruction &in,
                   const char *field)
    {
        diagAt(Invariant::kShape, s, i, in.op, kNoPoly,
               std::string(field) + " is set, but " +
                   hw::opcodeName(in.op) + " does not use it");
        return false;
    }

    /** The one layout check: residue layout @p have must lie in
     *  @p accepted. @return false after emitting the diagnostic. */
    [[gnu::always_inline]] bool
    checkLayout(size_t s, size_t i, const Instruction &in, PolyId id,
                Layout have, hw::LayoutSet accepted,
                const char *message = nullptr)
    {
        if ((accepted & hw::layoutBit(have)) != 0)
            return true;
        layoutViolation(s, i, in, id, have, accepted, message);
        return false;
    }

    void
    layoutViolation(size_t s, size_t i, const Instruction &in, PolyId id,
                    Layout have, hw::LayoutSet accepted,
                    const char *message)
    {
        diagAt(Invariant::kLayout, s, i, in.op, id,
               message != nullptr
                   ? std::string(message)
                   : std::string(hw::opcodeName(in.op)) +
                         " does not accept this input layout",
               layoutSetName(accepted),
               layoutSetName(hw::layoutBit(have)));
    }

    /**
     * Residues @p range of record @p id (state @p rec) that @p in reads
     * must be defined and in a layout of @p accepted — the row's
     * accepted set or a narrower one. @return false after emitting the
     * diagnostic.
     */
    [[gnu::always_inline]] bool
    readable(size_t s, size_t i, const Instruction &in, PolyId id,
             const RecState &rec, hw::ResidueRange range,
             hw::LayoutSet accepted)
    {
        for (size_t k : range) {
            if (!rec.written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, id,
                       std::string(hw::opcodeName(in.op)) +
                           " reads residues nothing ever wrote");
                return false;
            }
            if (!checkLayout(s, i, in, id, rec.layout[k], accepted))
                return false;
        }
        return true;
    }

    /** NTT, INTT and Rearrange: in place over the batch's residues. */
    [[gnu::always_inline]] void
    inPlace(size_t s, size_t i, const Instruction &in,
            const hw::OpInfo &info, const Regs &r)
    {
        RecState &rec = *r.dst;
        const hw::ResidueRange range =
            hw::residuesOfBatch(in.batch, rec.q_live, rec.residues());
        if (!readable(s, i, in, in.dst, rec, range, info.accepts))
            return;
        for (size_t k : range)
            rec.layout[k] = hw::producedLayout(info, rec.layout[k]);
    }

    [[gnu::always_inline]] void
    coeffOp(size_t s, size_t i, const Instruction &in,
            const hw::OpInfo &info, const Regs &r)
    {
        RecState &dst = *r.dst;
        const RecState &a = *r.src0;
        const RecState &b = *r.src1;
        const auto baseName = [](const RecState &rec) {
            return rec.base == BaseTag::kFull ? "full base" : "q base";
        };
        if (in.batch == 1 && dst.base != a.base) {
            diagAt(Invariant::kShape, s, i, in.op, in.src0,
                   "batch-1 coeff op needs matching bases", baseName(dst),
                   baseName(a));
            return;
        }
        // The reads may legitimately hit a never-written record: the
        // emitters' shared zero constant is a freshly-allocated (and
        // therefore zeroed) slot that only ever feeds additive ops.
        const bool zero_ok = in.op != Opcode::kCoeffMul;
        const hw::ResidueRange range =
            hw::residuesOfBatch(in.batch, dst.q_live, dst.residues());
        for (size_t k : range) {
            if (k >= a.residues() || k >= b.residues()) {
                const bool a_small = k >= a.residues();
                diagAt(Invariant::kShape, s, i, in.op,
                       a_small ? in.src0 : in.src1,
                       "operand spans fewer residues than the "
                       "destination batch (level/base mismatch)",
                       ">= " + std::to_string(range.back() + 1) +
                           " residues",
                       std::to_string((a_small ? a : b).residues()) +
                           " residues");
                return;
            }
            if (!zero_ok && (!a.written[k] || !b.written[k])) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op,
                       !a.written[k] ? in.src0 : in.src1,
                       "multiplicative coeff op reads residues "
                       "nothing ever wrote");
                return;
            }
            if (!checkLayout(s, i, in, in.src1, b.layout[k],
                             hw::layoutBit(a.layout[k]),
                             "coeff op operand layout mismatch"))
                return;
            dst.layout[k] = hw::producedLayout(info, a.layout[k]);
            dst.written[k] = true;
        }
    }

    [[gnu::always_inline]] void
    lift(size_t s, size_t i, const Instruction &in,
         const hw::OpInfo &info, const Regs &r)
    {
        RecState &rec = *r.dst;
        const size_t kq = std::min(rec.q_live, rec.residues());
        if (!readable(s, i, in, in.dst, rec, hw::ResidueRange(0, kq),
                      info.accepts))
            return;
        for (size_t k = kq; k < rec.residues(); ++k) {
            rec.layout[k] = Layout::kNatural;
            rec.written[k] = true;
        }
    }

    [[gnu::always_inline]] void
    scale(size_t s, size_t i, const Instruction &in,
          const hw::OpInfo &info, const Regs &r)
    {
        const RecState &src = *r.src0;
        RecState &dst = *r.dst;
        if (in.dst == in.src0) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "scale cannot stream onto its own source record");
            return;
        }
        if (!readable(s, i, in, in.src0, src,
                      hw::ResidueRange(0, src.residues()), info.accepts))
            return;
        if (dst.level != src.level) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "scale destination level disagrees with the source",
                   "level " + std::to_string(src.level),
                   "level " + std::to_string(dst.level));
            return;
        }
        const size_t kq = params_.qPrimeCount(src.level);
        for (size_t k = 0; k < dst.residues(); ++k) {
            dst.layout[k] = Layout::kNatural;
            if (k < kq)
                dst.written[k] = true;
        }
        broadcastDigits(s, i, in, kq);
    }

    [[gnu::always_inline]] void
    modSwitch(size_t s, size_t i, const Instruction &in,
              const hw::OpInfo &info, const Regs &r)
    {
        const RecState &src = *r.src0;
        RecState &dst = *r.dst;
        if (src.level >= params_.maxLevel()) {
            diagAt(Invariant::kShape, s, i, in.op, in.src0,
                   "mod-switch from the last level",
                   "level < " + std::to_string(params_.maxLevel()),
                   "level " + std::to_string(src.level));
            return;
        }
        if (dst.level != src.level + 1) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "mod-switch destination must sit one level deeper "
                   "than its source",
                   "level " + std::to_string(src.level + 1),
                   "level " + std::to_string(dst.level));
            return;
        }
        const size_t live = params_.qPrimeCount(src.level);
        if (!readable(s, i, in, in.src0, src,
                      hw::ResidueRange(0, std::min(live, src.residues())),
                      info.accepts))
            return;
        for (size_t k = 0; k + 1 < live && k < dst.residues(); ++k) {
            dst.layout[k] = Layout::kNatural;
            dst.written[k] = true;
        }
    }

    [[gnu::always_inline]] void
    automorph(size_t s, size_t i, const Instruction &in,
              const hw::OpInfo &info, const Regs &r)
    {
        const RecState &src = *r.src0;
        if (in.dst == in.src0) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "automorphism cannot permute a slot onto itself");
            return;
        }
        if (in.dst == kNoPoly && in.extra.empty()) {
            diagAt(Invariant::kShape, s, i, in.op, in.src0,
                   "automorphism needs a destination or digit "
                   "broadcasts");
            return;
        }
        if (!validGalois(in.aux)) {
            diagAt(Invariant::kKey, s, i, in.op, in.src0,
                   "automorphism element is not odd and < 2n",
                   validGaloisRange(),
                   "element " + std::to_string(in.aux));
            return;
        }
        if (in.aux != 1 && !galoisDeclared(in.aux)) {
            diagAt(Invariant::kKey, s, i, in.op, in.src0,
                   "automorphism element is not declared in "
                   "galois_elements (no executing coprocessor is "
                   "guaranteed to hold its key)",
                   "declared Galois element",
                   "element " + std::to_string(in.aux));
            return;
        }
        const size_t kq =
            std::min(params_.qPrimeCount(src.level), src.residues());
        // The WordDecomp broadcast streams coefficient order, so an
        // automorphism that emits digits reads natural input only.
        if (!readable(s, i, in, in.src0, src, hw::ResidueRange(0, kq),
                      in.extra.empty() ? info.accepts
                                       : hw::layoutBit(Layout::kNatural)))
            return;
        const Layout layout = kq > 0 ? src.layout[0] : Layout::kNatural;
        for (size_t k = 1; k < kq; ++k) {
            if (!checkLayout(s, i, in, in.src0, src.layout[k],
                             hw::layoutBit(layout),
                             "automorphism input layout is mixed"))
                return;
        }
        if (in.dst != kNoPoly) {
            RecState &dst = *r.dst;
            if (dst.residues() < kq) {
                diagAt(Invariant::kShape, s, i, in.op, in.dst,
                       "automorphism destination record too small",
                       ">= " + std::to_string(kq) + " residues",
                       std::to_string(dst.residues()) + " residues");
                return;
            }
            for (size_t k = 0; k < kq; ++k) {
                dst.layout[k] = hw::producedLayout(info, layout);
                dst.written[k] = true;
            }
        }
        broadcastDigits(s, i, in, kq);
    }

    /**
     * Apply @p in's WordDecomp broadcast: none or one lane per live q
     * prime (@p kq), digit d landing in its lane's first kq residues in
     * natural order. @return false after emitting the diagnostic when
     * the lane count or a lane's record size is wrong.
     */
    bool
    broadcastDigits(size_t s, size_t i, const Instruction &in, size_t kq)
    {
        if (!in.extra.empty() && in.extra.size() != kq) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "WordDecomp broadcast needs one digit lane per live "
                   "q prime",
                   std::to_string(kq) + " lanes",
                   std::to_string(in.extra.size()) + " lanes");
            return false;
        }
        for (PolyId id : in.extra) {
            if (id == kNoPoly)
                continue; // disabled lane
            RecState &dig = *state(id);
            if (dig.residues() < kq) {
                diagAt(Invariant::kShape, s, i, in.op, id,
                       "digit record spans fewer residues than the "
                       "broadcast writes",
                       ">= " + std::to_string(kq) + " residues",
                       std::to_string(dig.residues()) + " residues");
                return false;
            }
            for (size_t k = 0; k < dig.residues(); ++k) {
                dig.layout[k] = Layout::kNatural;
                dig.written[k] = k < kq;
            }
        }
        return true;
    }

    [[gnu::always_inline]] void
    keyLoad(size_t s, size_t i, const Instruction &in,
            const hw::OpInfo &, const Regs &)
    {
        const uint32_t selector = hw::keyLoadSelector(in.aux);
        const uint32_t digit = hw::keyLoadDigit(in.aux);
        if (selector == 0) {
            if (!circuitRelinearizes()) {
                diagAt(Invariant::kKey, s, i, in.op, kNoPoly,
                       "program loads relinearization keys but the "
                       "circuit never relinearizes");
                return;
            }
        } else if (!validGalois(selector)) {
            diagAt(Invariant::kKey, s, i, in.op, kNoPoly,
                   "key load selects a Galois element that is not odd "
                   "and < 2n",
                   validGaloisRange(),
                   "element " + std::to_string(selector));
            return;
        } else if (!galoisDeclared(selector)) {
            diagAt(Invariant::kKey, s, i, in.op, kNoPoly,
                   "key load selects a Galois element the compiled "
                   "circuit does not declare",
                   "declared Galois element",
                   "element " + std::to_string(selector));
            return;
        }
        if (digit >= params_.rnsDigitCount(0)) {
            diagAt(Invariant::kKey, s, i, in.op, kNoPoly,
                   "key digit out of range",
                   "< " + std::to_string(params_.rnsDigitCount(0)),
                   "digit " + std::to_string(digit));
            return;
        }
        if (in.extra.size() != 2) {
            diagAt(Invariant::kShape, s, i, in.op, kNoPoly,
                   "key load needs two buffer targets", "2 buffers",
                   std::to_string(in.extra.size()) + " buffers");
            return;
        }
        // Keys stream in pre-transformed; a level-l buffer takes the
        // live-residue prefix of the level-0 key.
        for (PolyId id : in.extra) {
            RecState &buf = *state(id);
            for (size_t k = 0; k < buf.residues(); ++k) {
                buf.layout[k] = Layout::kNttDomain;
                buf.written[k] = true;
            }
        }
    }

    // --- phase 7: interface coverage -------------------------------------

    void
    checkInputCoverage()
    {
        // Which values each node actually reads: an input no node
        // consumes is legitimately never uploaded.
        std::vector<bool> used(c_.circuit.nodes.size(), false);
        for (const compiler::CircuitNode &node : c_.circuit.nodes) {
            for (int a = 0; a < compiler::nodeArgCount(node.kind); ++a)
                if (node.args[a] < used.size())
                    used[node.args[a]] = true;
        }
        std::vector<bool> resident(c_.inputs.size(), false);
        for (uint32_t pos : c_.resident_inputs)
            if (pos < resident.size())
                resident[pos] = true;

        for (size_t pos = 0; pos < c_.inputs.size(); ++pos) {
            const compiler::ValueId v = c_.inputs[pos];
            if (resident[pos] || v >= used.size() || !used[v])
                continue;
            const uint32_t polys = c_.value_sizes[v];
            for (uint32_t p = 0; p < polys; ++p) {
                if (!uploadExists(v, p))
                    diag(Invariant::kDefBeforeUse,
                         "input value " + std::to_string(v) +
                             " polynomial " + std::to_string(p) +
                             " is consumed but never uploaded",
                         "an upload transfer", "none");
            }
        }
    }

    bool
    uploadExists(compiler::ValueId v, uint32_t poly) const
    {
        for (const compiler::Segment &seg : c_.segments) {
            for (const Transfer &t : seg.uploads) {
                if (t.source == Transfer::Source::kValue &&
                    t.index == v && t.poly == poly)
                    return true;
            }
        }
        return false;
    }

    void
    checkOutputs()
    {
        // An output that is a non-resident circuit input needs no
        // download: its host copy is the request's ciphertext, which no
        // device write changes (a resident one's may be absent on a
        // warm run).
        std::vector<bool> host_input(c_.value_sizes.size(), false);
        for (size_t pos = 0; pos < c_.inputs.size(); ++pos)
            if (c_.inputs[pos] < host_input.size())
                host_input[c_.inputs[pos]] = true;
        for (uint32_t pos : c_.resident_inputs)
            if (pos < c_.inputs.size() &&
                c_.inputs[pos] < host_input.size())
                host_input[c_.inputs[pos]] = false;

        for (size_t o = 0; o < c_.outputs.size(); ++o) {
            const compiler::ValueId v = c_.outputs[o];
            if (v >= c_.value_sizes.size())
                continue; // structural diagnostics already emitted
            const uint32_t polys = c_.value_sizes[v];
            for (uint32_t p = 0; p < polys; ++p) {
                const bool downloaded = downloadExists(v, p);
                if (!downloaded && host_input[v])
                    continue;
                if (!downloaded)
                    diag(Invariant::kOutput,
                         "declared output value " + std::to_string(v) +
                             " polynomial " + std::to_string(p) +
                             " is never downloaded (dead at program "
                             "end)",
                         "a download transfer", "none");
                else if (hostForm(v, p) != Layout::kNatural)
                    diag(Invariant::kLayout,
                         "declared output value " + std::to_string(v) +
                             " polynomial " + std::to_string(p) +
                             " is downloaded NTT-domain",
                         layoutText(Layout::kNatural),
                         layoutText(hostForm(v, p)));
            }
        }
    }

    bool
    downloadExists(compiler::ValueId v, uint32_t poly) const
    {
        for (const compiler::Segment &seg : c_.segments) {
            for (const Transfer &t : seg.downloads) {
                if (t.source == Transfer::Source::kValue &&
                    t.index == v && t.poly == poly)
                    return true;
            }
        }
        return false;
    }

    const CompiledCircuit &c_;
    const fv::FvParams &params_;
    VerifyResult result_;

    std::vector<RecState> recs_;
    /** Domain of each value polynomial's host copy (interpretSegments). */
    std::vector<std::array<Layout, 3>> host_form_;
    // Touch positions indexed by record id (kNoIndex = never touched;
    // ids are dense, so flat tables beat hashing on the verify path
    // every compile and admission pays for).
    std::vector<size_t> first_touch_;
    std::vector<size_t> last_touch_;
    std::vector<size_t> first_ext_touch_;
};

} // namespace

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::kSlotLog:
        return "slot-log";
      case Invariant::kSlotCapacity:
        return "slot-capacity";
      case Invariant::kDefBeforeUse:
        return "def-before-use";
      case Invariant::kUseAfterConsume:
        return "use-after-consume";
      case Invariant::kLayout:
        return "layout";
      case Invariant::kShape:
        return "shape";
      case Invariant::kKey:
        return "key";
      case Invariant::kPinned:
        return "pinned";
      case Invariant::kOutput:
        return "output";
    }
    return "?";
}

std::string
Diagnostic::str() const
{
    std::ostringstream oss;
    oss << "[" << invariantName(invariant) << "]";
    if (segment != kNoIndex)
        oss << " seg " << segment;
    if (instr != kNoIndex) {
        oss << " instr " << instr;
        if (has_op)
            oss << " (" << hw::opcodeName(op) << ")";
    } else if (action != kNoIndex) {
        oss << " action " << action;
    }
    if (record != hw::kNoPoly)
        oss << " record " << record;
    oss << ": " << message;
    if (!expected.empty() || !actual.empty())
        oss << " (expected " << expected << ", got " << actual << ")";
    return oss.str();
}

std::string
VerifyResult::report() const
{
    std::ostringstream oss;
    if (ok()) {
        oss << "verified clean: " << instructions << " instructions, "
            << records << " records";
        return oss.str();
    }
    oss << diagnostics.size() << " invariant violation"
        << (diagnostics.size() == 1 ? "" : "s") << " over "
        << instructions << " instructions:\n";
    for (const Diagnostic &d : diagnostics)
        oss << "  " << d.str() << "\n";
    return oss.str();
}

VerifyResult
verifyCompiledCircuit(const compiler::CompiledCircuit &compiled)
{
    return Verifier(compiled).run();
}

} // namespace heat::verify
