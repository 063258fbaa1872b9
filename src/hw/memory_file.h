/**
 * @file
 * The coprocessor's on-chip memory file.
 *
 * Polynomials are stored as residue-polynomial slots of n/2 60-bit words
 * (two coefficients per word, four BRAM36K per slot). Residue k of the
 * paper's 13-prime base maps to RPAU (k < 6 ? k : k - 6) — the resource
 * sharing of Sec. V-A1 — and instructions operate on one of two batches:
 * batch 0 = the q primes, batch 1 = the extension primes.
 *
 * The pool holds 84 slots (Table IV's BRAM budget: 84*4 = 336 BRAM36K
 * for data + 49 for twiddle ROMs + interface = 388). Slot exhaustion is
 * a hard error: FV.Mult must be schedulable inside this budget, and the
 * program emitters' allocation discipline is part of the reproduction.
 *
 * Slot allocation is performed through the SlotAllocator interface so a
 * program can be scheduled twice from the same emitters: once against a
 * CountingAllocator (pure accounting — the circuit compiler's build
 * step, which records the action log) and once against a real
 * MemoryFile (replaySlotActions(), which materializes the identical id
 * assignment on a worker's coprocessor).
 *
 * Each residue carries a layout tag mirroring the physical data order:
 * kNatural (coefficient order, what Lift/Scale stream), kPaired (the
 * bit-reversed paired-word order the NTT engine consumes — REARRANGE
 * converts), and kNttDomain (evaluation order).
 */

#ifndef HEAT_HW_MEMORY_FILE_H
#define HEAT_HW_MEMORY_FILE_H

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/panic.h"
#include "fv/params.h"
#include "hw/config.h"
#include "ntt/rns_poly.h"

namespace heat::hw {

/** Identifier of a polynomial resident in the memory file. */
using PolyId = uint32_t;

/** Sentinel for "no polynomial". */
constexpr PolyId kNoPoly = ~PolyId(0);

/** Physical data order of one residue polynomial. */
enum class Layout : uint8_t
{
    kNatural,  ///< coefficient order (Lift/Scale streaming order)
    kPaired,   ///< paired/bit-reversed word order (NTT engine input)
    kNttDomain ///< evaluation (NTT) order
};

/** Which RNS base a resident polynomial spans. */
enum class BaseTag : uint8_t
{
    kQ,   ///< ciphertext base q
    kFull ///< extended base Q = q * p
};

/**
 * Thrown by allocators operating in throw-on-pressure mode when an
 * allocation exceeds the slot capacity. The circuit compiler catches
 * this to trigger a spill instead of failing the build.
 */
class SlotPressureError : public std::runtime_error
{
  public:
    explicit SlotPressureError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Thrown by MemoryFile record accessors handed an id that names no
 * valid record — an out-of-range id, a freed record, or a stale id
 * from before a reset. Derives from PanicError (a caller presenting
 * such an id is a library bug, not a user error) but additionally
 * carries the offending id so harnesses and the serving layer can
 * report *which* record a broken program addressed instead of
 * reaching into unallocated storage.
 */
class InvalidRecordError : public PanicError
{
  public:
    InvalidRecordError(const std::string &msg, PolyId id)
        : PanicError(msg), id_(id)
    {
    }

    /** @return the record id the failed access named. */
    PolyId id() const { return id_; }

  private:
    PolyId id_;
};

/**
 * One slot-allocation action. A CountingAllocator records the sequence
 * of actions a program build performed; replaySlotActions() re-executes
 * it against a real MemoryFile, panicking if the id assignment ever
 * diverges (deterministic allocation is what lets one compiled program
 * run on any worker's coprocessor).
 */
struct SlotAction
{
    enum class Kind : uint8_t
    {
        kAllocate,
        kRelease,
        kExtend
    };

    Kind kind = Kind::kAllocate;
    /** Allocated / released / extended polynomial id. */
    PolyId id = kNoPoly;
    /** Base of the allocation (kAllocate only). */
    BaseTag base = BaseTag::kQ;
    /** Initial layout (kAllocate only). */
    Layout layout = Layout::kNatural;
    /** Modulus-switching level of the allocation (kAllocate only). */
    size_t level = 0;

    bool operator==(const SlotAction &o) const = default;
};

/**
 * Slot-accounting interface shared by the real memory file and the
 * compiler's build-time allocator. Allocation is deterministic:
 * sequential ids, capacity counted in residue slots.
 */
class SlotAllocator
{
  public:
    virtual ~SlotAllocator() = default;

    /**
     * Allocate a polynomial over base @p tag. @p what names the
     * requesting operation for slot-pressure diagnostics (may be null).
     */
    virtual PolyId allocate(BaseTag tag, Layout layout,
                            const char *what) = 0;

    /** Convenience overload without a requester label. */
    PolyId
    allocate(BaseTag tag, Layout layout = Layout::kNatural)
    {
        return allocate(tag, layout, nullptr);
    }

    /** Return a polynomial's slots to the allocator. */
    virtual void release(PolyId id) = 0;

    /** Extend a q-base polynomial to the full base (Lift allocation). */
    virtual void extendToFull(PolyId id, const char *what) = 0;

    /** Convenience overload without a requester label. */
    void extendToFull(PolyId id) { extendToFull(id, nullptr); }

    /** @return total slot capacity (n_rpaus * slots_per_rpau). */
    virtual size_t capacity() const = 0;

    /** @return slots currently allocated. */
    virtual size_t slotsInUse() const = 0;

    /** @return maximum slots ever allocated (memory high-water mark). */
    virtual size_t peakSlots() const = 0;

    /** @return residue count of base @p tag at level 0. */
    virtual size_t residueCount(BaseTag tag) const = 0;

    /**
     * Set the modulus-switching level of subsequent allocations. A
     * level-l polynomial spans residueCount(tag) - l residue slots (the
     * dropped q primes free their RPAU slots — the capacity win
     * level-aware datapaths are built around). Emitters set this before
     * allocating the outputs of a mod-switched region.
     */
    void setLevel(size_t level) { level_ = level; }

    /** @return the level applied to new allocations. */
    size_t level() const { return level_; }

    /** @return live residues of a level-l polynomial over @p tag. */
    size_t liveResidues(BaseTag tag, size_t level) const
    {
        return residueCount(tag) - level;
    }

    /** @return slots still free. */
    size_t freeSlots() const { return capacity() - slotsInUse(); }

  protected:
    size_t level_ = 0;
};

/** A polynomial resident in the memory file. */
struct PolyRecord
{
    BaseTag base = BaseTag::kQ;
    /** Modulus-switching level: the record spans the live residues of
     *  its level's basis (layout.size() = live count). */
    size_t level = 0;
    /** Layout per residue (size = live residue count). */
    std::vector<Layout> layout;
    /** Residue-major coefficient data. */
    std::vector<uint64_t> data;
    bool valid = false;
    /** Slots returned to the allocator (record still readable). */
    bool released = false;
};

/** Slot-accounted storage for resident polynomials. */
class MemoryFile : public SlotAllocator
{
  public:
    MemoryFile(std::shared_ptr<const fv::FvParams> params,
               const HwConfig &config);

    using SlotAllocator::allocate;
    using SlotAllocator::extendToFull;

    /** @return residue count of base @p tag. */
    size_t residueCount(BaseTag tag) const override;

    /** @return total slot capacity (n_rpaus * slots_per_rpau). */
    size_t capacity() const override { return capacity_; }

    /** @return slots currently allocated. */
    size_t slotsInUse() const override { return in_use_; }

    /** @return maximum slots ever allocated (memory high-water mark). */
    size_t peakSlots() const override { return peak_; }

    /**
     * Drop every record and return all slots: the reprogramming step
     * before each compiled-circuit run (a Mult program alone peaks at 78
     * of the 84 slots, so programs cannot stay resident side by side).
     * Also clears the peak-slot watermark and any pinned prefix. The
     * dropped records' coefficient buffers are kept for reuse by later
     * allocations, which still read as zero; buffers kept from an
     * earlier drop are freed, so between runs the memory file holds at
     * most the buffers of the run it last dropped.
     */
    void reset();

    /**
     * Pin the first @p count records: their slots (and data) survive
     * resetToPinned(), the reprogramming step of the serving layer's
     * resident ciphertext cache. Pinned records must be the id prefix
     * 0..count-1, valid and unreleased — the cache uploads its operands
     * into a freshly reset memory file before anything else allocates,
     * which is also what keeps compiled-circuit slot replay ids in
     * agreement (the compiler reserves the same prefix). A count of 0
     * unpins everything.
     */
    void setPinnedRecords(size_t count);

    /** @return pinned-prefix record count. */
    size_t pinnedRecords() const { return pinned_records_; }

    /** @return slots held by the pinned prefix. */
    size_t pinnedSlots() const { return pinned_slots_; }

    /**
     * Reprogram around the resident cache: drop every record except
     * the pinned prefix, whose ids, slots and data survive. Subsequent
     * allocation continues at id pinnedRecords() — exactly the state a
     * resident-compiled circuit's slot replay expects. Equivalent to
     * reset() when nothing is pinned; the dropped records' buffers are
     * kept for reuse, as there.
     */
    void resetToPinned();

    /** Allocate a zeroed polynomial over base @p tag. Exhaustion is a
     *  hard error reporting the live/capacity slot pressure and the
     *  requesting operation. */
    PolyId allocate(BaseTag tag, Layout layout, const char *what) override;

    /** Release a polynomial's slots and invalidate the record. */
    void free(PolyId id);

    /**
     * Return a polynomial's slots to the allocator while keeping the
     * record readable. Program building performs slot accounting
     * statically: the builder only releases a record after its last use
     * in program order, so a later allocation can safely reuse the
     * physical slots even though the simulator keeps the old data for
     * inspection.
     */
    void release(PolyId id) override;

    /** Extend a q-base polynomial to the full base (Lift allocation). */
    void extendToFull(PolyId id, const char *what) override;

    /** @return mutable record (must be valid). */
    PolyRecord &record(PolyId id);

    /** @return const record (must be valid). */
    const PolyRecord &record(PolyId id) const;

    /** @return the level of @p id's record, or 0 when @p id does not
     *  name a valid record (level-0 costs for bare cost queries). */
    size_t recordLevel(PolyId id) const
    {
        return id < records_.size() && records_[id].valid
                   ? records_[id].level
                   : 0;
    }

    /** Copy an RnsPoly into a fresh record (operand upload). */
    PolyId import(const ntt::RnsPoly &poly, Layout layout);

    /** Read a record back out as an RnsPoly (coefficient form). */
    ntt::RnsPoly exportPoly(PolyId id) const;

    /**
     * Read the q-base view of a record: its first kq residues. For a
     * q-base record this equals exportPoly(); for a record a later
     * instruction of a fused program lifts in place (the compiler
     * extends slots up front), the q residues are the same physical
     * slots, which is what a mid-program DMA download streams.
     */
    ntt::RnsPoly exportQBase(PolyId id) const;

    /** Degree n. */
    size_t degree() const { return params_->degree(); }

    /** Parameter set. */
    const fv::FvParams &params() const { return *params_; }

  private:
    PolyId allocateAt(BaseTag tag, Layout layout, size_t level,
                      const char *what);
    /** Drop the records from id @p keep on, keeping their coefficient
     *  buffers in spare_ in place of any kept before. */
    void dropRecordsFrom(size_t keep);

    std::shared_ptr<const fv::FvParams> params_;
    size_t capacity_;
    size_t in_use_ = 0;
    size_t peak_ = 0;
    /** Pinned prefix (ids 0..pinned_records_-1) surviving
     *  resetToPinned(); see setPinnedRecords(). */
    size_t pinned_records_ = 0;
    size_t pinned_slots_ = 0;
    std::vector<PolyRecord> records_;
    /**
     * Coefficient buffers of dropped records, stacked so the next
     * allocation takes the buffer of the lowest dropped id: replaying
     * the same slot log hands every record its previous buffer back,
     * already sized and already paged in.
     */
    std::vector<std::vector<uint64_t>> spare_;
};

/**
 * Pure slot accounting with MemoryFile's exact allocation discipline
 * (sequential ids, identical capacity math) but no polynomial data.
 * Records every action so the identical allocation can later be
 * replayed on a real memory file. Copyable — the circuit compiler
 * snapshots it to roll back a partially-emitted node before spilling.
 */
class CountingAllocator : public SlotAllocator
{
  public:
    /**
     * @param params parameter set (residue counts).
     * @param config hardware configuration (slot capacity).
     * @param throw_on_pressure throw SlotPressureError instead of
     *        fatal() when an allocation exceeds the capacity.
     */
    CountingAllocator(const fv::FvParams &params, const HwConfig &config,
                      bool throw_on_pressure = false);

    using SlotAllocator::allocate;
    using SlotAllocator::extendToFull;

    PolyId allocate(BaseTag tag, Layout layout, const char *what) override;
    void release(PolyId id) override;
    void extendToFull(PolyId id, const char *what) override;

    size_t capacity() const override { return capacity_; }
    size_t slotsInUse() const override { return in_use_; }
    size_t peakSlots() const override { return peak_; }
    size_t residueCount(BaseTag tag) const override;

    /** @return the recorded action log. */
    const std::vector<SlotAction> &actions() const { return actions_; }

    /** @return number of ids handed out so far. */
    size_t recordCount() const { return records_.size(); }

  private:
    struct Rec
    {
        BaseTag base = BaseTag::kQ;
        size_t level = 0;
        bool released = false;
    };

    [[noreturn]] void overflow(size_t need, const char *what) const;

    size_t q_residues_;
    size_t full_residues_;
    size_t capacity_;
    bool throw_on_pressure_;
    size_t in_use_ = 0;
    size_t peak_ = 0;
    std::vector<Rec> records_;
    std::vector<SlotAction> actions_;
};

/**
 * Re-execute a recorded allocation sequence against @p memory,
 * materializing the same polynomial ids (panics on divergence — the
 * memory file was not in the expected state, usually because it was
 * not freshly reset).
 */
void replaySlotActions(MemoryFile &memory,
                       std::span<const SlotAction> actions);

} // namespace heat::hw

#endif // HEAT_HW_MEMORY_FILE_H
