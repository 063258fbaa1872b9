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
 * The memory file holds 84 slots (Table IV's BRAM budget: 84*4 = 336 BRAM36K
 * for data + 49 for twiddle ROMs + interface = 388). Slot exhaustion is
 * a hard error: FV.Mult must be schedulable inside this budget, and the
 * program emitters' allocation discipline is part of the reproduction.
 *
 * The memory file has no allocator: as in the paper, instructions
 * already name their slots. The program emitters allocate from a
 * CountingAllocator at compile time, whose action log the verifier
 * proves sound, and a record id addresses the memory file's table. A
 * run binds each record a segment's slot-log range allocates just
 * before the segment first touches it (final shape, buffer from a LIFO
 * pool, zero-filled unless that touch overwrites it whole) and returns
 * each record the range releases right after its last touch, so it
 * holds about the residues the modeled slots do
 * (compiler::runCompiledImpl builds that schedule).
 *
 * A key load does not copy the key into its buffer records: it lends
 * them the key's residues read-only (borrow()). Coefficient-wise
 * operand reads take the lent words in place, as the hardware streams
 * a key from DDR into the MAC; any other access copies them in first,
 * and endBorrows() does so for every borrow left when a program ends.
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
 * Thrown by CountingAllocator when an allocation exceeds the slot
 * capacity. The circuit compiler catches this to trigger a spill
 * instead of failing the build.
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
 * bound record — an id past the table, or a record whose buffer went
 * back to the pool (released by an earlier segment, or dropped by a
 * reset). Derives from PanicError (a caller presenting
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
 * of actions a program build performed; the ids it hands out are
 * sequential and never reused within one log, so they address a
 * MemoryFile's record table directly.
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
    /** Read-only words lent by MemoryFile::borrow(), or null. While
     *  set, `data` is stale: only MemoryFile::operand() hands the
     *  record out without copying them into `data` first. */
    const uint64_t *lent = nullptr;
    bool valid = false;

    /** @return the record's coefficient words: the lent ones while
     *  borrowed. */
    const uint64_t *words() const
    {
        return lent != nullptr ? lent : data.data();
    }
};

/** The shape a slot-action log gives one record: its allocation,
 *  widened to the full base (natural extension residues) by a kExtend. */
struct RecordShape
{
    BaseTag base = BaseTag::kQ;
    bool extended = false;
    size_t level = 0;
    Layout layout = Layout::kNatural;
};

/** @return the live residues (slots) of a record at @p shape. */
size_t shapeResidues(const fv::FvParams &params, const RecordShape &shape);

/** What a slot-action log asks of a memory file: each record's final
 *  shape, by id, and the log's slot high-water mark. */
struct SlotLogShape
{
    std::vector<RecordShape> records;
    size_t peak_slots = 0;
};

/**
 * Walk @p actions once for their SlotLogShape. Never throws: actions no
 * well-formed log holds (an id past the log's length, a level past the
 * last, a release or extend of a record holding no slots) are skipped,
 * so a run that reaches their records fails on InvalidRecordError.
 */
SlotLogShape shapeSlotLog(const fv::FvParams &params,
                          std::span<const SlotAction> actions);

/**
 * Id-indexed storage for resident polynomials: a compiled circuit's
 * record ids address this table. Record buffers come from a pool that
 * outlives runs, so a repeated circuit reuses buffers already sized
 * and paged in.
 */
class MemoryFile
{
  public:
    MemoryFile(std::shared_ptr<const fv::FvParams> params,
               const HwConfig &config);

    /** Return every record's buffer to the pool, keeping at most
     *  @p pooled buffers (the largest), and unpin the prefix: the
     *  reprogramming step before a cold run. */
    void reset(size_t pooled = SIZE_MAX);

    /**
     * Pin the first @p count records, which must be bound: their data
     * survives resetToPinned(), the reprogramming step of the serving
     * layer's resident ciphertext cache (the compiler allocates
     * resident operands first). A count of 0 unpins everything.
     */
    void setPinnedRecords(size_t count);

    /** @return pinned-prefix record count. */
    size_t pinnedRecords() const { return pinned_records_; }

    /** Reprogram around the resident cache: return the buffers of the
     *  records past the pinned prefix, which stays bound. */
    void resetToPinned();

    /** Throw FatalError when @p log's slot peak oversubscribes the
     *  memory file: a log that skipped the verifier may. */
    void checkCapacity(const SlotLogShape &log) const;

    /**
     * Bind record @p id at @p shape (a slot log's final shape for it)
     * over the last buffer returned to the pool that fits, zero-filled:
     * the fill keeps a program that skipped the verifier from
     * reading a buffer another run left behind. Pass @p fill false only
     * when the record's first touch overwrites every live word before
     * anything reads one (hw::overwritesRecord, or an upload of a whole
     * record): the buffer then keeps what it held. Panics when the
     * record is already bound.
     */
    void bindRecord(PolyId id, const RecordShape &shape, bool fill = true);

    /** Return bound record @p id's buffer to the pool (a borrow ends
     *  uncopied); it reads as InvalidRecordError afterwards. Panics on
     *  a pinned record. */
    void returnRecord(PolyId id);

    /** @return bound record @p id (else InvalidRecordError), a
     *  borrowed one after copying its lent words in. */
    PolyRecord &record(PolyId id);
    const PolyRecord &record(PolyId id) const;

    /** @return bound record @p id (else InvalidRecordError) as it is:
     *  read its coefficients through PolyRecord::words(). */
    const PolyRecord &operand(PolyId id) const;

    /**
     * Lend bound record @p id the first data.size() words of @p words,
     * read-only, and set every residue to @p layout: a key load. The
     * lender must outlive the borrow, which ends at the record's next
     * record() access, its return, or endBorrows().
     */
    void borrow(PolyId id, std::span<const uint64_t> words, Layout layout);

    /** Copy the lent words of every record still borrowed into its
     *  own buffer, so no borrow outlives the program that made it. */
    void endBorrows();

    /** @return the most residues bound at once since the last reset()
     *  (records' live residues, the pinned prefix included). */
    size_t peakBoundResidues() const { return peak_bound_residues_; }

    /** @return the level of @p id's record, or 0 when @p id does not
     *  name a bound record (level-0 costs for bare cost queries). */
    size_t recordLevel(PolyId id) const
    {
        return id < records_.size() && records_[id].valid
                   ? records_[id].level
                   : 0;
    }

    /**
     * Read the q-base view of a record: its first kq residues — the
     * whole of a q-base record, and of a record a later Lift extends
     * (bound at the full base) what a DMA download streams. The result
     * is tagged ntt::PolyForm::kNtt when the record is NTT-domain, else
     * kCoeff.
     */
    ntt::RnsPoly exportQBase(PolyId id) const;

    /** Degree n. */
    size_t degree() const { return params_->degree(); }

    /** Parameter set. */
    const fv::FvParams &params() const { return *params_; }

  private:
    /** @return @p id when it names a bound record, else throw
     *  InvalidRecordError. */
    size_t operandIndex(PolyId id) const;
    /** Return @p rec's buffer to the pool and unbind it. */
    void recycle(PolyRecord &rec);
    /** Return the buffers of the records from id @p keep on. */
    void returnRecordsFrom(size_t keep);

    std::shared_ptr<const fv::FvParams> params_;
    /** Slot capacity (n_rpaus * slots_per_rpau). */
    size_t capacity_;
    /** Pinned prefix (ids 0..pinned_records_-1) surviving
     *  resetToPinned(); see setPinnedRecords(). */
    size_t pinned_records_ = 0;
    std::vector<PolyRecord> records_;
    /** Records borrow() lent words to since the last endBorrows(). */
    std::vector<PolyId> borrowed_;
    /** Buffers of returned records by capacity in residues; a bind
     *  takes the last one returned of its size, else of the next. */
    std::vector<std::vector<std::vector<uint64_t>>> pool_;
    size_t bound_residues_ = 0;
    size_t peak_bound_residues_ = 0;
};

/**
 * Slot accounting for the program emitters (program_builder.h): hands
 * out sequential record ids, counts their residue slots against the
 * memory file's capacity (SlotPressureError when one does not fit) and
 * logs every action. Copyable — the circuit compiler snapshots it to
 * roll back a partially-emitted node before spilling.
 */
class CountingAllocator
{
  public:
    CountingAllocator(const fv::FvParams &params, const HwConfig &config);

    /** @return live residues of a level-l polynomial over @p tag. */
    size_t
    liveResidues(BaseTag tag, size_t level) const
    {
        return (tag == BaseTag::kQ ? q_residues_ : full_residues_) - level;
    }

    /** @return total slot capacity (n_rpaus * slots_per_rpau). */
    size_t capacity() const { return capacity_; }

    /** @return slots currently allocated. */
    size_t slotsInUse() const { return in_use_; }

    /** @return maximum slots ever allocated (memory high-water mark). */
    size_t peakSlots() const { return peak_; }

    /** @return slots still free. */
    size_t freeSlots() const { return capacity_ - in_use_; }

    /**
     * Set the modulus-switching level of subsequent allocations. A
     * level-l polynomial spans liveResidues(tag, l) residue slots (the
     * dropped q primes free their RPAU slots — the capacity win
     * level-aware datapaths are built around). Emitters set this before
     * allocating the outputs of a mod-switched region.
     */
    void setLevel(size_t level) { level_ = level; }

    /** @return the level applied to new allocations. */
    size_t level() const { return level_; }

    /** Allocate over base @p tag at level(); @p what names the
     *  requesting operation in the slot-pressure diagnostic. */
    PolyId allocate(BaseTag tag, Layout layout = Layout::kNatural,
                    const char *what = nullptr);
    void release(PolyId id);
    void extendToFull(PolyId id, const char *what = nullptr);

    /** @return the recorded action log. */
    const std::vector<SlotAction> &actions() const { return actions_; }

  private:
    struct Rec
    {
        BaseTag base = BaseTag::kQ;
        size_t level = 0;
        bool released = false;
    };

    /** Take @p need slots or throw SlotPressureError. */
    void charge(size_t need, const char *what);

    size_t q_residues_;
    size_t full_residues_;
    size_t capacity_;
    size_t in_use_ = 0;
    size_t peak_ = 0;
    size_t level_ = 0;
    std::vector<Rec> records_;
    std::vector<SlotAction> actions_;
};

/** Bind every record of the whole log @p actions on @p memory (none
 *  is returned), as if every segment of its program ran at once.
 *  Throws FatalError when the log oversubscribes the memory file. */
void replaySlotActions(MemoryFile &memory,
                       std::span<const SlotAction> actions);

} // namespace heat::hw

#endif // HEAT_HW_MEMORY_FILE_H
