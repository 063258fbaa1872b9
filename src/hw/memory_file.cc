#include "hw/memory_file.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/panic.h"

namespace heat::hw {

namespace {

size_t
shapeResidues(const fv::FvParams &params, const RecordShape &shape)
{
    const size_t q = params.qPrimeCount(shape.level);
    return shape.base == BaseTag::kQ && !shape.extended
               ? q
               : q + params.pBase()->size();
}

} // namespace

SlotLogShape
shapeSlotLog(const fv::FvParams &params, std::span<const SlotAction> actions)
{
    SlotLogShape log;
    // Slots each record holds (0 before its allocation and after its
    // release).
    std::vector<size_t> held;
    size_t in_use = 0;
    for (const SlotAction &action : actions) {
        if (action.id >= actions.size() || action.level > params.maxLevel())
            continue;
        if (action.id >= log.records.size()) {
            log.records.resize(action.id + 1);
            held.resize(action.id + 1, 0);
        }
        RecordShape &shape = log.records[action.id];
        size_t &slots = held[action.id];
        switch (action.kind) {
          case SlotAction::Kind::kAllocate:
            shape = RecordShape{action.base, false, action.level,
                                action.layout};
            break;
          case SlotAction::Kind::kRelease:
            in_use -= slots;
            slots = 0;
            continue;
          case SlotAction::Kind::kExtend:
            if (slots == 0 || shape.base != BaseTag::kQ || shape.extended)
                continue;
            shape.extended = true;
            break;
        }
        in_use -= slots;
        slots = shapeResidues(params, shape);
        in_use += slots;
        log.peak_slots = std::max(log.peak_slots, in_use);
    }
    return log;
}

MemoryFile::MemoryFile(std::shared_ptr<const fv::FvParams> params,
                       const HwConfig &config)
    : params_(std::move(params)),
      capacity_(config.n_rpaus * config.slots_per_rpau)
{
}

void
MemoryFile::recycle(PolyRecord &rec)
{
    bound_residues_ -= rec.layout.size();
    rec.lent = nullptr;
    rec.valid = false;
    const size_t residues = rec.data.capacity() / params_->degree();
    if (residues >= pool_.size())
        pool_.resize(residues + 1);
    pool_[residues].push_back(std::move(rec.data));
}

void
MemoryFile::returnRecordsFrom(size_t keep)
{
    // Highest id first, so the pool hands the lowest id's buffer out
    // first: rebinding the same log gives every record its old buffer.
    while (records_.size() > keep) {
        if (records_.back().valid)
            recycle(records_.back());
        records_.pop_back();
    }
}

void
MemoryFile::reset(size_t pooled)
{
    returnRecordsFrom(0);
    pinned_records_ = 0;
    peak_bound_residues_ = 0;
    for (size_t r = pool_.size(); r-- > 0;) {
        pool_[r].resize(std::min(pool_[r].size(), pooled));
        pooled -= pool_[r].size();
    }
}

void
MemoryFile::setPinnedRecords(size_t count)
{
    panicIf(count > records_.size(),
            "cannot pin ", count, " records, only ", records_.size(),
            " exist");
    for (size_t id = 0; id < count; ++id)
        panicIf(!records_[id].valid, "pinned record ", id,
                " is not bound");
    pinned_records_ = count;
}

void
MemoryFile::resetToPinned()
{
    returnRecordsFrom(pinned_records_);
}

void
MemoryFile::checkCapacity(const SlotLogShape &log) const
{
    fatalIf(log.peak_slots > capacity_,
            "slot-action log oversubscribes the memory file: peak ",
            log.peak_slots, " slots of ", capacity_);
}

void
MemoryFile::bindRecord(PolyId id, const RecordShape &shape)
{
    if (id >= records_.size())
        records_.resize(id + 1);
    PolyRecord &rec = records_[id];
    panicIf(rec.valid, "record ", id, " is already bound");
    const size_t live = shapeResidues(*params_, shape);
    rec.base = shape.extended ? BaseTag::kFull : shape.base;
    rec.level = shape.level;
    // An extended record's extension residues are the Lift's output.
    rec.layout.assign(params_->qPrimeCount(shape.level), shape.layout);
    rec.layout.resize(live, shape.extended ? Layout::kNatural : shape.layout);
    for (size_t r = live; r < pool_.size(); ++r) {
        if (!pool_[r].empty()) {
            rec.data = std::move(pool_[r].back());
            pool_[r].pop_back();
            break;
        }
    }
    rec.data.assign(live * params_->degree(), 0);
    rec.valid = true;
    bound_residues_ += live;
    peak_bound_residues_ = std::max(peak_bound_residues_, bound_residues_);
}

void
MemoryFile::returnRecord(PolyId id)
{
    PolyRecord &rec = records_[operandIndex(id)];
    panicIf(id < pinned_records_, "cannot release pinned polynomial ", id);
    recycle(rec);
}

const PolyRecord &
MemoryFile::operand(PolyId id) const
{
    return records_[operandIndex(id)];
}

size_t
MemoryFile::operandIndex(PolyId id) const
{
    if (id < records_.size() && records_[id].valid)
        return id;
    std::ostringstream oss;
    oss << "panic: invalid polynomial id " << id;
    if (id >= records_.size())
        oss << " (only " << records_.size() << " records exist)";
    else
        oss << " (record not bound: released or reset)";
    throw InvalidRecordError(oss.str(), id);
}

const PolyRecord &
MemoryFile::record(PolyId id) const
{
    // A const read copies a borrow in too; only a non-const borrow()
    // sets one, so a memory file defined const never writes here.
    return const_cast<MemoryFile &>(*this).record(id);
}

PolyRecord &
MemoryFile::record(PolyId id)
{
    PolyRecord &rec = records_[operandIndex(id)];
    if (rec.lent != nullptr) {
        // Copy on access: the record's contents read the same after.
        std::copy_n(rec.lent, rec.data.size(), rec.data.begin());
        rec.lent = nullptr;
    }
    return rec;
}

void
MemoryFile::borrow(PolyId id, std::span<const uint64_t> words,
                   Layout layout)
{
    PolyRecord &rec = records_[operandIndex(id)];
    panicIf(words.size() < rec.data.size(),
            "lent words shorter than record ", id);
    if (rec.lent == nullptr)
        borrowed_.push_back(id);
    rec.lent = words.data();
    std::fill(rec.layout.begin(), rec.layout.end(), layout);
}

void
MemoryFile::endBorrows()
{
    for (PolyId id : borrowed_) {
        if (id < records_.size() && records_[id].valid)
            record(id);
    }
    borrowed_.clear();
}

ntt::RnsPoly
MemoryFile::exportQBase(PolyId id) const
{
    const PolyRecord &rec = record(id);
    const auto &base = params_->qBase(rec.level);
    const size_t words = base->size() * params_->degree();
    panicIf(rec.data.size() < words, "record smaller than the q base");
    // A spilled NTT-domain record keeps its domain on the host, so it
    // reloads (Coprocessor::uploadInto) without a transform.
    const bool ntt_domain = rec.layout[0] == Layout::kNttDomain;
    return ntt::RnsPoly(base, params_->degree(), {rec.data.data(), words},
                        ntt_domain ? ntt::PolyForm::kNtt
                                   : ntt::PolyForm::kCoeff);
}

CountingAllocator::CountingAllocator(const fv::FvParams &params,
                                     const HwConfig &config)
    : q_residues_(params.qBase()->size()),
      full_residues_(params.fullBase()->size()),
      capacity_(config.n_rpaus * config.slots_per_rpau)
{
}

void
CountingAllocator::charge(size_t need, const char *what)
{
    if (need > freeSlots()) {
        std::ostringstream oss;
        oss << "slot budget exhausted";
        if (what != nullptr)
            oss << " allocating " << what;
        oss << ": need " << need << " slots, " << freeSlots()
            << " free of " << capacity_ << " (live " << in_use_
            << " slots, peak " << peak_ << ")";
        throw SlotPressureError(oss.str());
    }
    in_use_ += need;
    peak_ = std::max(peak_, in_use_);
}

PolyId
CountingAllocator::allocate(BaseTag tag, Layout layout, const char *what)
{
    charge(liveResidues(tag, level_), what);
    records_.push_back(Rec{tag, level_, false});
    const PolyId id = static_cast<PolyId>(records_.size() - 1);
    actions_.push_back(
        SlotAction{SlotAction::Kind::kAllocate, id, tag, layout, level_});
    return id;
}

void
CountingAllocator::release(PolyId id)
{
    panicIf(id >= records_.size(), "invalid polynomial id ", id);
    Rec &rec = records_[id];
    panicIf(rec.released, "double release of polynomial ", id);
    in_use_ -= liveResidues(rec.base, rec.level);
    rec.released = true;
    actions_.push_back(SlotAction{SlotAction::Kind::kRelease, id,
                                  rec.base, Layout::kNatural, rec.level});
}

void
CountingAllocator::extendToFull(PolyId id, const char *what)
{
    panicIf(id >= records_.size(), "invalid polynomial id ", id);
    Rec &rec = records_[id];
    panicIf(rec.base != BaseTag::kQ, "polynomial already extended");
    charge(full_residues_ - q_residues_,
           what != nullptr ? what : "lift extension");
    rec.base = BaseTag::kFull;
    actions_.push_back(SlotAction{SlotAction::Kind::kExtend, id,
                                  BaseTag::kFull, Layout::kNatural,
                                  rec.level});
}

void
replaySlotActions(MemoryFile &memory, std::span<const SlotAction> actions)
{
    const SlotLogShape log = shapeSlotLog(memory.params(), actions);
    memory.checkCapacity(log);
    for (const SlotAction &action : actions) {
        if (action.kind == SlotAction::Kind::kAllocate &&
            action.id < log.records.size())
            memory.bindRecord(action.id, log.records[action.id]);
    }
}

} // namespace heat::hw
