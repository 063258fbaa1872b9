#include "hw/memory_file.h"

#include <sstream>

#include "common/panic.h"

namespace heat::hw {

namespace {

std::string
pressureMessage(const char *structure, size_t need, size_t in_use,
                size_t capacity, size_t peak, size_t live_records,
                const char *what)
{
    std::ostringstream oss;
    oss << structure << " exhausted";
    if (what != nullptr)
        oss << " allocating " << what;
    oss << ": need " << need << " slots, " << capacity - in_use
        << " free of " << capacity << " (live " << in_use << " slots in "
        << live_records << " records, peak " << peak << ")";
    return oss.str();
}

} // namespace

MemoryFile::MemoryFile(std::shared_ptr<const fv::FvParams> params,
                       const HwConfig &config)
    : params_(std::move(params)),
      capacity_(config.n_rpaus * config.slots_per_rpau)
{
}

size_t
MemoryFile::residueCount(BaseTag tag) const
{
    return tag == BaseTag::kQ ? params_->qBase()->size()
                              : params_->fullBase()->size();
}

void
MemoryFile::dropRecordsFrom(size_t keep)
{
    if (records_.size() <= keep)
        return;
    // Keep only the buffers of the run being dropped; those an earlier,
    // larger run left unused are freed.
    spare_.clear();
    while (records_.size() > keep) {
        spare_.push_back(std::move(records_.back().data));
        records_.pop_back();
    }
}

void
MemoryFile::reset()
{
    dropRecordsFrom(0);
    in_use_ = 0;
    peak_ = 0;
    level_ = 0;
    pinned_records_ = 0;
    pinned_slots_ = 0;
}

void
MemoryFile::setPinnedRecords(size_t count)
{
    panicIf(count > records_.size(),
            "cannot pin ", count, " records, only ", records_.size(),
            " exist");
    size_t slots = 0;
    for (size_t id = 0; id < count; ++id) {
        const PolyRecord &rec = records_[id];
        panicIf(!rec.valid || rec.released,
                "pinned record ", id, " is not live");
        slots += liveResidues(rec.base, rec.level);
    }
    pinned_records_ = count;
    pinned_slots_ = slots;
}

void
MemoryFile::resetToPinned()
{
    if (pinned_records_ == 0) {
        reset();
        return;
    }
    dropRecordsFrom(pinned_records_);
    in_use_ = pinned_slots_;
    peak_ = in_use_;
    level_ = 0;
}

PolyId
MemoryFile::allocate(BaseTag tag, Layout layout, const char *what)
{
    return allocateAt(tag, layout, level_, what);
}

PolyId
MemoryFile::allocateAt(BaseTag tag, Layout layout, size_t level,
                       const char *what)
{
    panicIf(level > params_->maxLevel(), "allocation level out of range");
    const size_t live = liveResidues(tag, level);
    if (in_use_ + live > capacity_) {
        size_t live_records = 0;
        for (const PolyRecord &rec : records_) {
            if (rec.valid && !rec.released)
                ++live_records;
        }
        fatal(pressureMessage("memory file", live, in_use_, capacity_,
                              peak_, live_records, what));
    }
    in_use_ += live;
    peak_ = std::max(peak_, in_use_);

    PolyRecord rec;
    rec.base = tag;
    rec.level = level;
    rec.layout.assign(live, layout);
    if (!spare_.empty()) {
        rec.data = std::move(spare_.back());
        spare_.pop_back();
    }
    rec.data.assign(live * params_->degree(), 0);
    rec.valid = true;
    records_.push_back(std::move(rec));
    return static_cast<PolyId>(records_.size() - 1);
}

void
MemoryFile::free(PolyId id)
{
    release(id);
    PolyRecord &rec = records_[id];
    rec.valid = false;
    rec.data.clear();
    rec.data.shrink_to_fit();
}

void
MemoryFile::release(PolyId id)
{
    PolyRecord &rec = record(id);
    panicIf(id < pinned_records_,
            "cannot release pinned polynomial ", id);
    panicIf(rec.released, "double release of polynomial ", id);
    in_use_ -= liveResidues(rec.base, rec.level);
    rec.released = true;
}

void
MemoryFile::extendToFull(PolyId id, const char *what)
{
    PolyRecord &rec = record(id);
    panicIf(rec.base != BaseTag::kQ, "polynomial already extended");
    const size_t extra = residueCount(BaseTag::kFull) -
                         residueCount(BaseTag::kQ);
    if (in_use_ + extra > capacity_) {
        size_t live = 0;
        for (const PolyRecord &r : records_) {
            if (r.valid && !r.released)
                ++live;
        }
        fatal(pressureMessage("memory file", extra, in_use_, capacity_,
                              peak_, live,
                              what != nullptr ? what : "lift extension"));
    }
    in_use_ += extra;
    peak_ = std::max(peak_, in_use_);
    rec.base = BaseTag::kFull;
    const size_t live = liveResidues(BaseTag::kFull, rec.level);
    rec.layout.resize(live, Layout::kNatural);
    rec.data.resize(live * params_->degree(), 0);
}

namespace {

/** Shared failure path of both record() overloads. */
[[noreturn]] void
throwInvalidRecord(PolyId id, size_t records, bool exists)
{
    std::ostringstream oss;
    oss << "panic: invalid polynomial id " << id;
    if (!exists)
        oss << " (only " << records << " records exist)";
    else
        oss << " (record freed or predates a reset)";
    throw InvalidRecordError(oss.str(), id);
}

} // namespace

PolyRecord &
MemoryFile::record(PolyId id)
{
    if (id >= records_.size() || !records_[id].valid)
        throwInvalidRecord(id, records_.size(), id < records_.size());
    return records_[id];
}

const PolyRecord &
MemoryFile::record(PolyId id) const
{
    if (id >= records_.size() || !records_[id].valid)
        throwInvalidRecord(id, records_.size(), id < records_.size());
    return records_[id];
}

PolyId
MemoryFile::import(const ntt::RnsPoly &poly, Layout layout)
{
    // Infer base tag AND level from the residue count (q counts and
    // full counts never collide for the supported parameter sets).
    const size_t level =
        params_->levelForResidueCount(poly.residueCount());
    const BaseTag tag =
        poly.residueCount() == params_->qBase(level)->size()
            ? BaseTag::kQ
            : BaseTag::kFull;
    PolyId id = allocateAt(tag, layout, level, "operand import");
    record(id).data = poly.data();
    return id;
}

ntt::RnsPoly
MemoryFile::exportPoly(PolyId id) const
{
    const PolyRecord &rec = record(id);
    const auto base = rec.base == BaseTag::kQ
                          ? params_->qBase(rec.level)
                          : params_->fullBase(rec.level);
    ntt::RnsPoly poly(base, params_->degree(), ntt::PolyForm::kCoeff);
    poly.data() = rec.data;
    return poly;
}

ntt::RnsPoly
MemoryFile::exportQBase(PolyId id) const
{
    const PolyRecord &rec = record(id);
    const size_t words =
        liveResidues(BaseTag::kQ, rec.level) * params_->degree();
    panicIf(rec.data.size() < words, "record smaller than the q base");
    ntt::RnsPoly poly(params_->qBase(rec.level), params_->degree(),
                      ntt::PolyForm::kCoeff);
    std::copy(rec.data.begin(),
              rec.data.begin() + static_cast<ptrdiff_t>(words),
              poly.data().begin());
    return poly;
}

CountingAllocator::CountingAllocator(const fv::FvParams &params,
                                     const HwConfig &config,
                                     bool throw_on_pressure)
    : q_residues_(params.qBase()->size()),
      full_residues_(params.fullBase()->size()),
      capacity_(config.n_rpaus * config.slots_per_rpau),
      throw_on_pressure_(throw_on_pressure)
{
}

size_t
CountingAllocator::residueCount(BaseTag tag) const
{
    return tag == BaseTag::kQ ? q_residues_ : full_residues_;
}

void
CountingAllocator::overflow(size_t need, const char *what) const
{
    size_t live = 0;
    for (const Rec &rec : records_) {
        if (!rec.released)
            ++live;
    }
    const std::string msg = pressureMessage(
        "slot budget", need, in_use_, capacity_, peak_, live, what);
    if (throw_on_pressure_)
        throw SlotPressureError(msg);
    fatal(msg);
}

PolyId
CountingAllocator::allocate(BaseTag tag, Layout layout, const char *what)
{
    const size_t need = liveResidues(tag, level_);
    if (in_use_ + need > capacity_)
        overflow(need, what);
    in_use_ += need;
    peak_ = std::max(peak_, in_use_);
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
    const size_t extra = full_residues_ - q_residues_;
    if (in_use_ + extra > capacity_)
        overflow(extra, what != nullptr ? what : "lift extension");
    in_use_ += extra;
    peak_ = std::max(peak_, in_use_);
    rec.base = BaseTag::kFull;
    actions_.push_back(SlotAction{SlotAction::Kind::kExtend, id,
                                  BaseTag::kFull, Layout::kNatural,
                                  rec.level});
}

void
replaySlotActions(MemoryFile &memory, std::span<const SlotAction> actions)
{
    for (const SlotAction &action : actions) {
        switch (action.kind) {
          case SlotAction::Kind::kAllocate: {
            memory.setLevel(action.level);
            const PolyId id = memory.allocate(action.base, action.layout);
            panicIf(id != action.id,
                    "slot replay diverged: allocated id ", id,
                    " where the compiled program expects ", action.id,
                    " (memory file was not freshly reset)");
            break;
          }
          case SlotAction::Kind::kRelease:
            memory.release(action.id);
            break;
          case SlotAction::Kind::kExtend:
            memory.extendToFull(action.id);
            break;
        }
    }
}

} // namespace heat::hw
