/**
 * @file
 * Memory-file records for the instruction-level test suites, whose
 * hand-written programs have no compiled slot log to bind from.
 */

#ifndef HEAT_TESTS_MEMORY_SUPPORT_H
#define HEAT_TESTS_MEMORY_SUPPORT_H

#include <algorithm>

#include "hw/memory_file.h"
#include "ntt/rns_poly.h"

namespace heat::testing {

/** Binds records on one memory file at ids 0, 1, 2, ... in call
 *  order, each as a one-allocation slot log would. */
class TestRecords
{
  public:
    explicit TestRecords(hw::MemoryFile &memory) : memory_(memory) {}

    /** A zeroed record over @p base at @p level. */
    hw::PolyId
    zero(hw::BaseTag base, size_t level = 0)
    {
        memory_.bindRecord(next_, {base, false, level, hw::Layout::kNatural});
        return next_++;
    }

    /** A record holding @p poly (natural order), over the base and at
     *  the level its residue count names. */
    hw::PolyId
    upload(const ntt::RnsPoly &poly)
    {
        const fv::FvParams &params = memory_.params();
        const size_t level =
            params.levelForResidueCount(poly.residueCount());
        const hw::PolyId id =
            zero(poly.residueCount() == params.qPrimeCount(level)
                     ? hw::BaseTag::kQ
                     : hw::BaseTag::kFull,
                 level);
        memory_.record(id).data = poly.data();
        return id;
    }

    /** @p poly's q residues in a full-base record: the shape a compiled
     *  slot log binds a record a Lift extends. */
    hw::PolyId
    forLift(const ntt::RnsPoly &poly)
    {
        const hw::PolyId id = zero(
            hw::BaseTag::kFull,
            memory_.params().levelForResidueCount(poly.residueCount()));
        std::copy(poly.data().begin(), poly.data().end(),
                  memory_.record(id).data.begin());
        return id;
    }

  private:
    hw::MemoryFile &memory_;
    hw::PolyId next_ = 0;
};

} // namespace heat::testing

#endif // HEAT_TESTS_MEMORY_SUPPORT_H
