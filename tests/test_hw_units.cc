/**
 * @file
 * Unit tests for the hardware building-block models: BRAM port
 * accounting, the Fig. 3 conflict-free NTT access schedule, the DMA
 * model against Table III, the traditional Lift/Scale cycle model
 * against Sec. VI-C, the resource model against Table IV, the power
 * model against Sec. VI-C, and the Table V scaling estimator.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/panic.h"
#include "fv/params.h"
#include "hw/bram.h"
#include "hw/dma.h"
#include "hw/mod_reduce_unit.h"
#include "hw/ntt_engine.h"
#include "hw/power_model.h"
#include "hw/resource_model.h"
#include "hw/rpau.h"
#include "hw/scaling_estimator.h"
#include "hw/trad_lift_scale.h"

namespace heat::hw {
namespace {

TEST(BramBank, CountsAccesses)
{
    BramBank bank(0, 1024);
    bank.recordRead(0, 5);
    bank.recordRead(1, 6);
    bank.recordWrite(1, 7);
    EXPECT_EQ(bank.reads(), 2u);
    EXPECT_EQ(bank.writes(), 1u);
    EXPECT_EQ(bank.conflicts(), 0u);
}

TEST(BramBank, DetectsSameCycleConflicts)
{
    BramBank bank(0, 1024);
    bank.recordRead(3, 1);
    bank.recordRead(3, 2); // second read in cycle 3: conflict
    EXPECT_EQ(bank.conflicts(), 1u);
    // Reads and writes use separate ports: no conflict.
    bank.recordWrite(4, 1);
    bank.recordRead(4, 2);
    EXPECT_EQ(bank.conflicts(), 1u);
}

TEST(BramBank, RangeChecked)
{
    BramBank bank(1024, 1024);
    EXPECT_THROW(bank.recordRead(0, 5), PanicError);
    EXPECT_NO_THROW(bank.recordRead(0, 1030));
}

class NttEngineTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NttEngineTest, ScheduleIsConflictFree)
{
    // The paper's Fig. 3 claim: the two-core schedule never produces a
    // same-cycle port conflict in any stage regime.
    NttEngine engine(HwConfig::paper(), GetParam());
    uint64_t conflicts = 0;
    engine.simulate(conflicts);
    EXPECT_EQ(conflicts, 0u);
}

TEST_P(NttEngineTest, EveryWordTouchedOncePerStage)
{
    NttEngine engine(HwConfig::paper(), GetParam());
    const size_t words = GetParam() / 2;
    for (int stage = 0; stage < engine.stageCount(); ++stage) {
        auto sched = engine.stageReadSchedule(stage);
        ASSERT_EQ(sched.size(), words) << "stage " << stage;
        std::set<uint32_t> seen;
        for (const auto &a : sched)
            seen.insert(a.word);
        EXPECT_EQ(seen.size(), words) << "stage " << stage;
    }
}

TEST_P(NttEngineTest, CoresShareWorkEqually)
{
    NttEngine engine(HwConfig::paper(), GetParam());
    for (int stage = 0; stage < engine.stageCount(); ++stage) {
        auto sched = engine.stageReadSchedule(stage);
        size_t core0 = 0;
        for (const auto &a : sched)
            core0 += a.core == 0 ? 1 : 0;
        EXPECT_EQ(core0, sched.size() / 2) << "stage " << stage;
    }
}

TEST_P(NttEngineTest, StageDurationIsQuarterDegree)
{
    // Two butterflies per cycle: each stage streams n/4 cycles.
    NttEngine engine(HwConfig::paper(), GetParam());
    for (int stage = 0; stage < engine.stageCount(); ++stage) {
        auto sched = engine.stageReadSchedule(stage);
        Cycle last = 0;
        for (const auto &a : sched)
            last = std::max(last, a.cycle);
        EXPECT_EQ(last + 1, GetParam() / 4) << "stage " << stage;
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttEngineTest,
                         ::testing::Values(size_t(16), size_t(64),
                                           size_t(1024), size_t(4096)));

TEST(NttEngine, SimulatedCyclesMatchAnalytic)
{
    NttEngine engine(HwConfig::paper(), 4096);
    uint64_t conflicts = 0;
    EXPECT_EQ(engine.simulate(conflicts), engine.forwardCycles());
}

TEST(NttEngine, PaperCycleBallpark)
{
    // Table II: NTT 73 us, Inverse-NTT 85 us at 200 MHz including the
    // ~2.5 us dispatch overhead. The engine alone should land within
    // 10% of 73 - 2.5 and 85 - 2.5 us.
    HwConfig config = HwConfig::paper();
    NttEngine engine(config, 4096);
    const double fwd_us = config.cyclesToUs(engine.forwardCycles());
    const double inv_us = config.cyclesToUs(engine.inverseCycles());
    EXPECT_NEAR(fwd_us, 70.5, 7.0);
    EXPECT_NEAR(inv_us, 82.5, 8.0);
}

TEST(ModReduceUnit, FunctionalAndLatency)
{
    rns::Modulus q(1073479681);
    ModReduceUnit unit(q);
    EXPECT_EQ(unit.reduce(uint64_t(1) << 59),
              (uint64_t(1) << 59) % q.value());
    // The configured butterfly pipeline covers the full datapath.
    EXPECT_LE(kButterflyLatency, HwConfig::paper().butterfly_pipeline_depth);
}

TEST(RpauMapping, MatchesPaperSharing)
{
    // q0..q5 -> RPAU 0..5; q6..q11 -> RPAU 0..5; q12 -> RPAU 6.
    EXPECT_EQ(rpauForResidue(0, 6), 0u);
    EXPECT_EQ(rpauForResidue(5, 6), 5u);
    EXPECT_EQ(rpauForResidue(6, 6), 0u);
    EXPECT_EQ(rpauForResidue(11, 6), 5u);
    EXPECT_EQ(rpauForResidue(12, 6), 6u);
    EXPECT_EQ(batchOfResidue(5, 6), 0);
    EXPECT_EQ(batchOfResidue(6, 6), 1);

    // Batches are contiguous [begin, end) runs of residue indices.
    const ResidueRange b0 = residuesOfBatch(0, 6, 13);
    const ResidueRange b1 = residuesOfBatch(1, 6, 13);
    EXPECT_EQ(b0.front(), 0u);
    EXPECT_EQ(b0.size(), 6u);
    EXPECT_EQ(b1.size(), 7u);
    EXPECT_EQ(b1.front(), 6u);
    EXPECT_EQ(b1.back(), 12u);
    // A level-truncated record: batch 0 stops at its live residues and
    // batch 1 is empty.
    EXPECT_EQ(residuesOfBatch(0, 6, 4).size(), 4u);
    EXPECT_TRUE(residuesOfBatch(1, 6, 4).empty());
    EXPECT_THROW(residuesOfBatch(2, 6, 13), PanicError);
}

TEST(DmaModel, ReproducesTableIII)
{
    DmaModel dma(HwConfig::paper());
    // Table III: 98304 bytes as single / 16 KiB / 1 KiB chunks.
    EXPECT_NEAR(dma.transferUs(98304, 98304), 76.0, 2.0);
    EXPECT_NEAR(dma.transferUs(98304, 16384), 109.0, 3.0);
    EXPECT_NEAR(dma.transferUs(98304, 1024), 202.0, 5.0);
}

TEST(DmaModel, SingleTransferIsFastest)
{
    DmaModel dma(HwConfig::paper());
    for (size_t bytes : {size_t(4096), size_t(98304), size_t(1 << 20)}) {
        double single = dma.transferUs(bytes, bytes);
        EXPECT_LT(single, dma.transferUs(bytes, 16384) + 1e-9);
        EXPECT_LT(single, dma.transferUs(bytes, 1024));
    }
}

TEST(TradLiftScale, ReproducesSectionVIC)
{
    // Single-core Lift 1.68 ms and Scale 4.3 ms at 225 MHz.
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paperTraditional();
    TradLiftScaleModel model(params, config);
    EXPECT_NEAR(model.singleCoreLiftUs() / 1000.0, 1.68, 0.09);
    EXPECT_NEAR(model.singleCoreScaleUs() / 1000.0, 4.3, 0.22);
    // The HwConfig beats must agree with the structural model.
    EXPECT_EQ(model.liftBeat(), size_t(config.trad_lift_beat));
    EXPECT_EQ(model.scaleBeat(), size_t(config.trad_scale_beat));
}

TEST(TradLiftScale, DivisionDominatesScale)
{
    auto params = fv::FvParams::paper();
    TradLiftScaleModel model(params, HwConfig::paperTraditional());
    // Sec. V-C: the Scale division is ~4x the Lift division.
    EXPECT_NEAR(static_cast<double>(model.scaleDivisionCycles()) /
                    static_cast<double>(model.liftDivisionCycles()),
                4.0, 1.1);
}

TEST(ResourceModel, ReproducesTableIV)
{
    auto params = fv::FvParams::paper();
    ResourceModel model(*params, HwConfig::paper());

    Resources one = model.coprocessor();
    EXPECT_NEAR(one.lut, 63522, 650);
    EXPECT_NEAR(one.ff, 25622, 300);
    EXPECT_NEAR(one.bram36, 388, 4);
    EXPECT_NEAR(one.dsp, 208, 2);

    Resources two = model.system(2);
    EXPECT_NEAR(two.lut, 133692, 1400);
    EXPECT_NEAR(two.ff, 60312, 700);
    EXPECT_NEAR(two.bram36, 815, 8);
    EXPECT_NEAR(two.dsp, 416, 4);
}

TEST(ResourceModel, UtilizationMatchesPaperPercentages)
{
    auto params = fv::FvParams::paper();
    ResourceModel model(*params, HwConfig::paper());
    DeviceCapacity dev;
    Resources two = model.system(2);
    // Paper: 49% LUT, 11% FF, 89% BRAM, 16% DSP for the full system.
    EXPECT_NEAR(ResourceModel::utilizationPct(two.lut, dev.lut), 49, 2);
    EXPECT_NEAR(ResourceModel::utilizationPct(two.ff, dev.ff), 11, 1.5);
    EXPECT_NEAR(ResourceModel::utilizationPct(two.bram36, dev.bram36), 89,
                3);
    EXPECT_NEAR(ResourceModel::utilizationPct(two.dsp, dev.dsp), 16, 1.5);
}

TEST(ResourceModel, DesignIsMemoryConstrained)
{
    // The paper notes the design is constrained by BRAM, not logic.
    auto params = fv::FvParams::paper();
    ResourceModel model(*params, HwConfig::paper());
    DeviceCapacity dev;
    Resources two = model.system(2);
    const double bram_pct =
        ResourceModel::utilizationPct(two.bram36, dev.bram36);
    EXPECT_GT(bram_pct, ResourceModel::utilizationPct(two.lut, dev.lut));
    EXPECT_GT(bram_pct, ResourceModel::utilizationPct(two.ff, dev.ff));
    EXPECT_GT(bram_pct, ResourceModel::utilizationPct(two.dsp, dev.dsp));
}

TEST(PowerModel, ReproducesSectionVIC)
{
    PowerModel power;
    EXPECT_DOUBLE_EQ(power.staticW(), 5.3);
    EXPECT_DOUBLE_EQ(power.dynamicW(1), 2.2);
    EXPECT_DOUBLE_EQ(power.dynamicW(2), 3.4);
    // Peak total: 8.7 W (Sec. VI-E comparison against the 40 W i5).
    EXPECT_DOUBLE_EQ(power.totalW(2), 8.7);
}

TEST(ScalingEstimator, ReproducesTableV)
{
    // Base row: 64K/25K/0.4K/0.2K resources, 4.46/0.54 ms.
    ScalingEstimator est(64e3, 25e3, 0.4e3, 0.2e3, 4.46, 0.54);
    auto rows = est.estimate(4);
    ASSERT_EQ(rows.size(), 4u);

    // Row 2 (2^13, 360): 128K/50K/1.6K/0.4K, 9.68/2.16/11.9 ms.
    EXPECT_NEAR(rows[1].lut, 128e3, 1);
    EXPECT_NEAR(rows[1].bram36, 1.6e3, 1);
    EXPECT_NEAR(rows[1].compute_ms, 9.68, 0.02);
    EXPECT_NEAR(rows[1].comm_ms, 2.16, 0.01);

    // Row 3 (2^14, 720): 21.0/8.64/29.6 ms.
    EXPECT_NEAR(rows[2].compute_ms, 21.0, 0.1);
    EXPECT_NEAR(rows[2].comm_ms, 8.64, 0.05);

    // Row 4 (2^15, 1440): 45.6/34.6/80.2 ms.
    EXPECT_NEAR(rows[3].compute_ms, 45.6, 0.3);
    EXPECT_NEAR(rows[3].comm_ms, 34.6, 0.2);
    EXPECT_NEAR(rows[3].total_ms, 80.2, 0.5);
}

} // namespace
} // namespace heat::hw
