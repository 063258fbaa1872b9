/**
 * @file
 * Observability suite: the metrics registry's Prometheus rendering and
 * histogram quantile estimates, the tracer's balanced Chrome-trace
 * export and span cap, the OBS_SPAN on/off switch, compile-time cycle
 * attribution matching a real fused run EXACTLY (integer equality,
 * zero-cycle delta), and modeled-time trace determinism across serving
 * worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "compiler/attribution.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/galois.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"

namespace heat {
namespace {

using compiler::Circuit;
using compiler::CircuitBuilder;
using compiler::ValueId;
using fv::Ciphertext;
using fv::Plaintext;

/** Count occurrences of @p needle in @p hay. */
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(ObsMetrics, CounterGaugeBasics)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("heat_test_total", "help text");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Find-or-create returns the same handle.
    EXPECT_EQ(&reg.counter("heat_test_total"), &c);

    obs::Gauge &g = reg.gauge("heat_test_depth");
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.set(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(ObsMetrics, HistogramQuantileInterpolates)
{
    obs::Histogram h(std::vector<double>{1.0, 2.0, 4.0, 8.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(3.0);
    h.observe(100.0); // overflow bucket

    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.sum(), 105.0);
    // rank 2 lands in the (1,2] bucket; interpolation reaches its
    // upper bound.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    // rank 3 lands in (2,4].
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
    // rank 4 is the open overflow bucket: report the observed max.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(ObsMetrics, HistogramQuantileCappedAtObservedMax)
{
    obs::Histogram h(std::vector<double>{10.0});
    h.observe(3.0);
    // A sparsely filled bucket must not inflate the estimate past the
    // largest observation.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0);
}

TEST(ObsMetrics, ExponentialBounds)
{
    const auto b = obs::Histogram::exponentialBounds(1.0, 2.0, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[3], 8.0);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(ObsMetrics, RenderTextGroupsLabeledSeriesByFamily)
{
    obs::Registry reg;
    reg.counter("heat_jobs_total{tenant=\"a\"}", "jobs").add(3);
    reg.counter("heat_jobs_total{tenant=\"b\"}").add(7);
    obs::Histogram &h =
        reg.histogram("heat_lat_us{tenant=\"a\"}",
                      std::vector<double>{1.0, 2.0}, "latency");
    h.observe(1.5);

    const std::string text = reg.renderText();
    // Two series, ONE family header.
    EXPECT_EQ(countOf(text, "# TYPE heat_jobs_total counter"), 1u);
    EXPECT_EQ(countOf(text, "heat_jobs_total{tenant=\"a\"} 3"), 1u);
    EXPECT_EQ(countOf(text, "heat_jobs_total{tenant=\"b\"} 7"), 1u);
    // Histogram: le spliced into the existing label block, suffixes on
    // the family name.
    EXPECT_EQ(countOf(text, "# TYPE heat_lat_us histogram"), 1u);
    EXPECT_EQ(countOf(text, "heat_lat_us_bucket{tenant=\"a\",le=\"2\"} 1"),
              1u);
    EXPECT_EQ(countOf(text, "heat_lat_us_bucket{tenant=\"a\",le=\"+Inf\"} 1"),
              1u);
    EXPECT_EQ(countOf(text, "heat_lat_us_count{tenant=\"a\"} 1"), 1u);
    EXPECT_EQ(countOf(text, "heat_lat_us_sum{tenant=\"a\"} 1.5"), 1u);
}

TEST(ObsMetrics, RenderTextOneHeaderPerFamilyAcrossTenants)
{
    // A service registers each tenant's counters together, so two
    // tenants interleave the families in registration order. The text
    // still types each family once, with all its samples under it.
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    const auto params = fv::FvParams::create(cfg);
    fv::KeyGenerator keygen(params, 3);
    const fv::RelinKeys rlk =
        keygen.generateRelinKeys(keygen.generateSecretKey());
    service::ExecutionService svc(params, rlk, service::ServiceConfig{});
    svc.registerTenant("t1", rlk);
    const std::string text = svc.metrics().renderText();

    std::map<std::string, size_t> types;
    std::string family;
    size_t samples = 0;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.starts_with("# TYPE ")) {
            family = line.substr(7, line.find(' ', 7) - 7);
            ++types[family];
            continue;
        }
        if (line.starts_with("#"))
            continue;
        ++samples;
        EXPECT_FALSE(family.empty()) << line;
        // A sample belongs to the last typed family (histogram series
        // add a suffix to its name).
        EXPECT_TRUE(line.starts_with(family)) << line << " under " << family;
    }
    EXPECT_GT(samples, types.size());
    for (const auto &[name, n] : types)
        EXPECT_EQ(n, 1u) << name;
    EXPECT_EQ(types.count("heat_service_jobs_arrived_total"), 1u);
    EXPECT_EQ(countOf(text, "heat_service_jobs_arrived_total{tenant="), 2u);
}

TEST(ObsMetrics, SamplesExpandHistograms)
{
    obs::Registry reg;
    reg.counter("heat_c_total").add(2);
    obs::Histogram &h =
        reg.histogram("heat_h_us", std::vector<double>{1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);

    std::vector<std::string> names;
    for (const obs::MetricSample &s : reg.samples())
        names.push_back(s.name);
    const std::vector<std::string> want = {
        "heat_c_total",   "heat_h_us_count", "heat_h_us_sum",
        "heat_h_us_mean", "heat_h_us_p50",   "heat_h_us_p99",
        "heat_h_us_max"};
    EXPECT_EQ(names, want);
}

TEST(ObsTrace, ScopedSpanRecordsOnlyWhenEnabled)
{
    obs::Tracer *const prev = obs::setActiveTracer(nullptr);
    {
        OBS_SPAN("off.kernel", "test");
    }
    obs::Tracer tracer;
    obs::setActiveTracer(&tracer);
    {
        OBS_SPAN("on.kernel", "test");
    }
    obs::setActiveTracer(prev);

    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "on.kernel");
    EXPECT_EQ(spans[0].pid, obs::kWallPid);
    EXPECT_GE(spans[0].dur_us, 0.0);
}

TEST(ObsTrace, SpanCapCountsDrops)
{
    obs::Tracer tracer(2);
    for (int i = 0; i < 5; ++i)
        tracer.addSpan(obs::SpanRecord{"s", "t", obs::kWallPid, 0,
                                       static_cast<double>(i), 1.0, {}});
    EXPECT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.droppedSpans(), 3u);
}

TEST(ObsTrace, ChromeTraceIsBalancedAndNested)
{
    obs::Tracer tracer;
    // parent [0,10) with children [0,4) and [4,6), plus a second track
    // left open-ended relative to the first.
    tracer.addSpan({"child-a", "t", obs::kModeledPid, 0, 0.0, 4.0, {}});
    tracer.addSpan({"parent", "t", obs::kModeledPid, 0, 0.0, 10.0, {}});
    tracer.addSpan(
        {"child-b", "t", obs::kModeledPid, 0, 4.0, 2.0, {{"k", "v"}}});
    tracer.addSpan({"other", "t", obs::kModeledPid, 1, 1.0, 3.0, {}});

    std::ostringstream os;
    tracer.writeChromeTrace(os, {{"workload", "unit-test"}});
    const std::string json = os.str();

    // Every B has a matching E; the parent opens before its children.
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 4u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 4u);
    EXPECT_LT(json.find("\"name\":\"parent\",\"cat\":\"t\",\"ph\":\"B\""),
              json.find("\"name\":\"child-a\",\"cat\":\"t\",\"ph\":\"B\""));
    // Metadata and otherData present.
    EXPECT_GE(countOf(json, "\"ph\":\"M\""), 1u);
    EXPECT_EQ(countOf(json, "\"workload\":\"unit-test\""), 1u);
    EXPECT_EQ(countOf(json, "\"dropped_spans\":0"), 1u);
}

/** One Chrome trace event, as writeChromeTrace prints it. */
struct TraceEvent
{
    char ph = 0;
    uint32_t pid = 0;
    uint32_t tid = 0;
    double ts = 0.0;
    std::string name;
};

/** The B/E events of a writeChromeTrace export, in file order. */
std::vector<TraceEvent>
durationEvents(const std::string &json)
{
    std::vector<TraceEvent> events;
    std::istringstream lines(json);
    for (std::string line; std::getline(lines, line);) {
        const size_t ph = line.find("\"ph\":\"");
        if (ph == std::string::npos ||
            (line[ph + 6] != 'B' && line[ph + 6] != 'E'))
            continue;
        TraceEvent e;
        e.ph = line[ph + 6];
        const auto field = [&](const char *key) {
            return line.c_str() + line.find(key) + std::strlen(key);
        };
        e.pid = static_cast<uint32_t>(std::strtoul(field("\"pid\":"),
                                                   nullptr, 10));
        e.tid = static_cast<uint32_t>(std::strtoul(field("\"tid\":"),
                                                   nullptr, 10));
        e.ts = std::strtod(field("\"ts\":"), nullptr);
        const char *name = field("{\"name\":\"");
        e.name.assign(name, std::strchr(name, '"'));
        events.push_back(e);
    }
    return events;
}

/** One randomized key/encryptor universe over a small ring. */
struct Universe
{
    explicit Universe(uint64_t seed)
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 257;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        fv::KeyGenerator keygen(params, seed);
        sk = keygen.generateSecretKey();
        pk = keygen.generatePublicKey(sk);
        rlk = keygen.generateRelinKeys(sk);
        encryptor =
            std::make_unique<fv::Encryptor>(params, pk, seed ^ 0xABCD);
    }

    Plaintext
    randomPlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    Ciphertext
    randomCipher(uint64_t seed) const
    {
        return encryptor->encrypt(randomPlain(seed));
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
};

/** Mixed circuit exercising NTT, Lift/Scale (mult), coeff ops and
 *  relin key loads. */
Circuit
mixedCircuit(const Universe &u)
{
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    const ValueId v1 = b.mult(x, y);
    const ValueId v2 = b.multPlain(v1, u.randomPlain(901));
    const ValueId v3 = b.add(v2, b.sub(x, y));
    b.output(b.mult(v3, v1));
    return b.build();
}

/** Leveled rotation: the product is mod-switched to level 1, then
 *  rotated there — Galois key loads at a deeper level, ModSwitch and
 *  Automorph. */
Circuit
leveledRotationCircuit()
{
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    const ValueId m = b.modSwitch(b.mult(x, y));
    b.output(b.add(b.rotate(m, 1), m));
    return b.build();
}

/** Sum of @p price's timeline durations. */
double
timelineUs(const compiler::RunPrice &price)
{
    double us = 0.0;
    for (const compiler::RunPhase &phase : price.timeline)
        us += phase.us;
    return us;
}

TEST(ObsAttribution, CompileTimeAttributionMatchesFusedRunExactly)
{
    Universe u(77);
    struct Case
    {
        Circuit circuit;
        /** Input positions compiled coprocessor-resident. */
        std::vector<uint32_t> resident;
    };
    // The last case pins its first input, so its warm run skips that
    // upload and prices differently from its cold run.
    const Case cases[] = {{mixedCircuit(u), {}},
                          {leveledRotationCircuit(), {}},
                          {mixedCircuit(u), {0}}};
    std::set<hw::Opcode> opcodes;
    for (const Case &c : cases) {
        compiler::CompilerOptions options;
        options.hw = hw::HwConfig::paper();
        options.resident_inputs = c.resident;
        const compiler::CompiledCircuit compiled =
            compiler::compileCircuit(u.params, c.circuit, options);
        for (const compiler::Segment &seg : compiled.segments)
            for (const hw::Instruction &instr : seg.program.instrs)
                opcodes.insert(instr.op);

        const compiler::CircuitAttribution attr =
            compiler::attributeCompiledCircuit(compiled);

        fv::KeyGenerator keygen(u.params, 78);
        const fv::GaloisKeys gkeys =
            keygen.generateGaloisKeys(u.sk, compiled.galois_elements);
        hw::Coprocessor cp(u.params, options.hw, &u.rlk, &gkeys);
        compiler::CircuitRunStats run;
        const std::vector<Ciphertext> inputs = {u.randomCipher(1),
                                                u.randomCipher(2)};
        compiler::runCompiledCircuit(cp, compiled, inputs, &run);
        compiler::CircuitRunStats warm = run;
        if (!c.resident.empty()) {
            compiler::runCompiledCircuitWarm(
                cp, compiled, std::span(inputs).subspan(1), &warm);
            EXPECT_LT(warm.host_us, run.host_us);
        }

        // Zero delta, field by field: both price every instruction with
        // hw::CostModel and every transfer with hw::ArmHostModel, so
        // only the record levels (slot log vs memory file) could
        // disagree — and must not.
        EXPECT_EQ(attr.cold.totals, run);
        EXPECT_EQ(attr.warm.totals, warm);
        EXPECT_GT(run.dma_us, 0.0);
        EXPECT_GT(run.host_us, 0.0);
        for (const compiler::RunPrice *price : {&attr.cold, &attr.warm}) {
            const double us = price->totals.modeledUs(options.hw);
            EXPECT_NEAR(timelineUs(*price), us, 1e-9 * us);
        }

        // Internal consistency: unit buckets, opcode buckets and node
        // attribution each sum exactly to their totals.
        hw::Cycle unit_sum = 0;
        for (hw::Cycle cycles : attr.cold.totals.unit_cycles)
            unit_sum += cycles;
        EXPECT_EQ(unit_sum, attr.cold.totals.fpga_cycles);
        hw::Cycle op_sum = 0;
        for (const auto &[op, cycles] : attr.op_cycles)
            op_sum += cycles;
        EXPECT_EQ(op_sum, attr.compute_cycles);
        hw::Cycle node_sum = 0;
        for (hw::Cycle cycles : attr.node_cycles)
            node_sum += cycles;
        EXPECT_EQ(node_sum, attr.compute_cycles);
        EXPECT_EQ(attr.compute_cycles + attr.dispatch_cycles,
                  attr.cold.totals.fpga_cycles);

        // The run's own unit buckets also sum exactly.
        hw::Cycle run_sum = 0;
        for (hw::Cycle cycles : run.unit_cycles)
            run_sum += cycles;
        EXPECT_EQ(run_sum, run.fpga_cycles);

        // The compiler's node annotation agrees with the fresh
        // attribution.
        EXPECT_EQ(compiled.node_cycles, attr.node_cycles);
    }
    // Between them the circuits exercise every opcode.
    EXPECT_EQ(opcodes.size(), hw::kOpcodeCount);

    // Per instruction (the paper's Table I): the one-node Mult's price
    // is its program executed with one Arm dispatch per instruction.
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        u.params, compiler::NodeKind::kMult, hw::HwConfig::paper());
    const compiler::CircuitAttribution per_instr =
        compiler::attributeCompiledCircuit(mult,
                                           hw::DispatchMode::kPerInstruction);
    hw::Coprocessor cp(u.params, mult.hw, &u.rlk);
    hw::replaySlotActions(cp.memory(), mult.slot_actions);
    const std::vector<Ciphertext> inputs = {u.randomCipher(3),
                                            u.randomCipher(4)};
    compiler::CircuitRunStats run;
    hw::Cycle dispatch_cycles = 0;
    for (const compiler::Segment &seg : mult.segments) {
        for (const compiler::Transfer &up : seg.uploads) {
            const auto k = static_cast<size_t>(
                std::find(mult.inputs.begin(), mult.inputs.end(),
                          up.index) -
                mult.inputs.begin());
            cp.uploadInto(up.slot, inputs.at(k)[up.poly]);
        }
        const hw::ExecStats es =
            cp.execute(seg.program, hw::DispatchMode::kPerInstruction);
        run.fpga_cycles += es.fpga_cycles;
        run.dma_us += es.dma_us;
        run.instructions += es.instructions;
        for (size_t i = 0; i < hw::kUnitCount; ++i)
            run.unit_cycles[i] += es.unit_cycles[i];
        dispatch_cycles += es.dispatch_cycles;
    }
    const compiler::CircuitRunStats &price = per_instr.cold.totals;
    EXPECT_EQ(price.fpga_cycles, run.fpga_cycles);
    EXPECT_EQ(price.dma_us, run.dma_us);
    EXPECT_EQ(price.instructions, run.instructions);
    EXPECT_EQ(price.unit_cycles, run.unit_cycles);
    EXPECT_EQ(per_instr.dispatch_cycles, dispatch_cycles);
    EXPECT_EQ(price.dispatches, price.instructions);
    // The transfers do not depend on the dispatch mode.
    EXPECT_EQ(price.host_us,
              compiler::attributeCompiledCircuit(mult).cold.totals.host_us);
    const double us = price.modeledUs(mult.hw);
    EXPECT_NEAR(timelineUs(per_instr.cold), us, 1e-9 * us);
}

/** One modeled span's shape: its name, its priced args, and its
 *  duration where that is priced alone. */
using SpanShape = std::tuple<std::string, std::string, double>;

/** The shape multiset of a tracer's modeled spans. Absolute starts and
 *  DMA contention differ across worker counts (more workers overlap in
 *  modeled time), the priced tree must not: every span's args but the
 *  job naming and its latency, and the duration of every span but the
 *  request and program spans, which hold DMA waits (their priced
 *  figures are the busy_us and fpga_cycles/dma_us args). */
std::vector<SpanShape>
modeledSpanShape(const obs::Tracer &tracer)
{
    std::vector<SpanShape> shape;
    for (const obs::SpanRecord &s : tracer.spans()) {
        if (s.pid != obs::kModeledPid || s.name == "dma-wait")
            continue;
        std::string args;
        for (const auto &[k, v] : s.args)
            if (k != "tenant" && k != "job" && k != "latency_us")
                args += k + "=" + v + ";";
        const bool holds_waits =
            s.name.starts_with("request:") || s.name == "program";
        shape.emplace_back(s.name, args, holds_waits ? 0.0 : s.dur_us);
    }
    std::sort(shape.begin(), shape.end());
    return shape;
}

/** Equal names and args; durations equal up to the rounding of the
 *  absolute boundaries they are placed between. */
void
expectSameShape(const std::vector<SpanShape> &a,
                const std::vector<SpanShape> &b, size_t workers)
{
    ASSERT_EQ(a.size(), b.size()) << workers << " workers";
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::get<0>(a[i]), std::get<0>(b[i])) << workers;
        EXPECT_EQ(std::get<1>(a[i]), std::get<1>(b[i])) << workers;
        EXPECT_NEAR(std::get<2>(a[i]), std::get<2>(b[i]),
                    1e-9 * std::get<2>(a[i]))
            << std::get<0>(a[i]) << " at " << workers << " workers";
    }
}

/** Every modeled span as (name, start, duration, track), sorted. */
std::vector<std::tuple<std::string, double, double, uint32_t>>
modeledSpans(const obs::Tracer &tracer)
{
    std::vector<std::tuple<std::string, double, double, uint32_t>> spans;
    for (const obs::SpanRecord &s : tracer.spans())
        if (s.pid == obs::kModeledPid)
            spans.emplace_back(s.name, s.start_us, s.dur_us, s.track);
    std::sort(spans.begin(), spans.end());
    return spans;
}

TEST(ObsTrace, ModeledSpansDeterministicAcrossWorkerCounts)
{
    Universe u(99);
    const Circuit circuit = mixedCircuit(u);
    const std::vector<Ciphertext> inputs = {u.randomCipher(11),
                                            u.randomCipher(12)};

    std::vector<std::vector<SpanShape>> shapes;
    hw::Cycle fpga_cycles = 0;
    const unsigned prev_threads = threadCount();
    for (const size_t workers : {1u, 2u, 4u}) {
        // The same submissions twice, at two host thread counts: every
        // modeled span, start included, must come out bit-identical.
        std::vector<std::tuple<std::string, double, double, uint32_t>>
            runs[2];
        for (const unsigned threads : {1u, 4u}) {
            setThreadCount(threads);
            obs::Tracer tracer;
            obs::Tracer *const prev = obs::setActiveTracer(&tracer);
            {
                service::ServiceConfig cfg;
                cfg.workers = workers;
                service::ExecutionService svc(u.params, u.rlk, cfg);
                for (int r = 0; r < 3; ++r)
                    svc.submitCircuit(circuit, inputs).get();
                svc.drain();
                const service::ServiceSnapshot snap = svc.snapshot();
                hw::Cycle unit_sum = 0;
                for (hw::Cycle c : snap.stats.unit_cycles)
                    unit_sum += c;
                EXPECT_EQ(unit_sum, snap.stats.fpga_cycles);
                if (fpga_cycles == 0)
                    fpga_cycles = snap.stats.fpga_cycles;
                EXPECT_EQ(snap.stats.fpga_cycles, fpga_cycles)
                    << "total modeled cycles changed at " << workers
                    << " workers";
            }
            obs::setActiveTracer(prev);
            runs[threads == 1 ? 0 : 1] = modeledSpans(tracer);
            if (threads == 1)
                shapes.push_back(modeledSpanShape(tracer));
        }
        EXPECT_EQ(runs[0], runs[1]) << workers << " workers";
    }
    setThreadCount(prev_threads);

    ASSERT_FALSE(shapes[0].empty());
    expectSameShape(shapes[0], shapes[1], 2);
    expectSameShape(shapes[0], shapes[2], 4);
    // The trace reaches instruction depth: per-instruction unit spans
    // and the per-program span are both present.
    std::set<std::string> names;
    for (const auto &[name, args, dur] : shapes[0])
        names.insert(name);
    EXPECT_TRUE(names.contains("program"));
    EXPECT_TRUE(names.contains(hw::opcodeName(hw::Opcode::kNtt)));
    EXPECT_TRUE(names.contains(hw::opcodeName(hw::Opcode::kKeyLoad)));
    EXPECT_TRUE(names.contains("arm-dispatch"));
}

TEST(ObsTrace, ContendedServiceTraceNestsInRequestSpans)
{
    // Four workers start four untimed jobs at modeled time 0 and
    // contend for the one DMA engine. Every modeled span still nests:
    // on each worker's track the exported timestamps never go back,
    // and each instruction, transfer, program and dma-wait span opens
    // inside a request span.
    Universe u(5);
    const Circuit circuit = mixedCircuit(u);
    const std::vector<Ciphertext> inputs = {u.randomCipher(21),
                                            u.randomCipher(22)};
    obs::Tracer tracer;
    obs::Tracer *const prev = obs::setActiveTracer(&tracer);
    {
        service::ServiceConfig cfg;
        cfg.workers = 4;
        service::ExecutionService svc(u.params, u.rlk, cfg);
        std::vector<std::future<std::vector<Ciphertext>>> results;
        for (int r = 0; r < 8; ++r)
            results.push_back(svc.submitCircuit(circuit, inputs));
        for (auto &f : results)
            f.get();
        svc.drain();
    }
    obs::setActiveTracer(prev);

    size_t dma_waits = 0;
    for (const obs::SpanRecord &s : tracer.spans())
        dma_waits += s.pid == obs::kModeledPid && s.name == "dma-wait";
    EXPECT_GT(dma_waits, 0u) << "the run should contend for the DMA";

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::vector<TraceEvent> events = durationEvents(os.str());
    struct Track
    {
        double last_ts = -1.0;
        std::vector<const TraceEvent *> open;
    };
    std::map<std::pair<uint32_t, uint32_t>, Track> tracks;
    size_t modeled = 0;
    for (const TraceEvent &e : events) {
        Track &t = tracks[{e.pid, e.tid}];
        EXPECT_GE(e.ts, t.last_ts) << e.name << " goes back in time";
        t.last_ts = e.ts;
        if (e.ph == 'B') {
            if (e.pid == obs::kModeledPid) {
                ++modeled;
                EXPECT_TRUE(!t.open.empty() ||
                            e.name.starts_with("request:"))
                    << e.name << " outside any request span";
            }
            t.open.push_back(&e);
        } else {
            ASSERT_FALSE(t.open.empty());
            EXPECT_GE(e.ts, t.open.back()->ts);
            t.open.pop_back();
        }
    }
    EXPECT_GT(modeled, 8u * 10);
    for (const auto &[key, t] : tracks)
        EXPECT_TRUE(t.open.empty());
}

} // namespace
} // namespace heat
