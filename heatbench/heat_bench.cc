/**
 * @file
 * heat_bench — the repository's end-to-end benchmark. It measures the
 * serving stack on its two clocks: the modeled FPGA clock (the paper's
 * claim: cycles per unit, modeled latency and throughput) and the host
 * clock (what simulating that hardware costs on this machine).
 *
 *   heat_bench --workload <mult-op|depth4-fused|matvec16|tenant-mix|all>
 *              [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
 *              [--scale full|smoke]
 *
 * One run of one workload:
 *   1. set-up: parameters, key generation, operand encryption,
 *      compilation, static verification, service construction, tenant
 *      registration and pinning. It repeats between the host chunks of
 *      step 4; setup_s is the median;
 *   2. a reference pass on the software evaluator. Every response of
 *      every later pass is compared bit for bit with it;
 *   3. (--trace 1 and smoke runs) the modeled pass, twice: one worker,
 *      started paused with the whole open-loop schedule queued (fixed
 *      arrival rate, seeded Poisson arrivals), then released. One worker
 *      is the only configuration whose modeled clock does not depend on
 *      OS thread scheduling, and the two copies must agree exactly;
 *   4. the host passes: pairs of closed-loop chunks sharing --seconds,
 *      one on a one-worker service and one on a three-worker service,
 *      each with one client thread keeping a fixed window outstanding.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 prints the
 * per-layer metrics instead: the second modeled pass runs under the
 * library's obs::Tracer (queue-wait and request spans), one request of
 * each kind is replayed instruction by instruction on a standalone
 * coprocessor (bit-equal to the fused run, per-opcode cycles summing
 * exactly to the per-unit compute cycles), and the NTT/RNS/SIMD kernels
 * are timed. Spans recorded here around each layer call are written as
 * Chrome trace_event JSON to --trace-out.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * A wrong response counts as failed and makes the exit status 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "hw/isa.h"
#include "hw/memory_file.h"
#include "linalg/linalg.h"
#include "ntt/ntt.h"
#include "obs/trace.h"
#include "service/service.h"
#include "simd/simd.h"
#include "verify/verify.h"

using namespace heat;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Nearest-rank quantile of @p v (0 for an empty sample). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

uint64_t
splitmix(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// --- spans ------------------------------------------------------------------

/**
 * Host-time spans recorded around each layer call of this benchmark:
 * name, start, end, parent span and request id, kept in memory and
 * written once as Chrome trace_event JSON. A disabled log records
 * nothing (the untraced runs).
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        uint64_t parent = 0;
        uint64_t request = 0;
        double start_us = 0.0;
        double end_us = 0.0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** @return the new span's id (0 when disabled). */
    uint64_t
    open(std::string name, uint64_t parent = 0, uint64_t request = 0)
    {
        if (!enabled_)
            return 0;
        const double now = nowUs();
        spans_.push_back(Span{std::move(name), parent, request, now, now});
        return spans_.size();
    }

    void
    close(uint64_t id)
    {
        if (id != 0)
            spans_[id - 1].end_us = nowUs();
    }

    /**
     * Self time per span name (ms): each span's duration minus the part
     * of it its child spans cover, summed over spans of that name.
     */
    std::map<std::string, double>
    selfTimesMs() const
    {
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent != 0)
                children[s.parent - 1].emplace_back(s.start_us, s.end_us);
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); ++i) {
            std::vector<std::pair<double, double>> &c = children[i];
            std::sort(c.begin(), c.end());
            double covered = 0.0;
            double reach = spans_[i].start_us;
            for (const auto &[lo, hi] : c) {
                const double from = std::max(lo, reach);
                const double to = std::min(hi, spans_[i].end_us);
                if (to > from)
                    covered += to - from;
                reach = std::max(reach, hi);
            }
            self[spans_[i].name] +=
                (spans_[i].end_us - spans_[i].start_us - covered) / 1e3;
        }
        return self;
    }

    /** Write the host spans plus @p modeled (the obs::Tracer's modeled
     *  service spans) as one Chrome trace_event file. */
    bool
    write(const std::string &path,
          const std::vector<obs::SpanRecord> &modeled) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\"traceEvents\":[\n";
        bool first = true;
        const auto sep = [&] {
            os << (first ? "" : ",\n");
            first = false;
        };
        char buf[160];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            sep();
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"ts\":%.3f,"
                          "\"dur\":%.3f",
                          obs::kWallPid, s.start_us, s.end_us - s.start_us);
            os << "{\"name\":\"" << s.name << "\",\"cat\":\"bench\","
               << buf << ",\"args\":{\"id\":" << i + 1
               << ",\"parent\":" << s.parent
               << ",\"request\":" << s.request << "}}";
        }
        for (const obs::SpanRecord &s : modeled) {
            sep();
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f",
                          obs::kModeledPid, s.track, s.start_us, s.dur_us);
            os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.category
               << "\"," << buf << "}";
        }
        os << "\n],\"displayTimeUnit\":\"ms\"}\n";
        return static_cast<bool>(os);
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span on a SpanLog. */
class Scoped
{
  public:
    Scoped(SpanLog &log, std::string name, uint64_t parent = 0,
           uint64_t request = 0)
        : log_(log), id_(log.open(std::move(name), parent, request))
    {
    }
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    uint64_t id_;
};

// --- workloads --------------------------------------------------------------

enum class WorkloadId
{
    kMultOp,
    kDepth4,
    kMatVec,
    kTenantMix
};

/**
 * The fixed shape of one workload. Nothing here is recalibrated from a
 * measurement: a later change that raises capacity shows up as lower
 * latency at the same arrival rate, not as a moved goalpost.
 */
struct Spec
{
    WorkloadId id;
    const char *name;
    size_t tenants;
    /** Operand ciphertexts per tenant (request inputs cycle over them). */
    size_t pool;
    /** Modeled pass: requests (full scale / smoke scale). */
    size_t requests;
    size_t smoke_requests;
    /** Modeled pass: open-loop arrival rate (requests per modeled s),
     *  about 70% of the one-worker modeled capacity. */
    double rate_per_s;
    /** Host passes: requests the client keeps outstanding on the
     *  one-worker service and on the kHostWorkers one. Two per worker
     *  keep a worker busy; the cheap requests of tenant-mix need more
     *  to keep the client from being the bottleneck. */
    size_t one_window;
    size_t window;
};

constexpr Spec kSpecs[] = {
    {WorkloadId::kMultOp, "mult-op", 1, 16, 168, 4, 150.0, 2, 6},
    {WorkloadId::kDepth4, "depth4-fused", 1, 8, 48, 2, 48.0, 2, 6},
    {WorkloadId::kMatVec, "matvec16", 1, 4, 24, 1, 17.0, 2, 6},
    {WorkloadId::kTenantMix, "tenant-mix", 3, 8, 10000, 200, 1500.0, 8,
     64},
};

/** Host-pass worker count: one per core of a 4-core host, minus the
 *  client thread. Fixed so runs on different hosts stay comparable. */
constexpr size_t kHostWorkers = 3;
/** Dequeue width of every service this benchmark builds. */
constexpr size_t kMaxBatch = 8;
/** Host passes: pairs of (one-worker, kHostWorkers) chunks that share
 *  --seconds between them (see runWorkload). */
constexpr size_t kPairs = 5;
/** Set-ups after each chunk pair: at least one, and more until
 *  kSetupSlotS seconds were spent, at most kSlotSetups. setup_s is the
 *  median over these and the first set-up. */
constexpr double kSetupSlotS = 0.1;
constexpr size_t kSlotSetups = 10;
/** Instruction replays per request kind (per-opcode host time is the
 *  median over them). */
constexpr size_t kReplays = 3;
/** Host-pass request spans kept in the trace file. */
constexpr size_t kMaxRequestSpans = 20000;

enum class Shape
{
    kAdd,      ///< submit(Op::kAdd): the single-op path
    kMult,     ///< submit(Op::kMult): the single-op path
    kCircuit,  ///< submitCompiled
    kResident  ///< submitCompiledResident over pinned operands
};

/** One request kind of a workload's mix. */
struct Kind
{
    Shape shape;
    /** Share of the request mix. */
    double weight;
    /** The submitted circuit (kCircuit / kResident); null on the
     *  single-op path, which bypasses the compiler. */
    std::shared_ptr<const compiler::CompiledCircuit> compiled;
};

struct Tenant
{
    fv::RelinKeys rlk;
    fv::GaloisKeys gkeys;
    std::vector<fv::Ciphertext> pool;
    /** Resident database operands (pinned at service construction). */
    std::vector<fv::Ciphertext> pinned;
};

/** Everything set-up produces except the service. */
struct World
{
    const Spec *spec = nullptr;
    std::shared_ptr<const fv::FvParams> params;
    std::vector<Tenant> tenants;
    std::vector<Kind> kinds;
    /** refs[tenant][kind][index]: the software evaluator's outputs. */
    std::vector<std::vector<std::vector<std::vector<fv::Ciphertext>>>> refs;
};

/** Set-up phase timings of one set-up. */
struct SetupTimes
{
    double params_ms = 0.0;
    double keygen_ms = 0.0;
    double encrypt_ms = 0.0;
    double compile_ms = 0.0;
    double verify_us = 0.0;
    double service_ms = 0.0;
    double total_s = 0.0;
};

/** A service plus the tenants' pinned-operand handles. */
struct Served
{
    std::unique_ptr<service::ExecutionService> svc;
    std::vector<std::vector<service::PinnedHandle>> handles;
};

std::shared_ptr<const fv::FvParams>
makeParams(WorkloadId id)
{
    switch (id) {
    case WorkloadId::kMultOp:
    case WorkloadId::kDepth4:
        return fv::FvParams::paper(2);
    case WorkloadId::kMatVec:
        return fv::FvParams::paper(65537);
    case WorkloadId::kTenantMix:
        break;
    }
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    return fv::FvParams::create(cfg);
}

fv::Plaintext
randomPlain(const fv::FvParams &params, Xoshiro256 &rng)
{
    fv::Plaintext p;
    p.coeffs.resize(params.degree());
    for (uint64_t &c : p.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return p;
}

compiler::CompilerOptions
compileOptions()
{
    compiler::CompilerOptions opts;
    opts.noise_check = compiler::NoiseCheck::kReject;
    // Verification is timed on its own (verify::verifyCompiledCircuit).
    opts.verify = compiler::VerifyCheck::kOff;
    return opts;
}

/** The request inputs of pool entry @p index (resident operands are
 *  bound separately). */
std::vector<fv::Ciphertext>
requestInputs(const World &w, size_t tenant, const Kind &kind, size_t index)
{
    size_t arity = 2;
    if (kind.compiled != nullptr)
        arity = kind.compiled->inputs.size() -
                kind.compiled->resident_inputs.size();
    const std::vector<fv::Ciphertext> &pool = w.tenants[tenant].pool;
    std::vector<fv::Ciphertext> in;
    for (size_t k = 0; k < arity; ++k)
        in.push_back(pool[(index + k) % pool.size()]);
    return in;
}

/** requestInputs preceded by the tenant's pinned operands for a
 *  resident kind: every input of the circuit, in position order. */
std::vector<fv::Ciphertext>
allInputs(const World &w, size_t tenant, const Kind &kind, size_t index)
{
    std::vector<fv::Ciphertext> in = requestInputs(w, tenant, kind, index);
    if (kind.shape != Shape::kResident)
        return in;
    std::vector<fv::Ciphertext> all = w.tenants[tenant].pinned;
    all.insert(all.end(), in.begin(), in.end());
    return all;
}

Served
makeService(const World &w, size_t workers, bool paused)
{
    service::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = kMaxBatch;
    cfg.start_paused = paused;
    cfg.admission = compiler::NoiseCheck::kReject;
    cfg.verify = compiler::VerifyCheck::kReject;
    Served s;
    s.svc = std::make_unique<service::ExecutionService>(
        w.params, w.tenants[0].rlk, w.tenants[0].gkeys, cfg);
    for (size_t t = 1; t < w.tenants.size(); ++t) {
        const service::TenantId id = s.svc->registerTenant(
            "tenant-" + std::to_string(t), w.tenants[t].rlk,
            w.tenants[t].gkeys);
        if (id != t)
            throw std::runtime_error("unexpected tenant id");
    }
    for (size_t t = 0; t < w.tenants.size(); ++t) {
        s.handles.emplace_back();
        for (const fv::Ciphertext &ct : w.tenants[t].pinned)
            s.handles[t].push_back(s.svc->pinInput(
                static_cast<service::TenantId>(t), ct));
    }
    return s;
}

/** One timed set-up: everything a deployment builds before serving. */
std::pair<World, Served>
setUp(const Spec &spec, uint64_t seed, SetupTimes &times, SpanLog &log)
{
    Scoped root(log, "setup");
    const Clock::time_point t_start = Clock::now();
    World w;
    w.spec = &spec;
    Clock::time_point t0 = Clock::now();
    {
        Scoped s(log, "setup.params", root.id());
        w.params = makeParams(spec.id);
    }
    times.params_ms = msSince(t0);
    const fv::FvParams &params = *w.params;

    Xoshiro256 rng(splitmix(seed, 200));
    // Circuits first: their Galois elements decide which keys to make.
    std::unique_ptr<linalg::MatVec> matvec;
    compiler::Circuit circuit;
    if (spec.id == WorkloadId::kMatVec) {
        std::vector<std::vector<uint64_t>> m(16, std::vector<uint64_t>(16));
        for (auto &row : m)
            for (uint64_t &x : row)
                x = rng.uniformBelow(params.plainModulus());
        matvec = std::make_unique<linalg::MatVec>(w.params, std::move(m));
        circuit = matvec->circuit();
    } else if (spec.id == WorkloadId::kDepth4) {
        // mult(a, b), then three self-multiplications: depth 4, the
        // paper set's supported depth.
        compiler::CircuitBuilder b;
        const compiler::ValueId x = b.input();
        const compiler::ValueId y = b.input();
        compiler::ValueId acc = b.mult(x, y);
        for (int d = 1; d < 4; ++d)
            acc = b.mult(acc, acc);
        b.output(acc);
        circuit = b.build();
    } else if (spec.id == WorkloadId::kTenantMix) {
        // 8-shard PIR: resident shards masked by plaintext selectors,
        // aggregated, blinded with the request ciphertext.
        constexpr size_t kShards = 8;
        compiler::CircuitBuilder b;
        std::vector<compiler::ValueId> db;
        for (size_t k = 0; k < kShards; ++k)
            db.push_back(b.input());
        const compiler::ValueId query = b.input();
        compiler::ValueId acc = compiler::kNoValue;
        for (size_t k = 0; k < kShards; ++k) {
            const compiler::ValueId sel =
                b.multPlain(db[k], randomPlain(params, rng));
            acc = k == 0 ? sel : b.add(acc, sel);
        }
        b.output(b.add(acc, query));
        circuit = b.build();
    }
    const std::vector<uint32_t> galois =
        matvec != nullptr ? matvec->requiredGaloisElements()
                          : std::vector<uint32_t>{};

    t0 = Clock::now();
    std::vector<fv::PublicKey> pks;
    {
        Scoped s(log, "setup.keygen", root.id());
        for (size_t t = 0; t < spec.tenants; ++t) {
            fv::KeyGenerator keygen(w.params, splitmix(seed, 1 + t));
            const fv::SecretKey sk = keygen.generateSecretKey();
            pks.push_back(keygen.generatePublicKey(sk));
            Tenant tenant;
            tenant.rlk = keygen.generateRelinKeys(sk);
            if (!galois.empty())
                tenant.gkeys = keygen.generateGaloisKeys(sk, galois);
            w.tenants.push_back(std::move(tenant));
        }
    }
    times.keygen_ms = msSince(t0);

    t0 = Clock::now();
    {
        Scoped s(log, "setup.encrypt", root.id());
        for (size_t t = 0; t < spec.tenants; ++t) {
            fv::Encryptor enc(w.params, pks[t], splitmix(seed, 100 + t));
            for (size_t i = 0; i < spec.pool; ++i) {
                if (matvec != nullptr) {
                    std::vector<uint64_t> v(matvec->dimension());
                    for (uint64_t &x : v)
                        x = rng.uniformBelow(params.plainModulus());
                    w.tenants[t].pool.push_back(
                        enc.encrypt(matvec->encodeVector(v)));
                } else {
                    w.tenants[t].pool.push_back(
                        enc.encrypt(randomPlain(params, rng)));
                }
            }
            if (spec.id == WorkloadId::kTenantMix)
                for (size_t k = 0; k + 1 < circuit.inputs.size(); ++k)
                    w.tenants[t].pinned.push_back(
                        enc.encrypt(randomPlain(params, rng)));
        }
    }
    times.encrypt_ms = msSince(t0);

    t0 = Clock::now();
    std::shared_ptr<const compiler::CompiledCircuit> compiled;
    {
        Scoped s(log, "setup.compile", root.id());
        compiler::CompilerOptions opts = compileOptions();
        if (spec.id != WorkloadId::kMultOp) {
            if (spec.id == WorkloadId::kTenantMix)
                for (uint32_t k = 0; k + 1 < circuit.inputs.size(); ++k)
                    opts.resident_inputs.push_back(k);
            compiled = std::make_shared<const compiler::CompiledCircuit>(
                compiler::compileCircuit(w.params, circuit, opts));
        }
    }
    times.compile_ms = msSince(t0);

    t0 = Clock::now();
    if (compiled != nullptr) {
        Scoped s(log, "setup.verify", root.id());
        const verify::VerifyResult vr =
            verify::verifyCompiledCircuit(*compiled);
        if (!vr.ok())
            throw std::runtime_error("static verification failed:\n" +
                                     vr.report());
    }
    times.verify_us = msSince(t0) * 1e3;

    switch (spec.id) {
    case WorkloadId::kMultOp:
        w.kinds = {{Shape::kMult, 1.0, nullptr}};
        break;
    case WorkloadId::kDepth4:
    case WorkloadId::kMatVec:
        w.kinds = {{Shape::kCircuit, 1.0, compiled}};
        break;
    case WorkloadId::kTenantMix:
        w.kinds = {{Shape::kAdd, 0.70, nullptr},
                   {Shape::kMult, 0.15, nullptr},
                   {Shape::kResident, 0.15, compiled}};
        break;
    }

    t0 = Clock::now();
    Served served;
    {
        Scoped s(log, "setup.service", root.id());
        served = makeService(w, 1, /*paused=*/true);
    }
    times.service_ms = msSince(t0);
    times.total_s = msSince(t_start) / 1e3;
    return {std::move(w), std::move(served)};
}

/** The software evaluator's outputs for one request of @p kind. */
std::vector<fv::Ciphertext>
evaluate(const fv::Evaluator &ev, const Tenant &tenant, const Kind &kind,
         const std::vector<fv::Ciphertext> &in)
{
    switch (kind.shape) {
    case Shape::kAdd:
        return {ev.add(in[0], in[1])};
    case Shape::kMult:
        return {ev.multiply(in[0], in[1], tenant.rlk)};
    case Shape::kCircuit:
    case Shape::kResident:
        break;
    }
    return compiler::evaluateCircuit(ev, &tenant.rlk, kind.compiled->circuit,
                                     in, &tenant.gkeys);
}

/** Software-evaluator outputs for every (tenant, kind, pool index). */
void
computeReferences(World &w, SpanLog &log)
{
    Scoped root(log, "reference");
    const fv::Evaluator ev(w.params);
    w.refs.assign(w.tenants.size(), {});
    for (size_t t = 0; t < w.tenants.size(); ++t) {
        w.refs[t].resize(w.kinds.size());
        for (size_t k = 0; k < w.kinds.size(); ++k)
            for (size_t i = 0; i < w.tenants[t].pool.size(); ++i) {
                Scoped s(log, "fv.evaluate", root.id(), i);
                w.refs[t][k].push_back(evaluate(ev, w.tenants[t], w.kinds[k],
                                                allInputs(w, t, w.kinds[k],
                                                          i)));
            }
    }
}

// --- requests ---------------------------------------------------------------

struct Req
{
    uint32_t tenant = 0;
    uint32_t kind = 0;
    uint32_t index = 0;
    double arrival_us = -1.0;
};

Req
drawRequest(const World &w, Xoshiro256 &rng)
{
    Req r;
    r.tenant = static_cast<uint32_t>(rng.uniformBelow(w.tenants.size()));
    const double u = rng.uniformDouble();
    double acc = 0.0;
    r.kind = static_cast<uint32_t>(w.kinds.size() - 1);
    for (size_t k = 0; k < w.kinds.size(); ++k) {
        acc += w.kinds[k].weight;
        if (u < acc) {
            r.kind = static_cast<uint32_t>(k);
            break;
        }
    }
    r.index = static_cast<uint32_t>(rng.uniformBelow(w.spec->pool));
    return r;
}

/** An in-flight request and the outputs it must reproduce. */
struct Pending
{
    std::future<fv::Ciphertext> op;
    std::future<std::vector<fv::Ciphertext>> circuit;
    const std::vector<fv::Ciphertext> *expected = nullptr;
};

Pending
submitRequest(const World &w, Served &s, const Req &r)
{
    const Kind &kind = w.kinds[r.kind];
    const auto tid = static_cast<service::TenantId>(r.tenant);
    std::vector<fv::Ciphertext> in = requestInputs(w, r.tenant, kind, r.index);
    Pending p;
    p.expected = &w.refs[r.tenant][r.kind][r.index];
    switch (kind.shape) {
    case Shape::kAdd:
    case Shape::kMult:
        p.op = s.svc->submit(tid,
                             kind.shape == Shape::kAdd ? service::Op::kAdd
                                                       : service::Op::kMult,
                             std::move(in[0]), std::move(in[1]),
                             r.arrival_us);
        break;
    case Shape::kCircuit:
        p.circuit = s.svc->submitCompiled(tid, kind.compiled, std::move(in),
                                          r.arrival_us);
        break;
    case Shape::kResident:
        p.circuit = s.svc->submitCompiledResident(
            tid, kind.compiled, s.handles[r.tenant], std::move(in),
            r.arrival_us);
        break;
    }
    return p;
}

/** @return true once @p p's result is available, waiting at most
 *  @p timeout for it. */
bool
ready(const Pending &p, std::chrono::microseconds timeout)
{
    return (p.op.valid() ? p.op.wait_for(timeout)
                         : p.circuit.wait_for(timeout)) ==
           std::future_status::ready;
}

/** Wait for @p p; @return true iff it succeeded with the reference
 *  outputs, bit for bit. */
bool
collect(Pending &p)
{
    try {
        if (p.op.valid()) {
            const fv::Ciphertext ct = p.op.get();
            return p.expected->size() == 1 && ct == (*p.expected)[0];
        }
        return p.circuit.get() == *p.expected;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "heat_bench: request failed: %s\n", e.what());
        return false;
    }
}

/** Failures the service itself counted (a rejected or shed request
 *  never reaches collect() as a wrong answer). */
uint64_t
serviceFailures(const service::ServiceStats &st)
{
    return st.ops_failed + st.ops_rejected + st.ops_shed +
           st.admission_rejected + st.verify_rejected;
}

// --- modeled pass -----------------------------------------------------------

struct ModeledPass
{
    service::ServiceSnapshot snap;
    double wall_ms = 0.0;
    double submit_us = 0.0;
    size_t attempted = 0;
    size_t wrong = 0;
    /** Modeled service spans (queue waits, request executions) when a
     *  tracer was installed. */
    std::vector<obs::SpanRecord> spans;
};

ModeledPass
runModeledPass(const World &w, Served &s, size_t requests, uint64_t seed,
               obs::Tracer *tracer, SpanLog &log)
{
    Scoped root(log, tracer != nullptr ? "pass.modeled_traced"
                                       : "pass.modeled");
    Xoshiro256 rng(splitmix(seed, 300));
    const double gap_us = 1e6 / w.spec->rate_per_s;
    std::vector<Pending> pending;
    pending.reserve(requests);
    std::vector<double> submit_us;
    submit_us.reserve(requests);
    double arrival = 0.0;
    {
        Scoped fill(log, "service.submit", root.id());
        for (size_t i = 0; i < requests; ++i) {
            Req r = drawRequest(w, rng);
            arrival += -std::log(1.0 - rng.uniformDouble()) * gap_us;
            r.arrival_us = arrival;
            const Clock::time_point t0 = Clock::now();
            pending.push_back(submitRequest(w, s, r));
            submit_us.push_back(msSince(t0) * 1e3);
        }
    }

    ModeledPass out;
    out.attempted = requests;
    out.submit_us = median(submit_us);
    if (tracer != nullptr)
        obs::setActiveTracer(tracer);
    {
        Scoped run(log, "service.run", root.id());
        const Clock::time_point t_start = Clock::now();
        s.svc->start();
        for (Pending &p : pending)
            out.wrong += !collect(p);
        out.wall_ms = msSince(t_start);
        s.svc->drain();
    }
    if (tracer != nullptr) {
        obs::setActiveTracer(nullptr);
        for (obs::SpanRecord &sp : tracer->spans())
            if (sp.category == "service")
                out.spans.push_back(std::move(sp));
    }
    out.snap = s.svc->snapshot();
    return out;
}

/** Every modeled figure of a pass, for the exact repeat check. */
std::vector<double>
modeledFigures(const ModeledPass &p)
{
    const service::ServiceStats &st = p.snap.stats;
    const service::LatencySnapshot &lat = p.snap.latency;
    std::vector<double> f = {
        lat.p50_us,  lat.p99_us,
        lat.mean_us, lat.max_us,
        static_cast<double>(lat.samples),
        st.makespan_us,
        static_cast<double>(st.fpga_cycles),
        st.dma_us,   st.host_us,
        static_cast<double>(st.batches),
        static_cast<double>(st.key_swaps),
        static_cast<double>(st.resident_warm_runs),
        static_cast<double>(st.resident_cold_runs)};
    for (hw::Cycle c : st.unit_cycles)
        f.push_back(static_cast<double>(c));
    return f;
}

// --- host passes ------------------------------------------------------------

/** Host-clock figures of the interleaved closed-loop chunks. */
struct HostPasses
{
    /** Chunk figures: host ms per request on one worker, requests per
     *  second on kHostWorkers workers. */
    std::vector<double> one_ms_per_req;
    std::vector<double> many_req_per_s;
    size_t attempted = 0;
    size_t wrong = 0;
};

/**
 * One closed-loop chunk: the client keeps @p window requests outstanding
 * on @p s until @p seconds have passed, then waits for them.
 * @return the completion times (s since the chunk began), in order.
 */
std::vector<double>
runChunk(const World &w, Served &s, size_t window, double seconds,
         Xoshiro256 &rng, HostPasses &out, SpanLog &log, uint64_t parent)
{
    struct InFlight
    {
        Pending p;
        uint64_t span;
    };
    std::vector<InFlight> inflight;
    std::vector<double> done_s;
    const Clock::time_point t_start = Clock::now();
    const auto elapsed_s = [&] { return msSince(t_start) / 1e3; };
    for (;;) {
        while (inflight.size() < window && elapsed_s() < seconds) {
            const uint64_t span =
                out.attempted < kMaxRequestSpans
                    ? log.open("service.request", parent, out.attempted)
                    : 0;
            inflight.push_back({submitRequest(w, s, drawRequest(w, rng)),
                                span});
            ++out.attempted;
        }
        if (inflight.empty())
            return done_s;
        // Several workers finish out of submission order: wake on the
        // oldest request (or after 100 us) and take every finished one,
        // so each completion is timed when it happens.
        ready(inflight.front().p, std::chrono::microseconds(100));
        for (auto it = inflight.begin(); it != inflight.end();) {
            if (!ready(it->p, std::chrono::microseconds(0))) {
                ++it;
                continue;
            }
            out.wrong += !collect(it->p);
            log.close(it->span);
            done_s.push_back(elapsed_s());
            it = inflight.erase(it);
        }
    }
}

/** Requests per second between the first completion and the last one
 *  before @p seconds: the multi-worker steady state of a chunk, without
 *  its ramp-up or the tail in which workers run out of work. */
double
steadyRate(const std::vector<double> &done_s, double seconds)
{
    const auto end = std::upper_bound(done_s.begin(), done_s.end(), seconds);
    const size_t n = static_cast<size_t>(end - done_s.begin());
    if (n < 2 || done_s[n - 1] <= done_s[0])
        return static_cast<double>(done_s.size()) / done_s.back();
    return static_cast<double>(n - 1) / (done_s[n - 1] - done_s[0]);
}

// --- instruction replay ------------------------------------------------------

struct OpAcc
{
    uint64_t calls = 0;
    hw::Cycle cycles = 0;
    double host_us = 0.0;
};

/** One request of one kind: fused run vs instruction-by-instruction. */
struct KindReplay
{
    double weight = 0.0;
    std::shared_ptr<const compiler::CompiledCircuit> compiled;
    compiler::CircuitRunStats fused;
    double fused_ms = 0.0;
    double execute_ms = 0.0;
    /** The software evaluator on the same request. */
    double fv_ms = 0.0;
    /** Per opcode: calls and compute cycles of one replay; host time
     *  per call is the median over kReplays replays. */
    std::map<hw::Opcode, OpAcc> ops;
    bool bit_equal = true;
    bool cycles_exact = true;
};

/** The compiled form a request kind is replayed as: the submitted
 *  circuit, or a one-node circuit for the single-op path. */
std::shared_ptr<const compiler::CompiledCircuit>
replayCircuit(const World &w, const Kind &kind)
{
    if (kind.compiled != nullptr)
        return kind.compiled;
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(kind.shape == Shape::kAdd ? b.add(x, y) : b.mult(x, y));
    compiler::CompilerOptions opts = compileOptions();
    opts.verify = compiler::VerifyCheck::kReject;
    return std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(w.params, b.build(), opts));
}

/**
 * Run @p cc's segments on @p cp one instruction at a time, mirroring the
 * compiled executor's cold path (slot replay, resident uploads, segment
 * uploads, downloads), and accumulate per-opcode calls, compute cycles
 * and host time.
 */
std::vector<fv::Ciphertext>
replayInstructions(hw::Coprocessor &cp, const compiler::CompiledCircuit &cc,
                   std::span<const fv::Ciphertext> inputs,
                   std::map<hw::Opcode, OpAcc> &ops, double &execute_ms,
                   SpanLog &log, uint64_t parent)
{
    cp.reset();
    {
        Scoped s(log, "hw.replay_slots", parent);
        hw::replaySlotActions(cp.memory(), cc.slot_actions);
    }
    const size_t resident = cc.resident_inputs.size();
    for (size_t k = 0; k < resident; ++k)
        for (int p = 0; p < 2; ++p)
            cp.uploadInto(cc.resident_slots[k][p],
                          inputs[cc.resident_inputs[k]][p]);
    if (resident > 0)
        cp.memory().setPinnedRecords(2 * resident);

    std::vector<std::vector<ntt::RnsPoly>> values(cc.value_sizes.size());
    for (size_t k = 0; k < cc.inputs.size(); ++k)
        values[cc.inputs[k]] = {inputs[k][0], inputs[k][1]};
    for (const compiler::Segment &seg : cc.segments) {
        {
            Scoped s(log, "hw.upload", parent);
            for (const compiler::Transfer &up : seg.uploads)
                cp.uploadInto(up.slot,
                              up.source == compiler::Transfer::Source::kConstant
                                  ? cc.constants[up.index]
                                  : values[up.index][up.poly]);
        }
        {
            Scoped s(log, "hw.execute", parent);
            for (const hw::Instruction &instr : seg.program.instrs) {
                hw::Program one;
                one.instrs.push_back(instr);
                const Clock::time_point t0 = Clock::now();
                const hw::ExecStats es =
                    cp.execute(one, hw::DispatchMode::kFusedProgram);
                const double us = msSince(t0) * 1e3;
                OpAcc &acc = ops[instr.op];
                ++acc.calls;
                acc.cycles += es.fpga_cycles - es.dispatch_cycles;
                acc.host_us += us;
                execute_ms += us / 1e3;
            }
        }
        Scoped s(log, "hw.download", parent);
        for (const compiler::Transfer &down : seg.downloads) {
            std::vector<ntt::RnsPoly> &store = values[down.index];
            store.resize(cc.value_sizes[down.index]);
            store[down.poly] = cp.memory().exportQBase(down.slot);
        }
    }
    std::vector<fv::Ciphertext> outs;
    for (compiler::ValueId v : cc.outputs) {
        fv::Ciphertext ct;
        ct.level = cc.value_levels[v];
        ct.polys = values[v];
        outs.push_back(std::move(ct));
    }
    return outs;
}

std::vector<KindReplay>
replayKinds(const World &w, size_t replays, SpanLog &log)
{
    Scoped root(log, "replay");
    std::vector<KindReplay> out;
    const Tenant &tenant = w.tenants[0];
    const fv::Evaluator ev(w.params);
    for (size_t k = 0; k < w.kinds.size(); ++k) {
        const Kind &kind = w.kinds[k];
        KindReplay r;
        r.weight = kind.weight;
        r.compiled = replayCircuit(w, kind);
        const std::vector<fv::Ciphertext> in = allInputs(w, 0, kind, 0);
        hw::Coprocessor cp(w.params, r.compiled->hw, &tenant.rlk,
                           &tenant.gkeys);
        std::vector<std::map<hw::Opcode, OpAcc>> reps(replays);
        std::vector<double> exec_ms(replays, 0.0);
        std::vector<double> fused_ms;
        std::vector<double> fv_ms;
        for (size_t i = 0; i < replays; ++i) {
            {
                Scoped s(log, "fv.evaluate", root.id(), k);
                const Clock::time_point t0 = Clock::now();
                evaluate(ev, tenant, kind, in);
                fv_ms.push_back(msSince(t0));
            }
            std::vector<fv::Ciphertext> fused;
            {
                Scoped s(log, "compiler.run", root.id(), k);
                const Clock::time_point t0 = Clock::now();
                fused = compiler::runCompiledCircuit(cp, *r.compiled, in,
                                                     &r.fused);
                fused_ms.push_back(msSince(t0));
            }
            Scoped s(log, "replay.request", root.id(), k);
            const std::vector<fv::Ciphertext> outs = replayInstructions(
                cp, *r.compiled, in, reps[i], exec_ms[i], log, s.id());
            r.bit_equal = r.bit_equal && outs == fused &&
                          outs == w.refs[0][k][0];
        }
        r.fused_ms = median(fused_ms);
        r.fv_ms = median(fv_ms);
        r.execute_ms = median(exec_ms);
        r.ops = reps[0];
        for (auto &[op, acc] : r.ops) {
            std::vector<double> per_call;
            for (auto &rep : reps)
                per_call.push_back(rep[op].host_us /
                                   static_cast<double>(rep[op].calls));
            acc.host_us = median(per_call);
        }
        // Exact attribution: the opcodes' compute cycles sum to the
        // fused run's per-unit cycles, dispatch (the Arm unit) aside.
        hw::Cycle op_sum = 0;
        for (const auto &[op, acc] : r.ops)
            op_sum += acc.cycles;
        hw::Cycle unit_sum = 0;
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            if (u != static_cast<size_t>(hw::Unit::kArmUnit))
                unit_sum += r.fused.unit_cycles[u];
        r.cycles_exact = op_sum == unit_sum;
        out.push_back(std::move(r));
    }
    return out;
}

// --- kernels ----------------------------------------------------------------

struct KernelTimes
{
    double forward_us = 0.0;
    double inverse_us = 0.0;
    double scale_batch_us = 0.0;
    double convert_batch_us = 0.0;
    double dyadic_mul_us = 0.0;
};

/** Median over 15 blocks of the mean time of @p calls calls of @p fn. */
template <typename Fn>
double
timeKernelUs(size_t calls, Fn &&fn)
{
    std::vector<double> blocks;
    for (size_t b = 0; b < 15; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < calls; ++i)
            fn();
        blocks.push_back(msSince(t0) * 1e3 / static_cast<double>(calls));
    }
    return median(blocks);
}

/** Random residue rows (one per modulus of @p base) of length n. */
std::vector<std::vector<uint64_t>>
randomRows(const rns::RnsBase &base, size_t n, Xoshiro256 &rng)
{
    std::vector<std::vector<uint64_t>> rows(base.size(),
                                            std::vector<uint64_t>(n));
    for (size_t i = 0; i < base.size(); ++i)
        for (uint64_t &x : rows[i])
            x = rng.uniformBelow(base.modulus(i).value());
    return rows;
}

std::vector<const uint64_t *>
constPtrs(const std::vector<std::vector<uint64_t>> &rows)
{
    std::vector<const uint64_t *> p;
    for (const auto &r : rows)
        p.push_back(r.data());
    return p;
}

std::vector<uint64_t *>
ptrs(std::vector<std::vector<uint64_t>> &rows)
{
    std::vector<uint64_t *> p;
    for (auto &r : rows)
        p.push_back(r.data());
    return p;
}

KernelTimes
timeKernels(const fv::FvParams &params, uint64_t seed, SpanLog &log)
{
    Scoped root(log, "kernels");
    const size_t n = params.degree();
    const size_t calls = std::max<size_t>(4, 65536 / n);
    Xoshiro256 rng(splitmix(seed, 500));
    const rns::RnsBase &q = *params.qBase();
    const rns::RnsBase &p = *params.pBase();
    const rns::RnsBase &full = *params.fullBase();
    const ntt::NttTables &tables = params.qContext().tables(0);
    KernelTimes kt;

    std::vector<std::vector<uint64_t>> a = randomRows(q, n, rng);
    std::vector<std::vector<uint64_t>> b = randomRows(q, n, rng);
    kt.forward_us = timeKernelUs(
        calls, [&] { ntt::forwardNtt(std::span<uint64_t>(a[0]), tables); });
    kt.inverse_us = timeKernelUs(
        calls, [&] { ntt::inverseNtt(std::span<uint64_t>(a[0]), tables); });
    const simd::Kernels &kern = simd::active();
    kt.dyadic_mul_us = timeKernelUs(calls, [&] {
        kern.mul_mod(a[0].data(), b[0].data(), n, q.modulus(0));
    });

    const std::vector<std::vector<uint64_t>> full_in =
        randomRows(full, n, rng);
    const std::vector<const uint64_t *> full_ptrs = constPtrs(full_in);
    std::vector<std::vector<uint64_t>> p_out(p.size(),
                                             std::vector<uint64_t>(n));
    std::vector<uint64_t *> p_ptrs = ptrs(p_out);
    kt.scale_batch_us = timeKernelUs(calls / 4 + 1, [&] {
        params.scaler().scaleBatch(full_ptrs.data(), p_ptrs.data(), n);
    });
    const std::vector<const uint64_t *> q_ptrs = constPtrs(a);
    kt.convert_batch_us = timeKernelUs(calls / 4 + 1, [&] {
        params.liftConverter().convertBatch(q_ptrs.data(), p_ptrs.data(), n);
    });
    return kt;
}

// --- reporting --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

const char *
opcodeMetricName(hw::Opcode op)
{
    switch (op) {
    case hw::Opcode::kNtt:
        return "ntt";
    case hw::Opcode::kIntt:
        return "intt";
    case hw::Opcode::kCoeffMul:
        return "coeff_mul";
    case hw::Opcode::kCoeffAdd:
        return "coeff_add";
    case hw::Opcode::kCoeffSub:
        return "coeff_sub";
    case hw::Opcode::kRearrange:
        return "rearrange";
    case hw::Opcode::kLift:
        return "lift";
    case hw::Opcode::kScale:
        return "scale";
    case hw::Opcode::kAutomorph:
        return "automorph";
    case hw::Opcode::kKeyLoad:
        return "key_load";
    case hw::Opcode::kModSwitch:
        return "mod_switch";
    }
    return "other";
}

constexpr std::array<hw::Opcode, 11> kOpcodes = {
    hw::Opcode::kNtt,       hw::Opcode::kIntt,     hw::Opcode::kCoeffMul,
    hw::Opcode::kCoeffAdd,  hw::Opcode::kCoeffSub, hw::Opcode::kRearrange,
    hw::Opcode::kLift,      hw::Opcode::kScale,    hw::Opcode::kAutomorph,
    hw::Opcode::kKeyLoad,   hw::Opcode::kModSwitch};

constexpr std::array<std::pair<hw::Unit, const char *>, 6> kUnits = {{
    {hw::Unit::kNttUnit, "ntt"},
    {hw::Unit::kLiftUnit, "lift"},
    {hw::Unit::kScaleUnit, "scale"},
    {hw::Unit::kCoeffUnit, "coeff"},
    {hw::Unit::kModReduceUnit, "mod_reduce"},
    {hw::Unit::kArmUnit, "arm"},
}};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string trace_out;
    bool smoke = false;
};

/** @return 0 on success (correct outputs), 1 otherwise. */
int
runWorkload(const Spec &spec, const Options &opt)
{
    SpanLog log(opt.trace);
    const size_t requests = opt.smoke ? spec.smoke_requests : spec.requests;
    std::printf("== heat_bench %s: seed %llu, %.3g s, trace %d, simd %s\n",
                spec.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                simd::levelName(simd::activeLevel()));

    // 1. Set-up. More set-ups run between the host chunks (step 4), so
    //    setup_s, the median over all of them, samples the whole run.
    std::vector<SetupTimes> times(1);
    World w;
    Served served;
    std::tie(w, served) = setUp(spec, opt.seed, times[0], log);
    const auto moreSetups = [&] {
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < kSlotSetups &&
                           (i == 0 || msSince(t0) < kSetupSlotS * 1e3);
             ++i) {
            times.emplace_back();
            setUp(spec, opt.seed, times.back(), log);
        }
    };
    const auto setupMedian = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : times)
            v.push_back(t.*field);
        return median(v);
    };

    // 2. Reference outputs, before anything is timed.
    computeReferences(w, log);

    // 3. Modeled pass, twice, when smoke-testing or tracing: the two
    //    copies must agree exactly; the second runs under obs when
    //    tracing. The end-to-end metrics are all host-clock figures.
    size_t attempted = 0;
    size_t failed = 0;
    bool checks_ok = true;
    ModeledPass modeled;
    ModeledPass traced;
    obs::Tracer tracer(1u << 20);
    if (opt.smoke || opt.trace) {
        modeled = runModeledPass(w, served, requests, opt.seed, nullptr, log);
        attempted += modeled.attempted;
        failed += modeled.wrong + serviceFailures(modeled.snap.stats);
        Served again = makeService(w, 1, /*paused=*/true);
        traced = runModeledPass(w, again, requests, opt.seed,
                                opt.trace ? &tracer : nullptr, log);
        attempted += traced.attempted;
        failed += traced.wrong + serviceFailures(traced.snap.stats);
        if (modeledFigures(traced) != modeledFigures(modeled)) {
            std::fprintf(stderr, "heat_bench: modeled figures differ "
                                 "between two identical passes\n");
            checks_ok = false;
        }
        if (tracer.droppedSpans() != 0) {
            std::fprintf(stderr, "heat_bench: tracer dropped %llu spans\n",
                         static_cast<unsigned long long>(
                             tracer.droppedSpans()));
            checks_ok = false;
        }
    }
    served = Served{};

    // 4. Host passes: kPairs pairs of closed-loop chunks, one worker
    //    then kHostWorkers workers, with set-ups after each pair. Each
    //    host figure is its best chunk. A shared host slows vector code
    //    up to 1.5x for seconds to minutes at a time; the best chunk
    //    follows the uncontended speed unless the whole run is slow,
    //    where a mean would follow the neighbours (see README.md).
    HostPasses host;
    service::ServiceStats one_stats;
    service::ServiceStats many_stats;
    {
        Scoped root(log, "pass.host");
        Served one = makeService(w, 1, /*paused=*/false);
        Served many = makeService(w, kHostWorkers, /*paused=*/false);
        Xoshiro256 rng(splitmix(opt.seed, 400));
        const size_t pairs = opt.smoke ? 1 : kPairs;
        const double chunk_s = opt.seconds / static_cast<double>(2 * pairs);
        for (size_t i = 0; i < pairs; ++i) {
            const std::vector<double> a = runChunk(
                w, one, spec.one_window, chunk_s, rng, host, log, root.id());
            host.one_ms_per_req.push_back(a.back() * 1e3 /
                                          static_cast<double>(a.size()));
            const std::vector<double> b = runChunk(
                w, many, spec.window, chunk_s, rng, host, log, root.id());
            host.many_req_per_s.push_back(steadyRate(b, chunk_s));
            if (!opt.smoke)
                moreSetups();
        }
        one.svc->drain();
        many.svc->drain();
        one_stats = one.svc->stats();
        many_stats = many.svc->stats();
    }
    attempted += host.attempted;
    failed += host.wrong + serviceFailures(one_stats) +
              serviceFailures(many_stats);
    const double host_ms_per_req = *std::min_element(
        host.one_ms_per_req.begin(), host.one_ms_per_req.end());

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", setupMedian(&SetupTimes::total_s), "s"},
            {"host_req_per_s",
             *std::max_element(host.many_req_per_s.begin(),
                               host.many_req_per_s.end()),
             "1/s"},
            {"host_ms_per_req", host_ms_per_req, "ms"},
        };
    } else {
        const std::vector<KindReplay> replays =
            replayKinds(w, opt.smoke ? 1 : kReplays, log);
        const KernelTimes kt = timeKernels(*w.params, opt.seed, log);
        for (const KindReplay &r : replays) {
            if (!r.bit_equal) {
                std::fprintf(stderr, "heat_bench: instruction replay is "
                                     "not bit-equal to the fused run\n");
                checks_ok = false;
            }
            if (!r.cycles_exact) {
                std::fprintf(stderr, "heat_bench: per-opcode cycles do "
                                     "not sum to the per-unit cycles\n");
                checks_ok = false;
            }
        }

        const service::ServiceStats &st = traced.snap.stats;
        const double jobs = static_cast<double>(
            std::max<uint64_t>(st.ops_completed + st.circuits_completed, 1));
        // Queue waits and busy time from the tracer's modeled spans; a
        // request that never waited has no queue-wait span.
        std::vector<double> waits;
        double busy_us = 0.0;
        for (const obs::SpanRecord &sp : traced.spans) {
            if (sp.name == "queue-wait")
                waits.push_back(sp.dur_us);
            else if (sp.name.starts_with("request:"))
                busy_us += sp.dur_us;
        }
        waits.resize(traced.attempted, 0.0);
        const auto weighted = [&](auto &&fn) {
            double v = 0.0;
            for (const KindReplay &r : replays)
                v += r.weight * fn(r);
            return v;
        };
        const auto warm = static_cast<double>(st.resident_warm_runs);
        const auto cold = static_cast<double>(st.resident_cold_runs);
        // Refusals and failures summed over every pass of the run.
        const auto total = [&](uint64_t service::ServiceStats::*field) {
            uint64_t v = 0;
            for (const service::ServiceStats &p :
                 {modeled.snap.stats, traced.snap.stats, one_stats,
                  many_stats})
                v += p.*field;
            return static_cast<double>(v);
        };
        metrics = {
            {"service.batch_size", jobs / static_cast<double>(st.batches),
             "count"},
            {"service.key_swaps_per_req",
             static_cast<double>(st.key_swaps) / jobs, "count"},
            {"service.resident_warm_frac",
             warm + cold > 0.0 ? warm / (warm + cold) : 0.0, "fraction"},
            {"service.modeled_queue_wait_p50_ms", quantile(waits, 0.50) / 1e3,
             "ms"},
            {"service.modeled_queue_wait_p99_ms", quantile(waits, 0.99) / 1e3,
             "ms"},
            {"service.modeled_req_per_s",
             busy_us > 0.0 ? jobs / busy_us * 1e6 : 0.0, "1/s"},
            {"service.modeled_p50_ms", traced.snap.latency.p50_us / 1e3,
             "ms"},
            {"service.modeled_p99_ms", traced.snap.latency.p99_us / 1e3,
             "ms"},
            {"service.submit_us", modeled.submit_us, "us"},
            {"service.verify_runs",
             static_cast<double>(st.circuits_verified), "count"},
            {"service.failed", total(&service::ServiceStats::ops_failed),
             "count"},
            {"service.shed", total(&service::ServiceStats::ops_shed),
             "count"},
            {"service.rejected", total(&service::ServiceStats::ops_rejected),
             "count"},
            {"service.admission_rejected",
             total(&service::ServiceStats::admission_rejected), "count"},
            {"service.verify_rejected",
             total(&service::ServiceStats::verify_rejected), "count"},
            {"compiler.compile_ms", setupMedian(&SetupTimes::compile_ms),
             "ms"},
            {"compiler.instructions", weighted([](const KindReplay &r) {
                 return static_cast<double>(r.compiled->instructionCount());
             }),
             "count"},
            {"compiler.segments", weighted([](const KindReplay &r) {
                 return static_cast<double>(r.compiled->segments.size());
             }),
             "count"},
            {"compiler.peak_slots", weighted([](const KindReplay &r) {
                 return static_cast<double>(r.compiled->peak_slots);
             }),
             "count"},
            {"compiler.spilled_polys", weighted([](const KindReplay &r) {
                 return static_cast<double>(r.compiled->spilled_polys);
             }),
             "count"},
            {"compiler.reloaded_polys", weighted([](const KindReplay &r) {
                 return static_cast<double>(r.compiled->reloaded_polys);
             }),
             "count"},
            {"compiler.modeled_transfer_us_per_req",
             weighted([](const KindReplay &r) { return r.fused.host_us; }),
             "us"},
            {"compiler.run_overhead_host_ms",
             weighted([](const KindReplay &r) {
                 return r.fused_ms - r.execute_ms;
             }),
             "ms"},
            {"verify.verify_us", setupMedian(&SetupTimes::verify_us), "us"},
        };
        for (const auto &[unit, name] : kUnits)
            metrics.push_back(
                {std::string("hw.unit.") + name + ".cycles_per_req",
                 static_cast<double>(
                     st.unit_cycles[static_cast<size_t>(unit)]) /
                     jobs,
                 "cycles"});
        metrics.push_back(
            {"hw.modeled_key_dma_us_per_req", st.dma_us / jobs, "us"});
        for (hw::Opcode op : kOpcodes) {
            const std::string base =
                std::string("hw.op.") + opcodeMetricName(op);
            const auto field = [op](const KindReplay &r, auto member) {
                const auto it = r.ops.find(op);
                return it == r.ops.end()
                           ? 0.0
                           : static_cast<double>(it->second.*member);
            };
            metrics.push_back({base + ".calls_per_req",
                               weighted([&](const KindReplay &r) {
                                   return field(r, &OpAcc::calls);
                               }),
                               "count"});
            metrics.push_back({base + ".cycles_per_req",
                               weighted([&](const KindReplay &r) {
                                   return field(r, &OpAcc::cycles);
                               }),
                               "cycles"});
            // Host time per call, weighted over the kinds that run it.
            double wsum = 0.0;
            double us = 0.0;
            for (const KindReplay &r : replays) {
                const auto it = r.ops.find(op);
                if (it == r.ops.end())
                    continue;
                const double share =
                    r.weight * static_cast<double>(it->second.calls);
                wsum += share;
                us += share * it->second.host_us;
            }
            metrics.push_back(
                {base + ".host_us", wsum > 0.0 ? us / wsum : 0.0, "us"});
        }
        metrics.push_back(
            {"hw.execute_host_ms_per_req",
             weighted([](const KindReplay &r) { return r.execute_ms; }),
             "ms"});
        const double fv_ms =
            weighted([](const KindReplay &r) { return r.fv_ms; });
        metrics.push_back({"fv.request_host_ms", fv_ms, "ms"});
        // The simulated coprocessor against the evaluator on the same
        // request, timed side by side.
        metrics.push_back(
            {"fv.hw_host_ratio",
             weighted([](const KindReplay &r) { return r.fused_ms; }) /
                 fv_ms,
             "x"});
        metrics.push_back({"ntt.forward_us", kt.forward_us, "us"});
        metrics.push_back({"ntt.inverse_us", kt.inverse_us, "us"});
        metrics.push_back({"rns.scale_batch_us", kt.scale_batch_us, "us"});
        metrics.push_back(
            {"rns.convert_batch_us", kt.convert_batch_us, "us"});
        metrics.push_back({"simd.dyadic_mul_us", kt.dyadic_mul_us, "us"});
        metrics.push_back(
            {"simd.level", static_cast<double>(simd::activeLevel()),
             "count"});
        metrics.push_back(
            {"obs.trace_overhead_pct",
             (traced.wall_ms - modeled.wall_ms) / modeled.wall_ms * 100.0,
             "%"});
        metrics.push_back({"setup.params_ms",
                           setupMedian(&SetupTimes::params_ms), "ms"});
        metrics.push_back({"setup.keygen_ms",
                           setupMedian(&SetupTimes::keygen_ms), "ms"});
        metrics.push_back({"setup.encrypt_ms",
                           setupMedian(&SetupTimes::encrypt_ms), "ms"});
        metrics.push_back({"setup.service_ms",
                           setupMedian(&SetupTimes::service_ms), "ms"});
        metrics.push_back({"process.peak_rss_mb", peakRssMb(), "MB"});

        std::printf("host self time by span (ms):\n");
        for (const auto &[name, ms] : log.selfTimesMs())
            std::printf("  %-28s %12.3f\n", name.c_str(), ms);
        if (!opt.trace_out.empty()) {
            if (log.write(opt.trace_out, traced.spans))
                std::printf("trace written to %s\n", opt.trace_out.c_str());
            else
                std::fprintf(stderr, "heat_bench: cannot write %s\n",
                             opt.trace_out.c_str());
        }
    }
    if (!checks_ok)
        ++failed;
    const bool correct = failed == 0;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "heat_bench: %s\n"
                 "usage: heat_bench --workload "
                 "<mult-op|depth4-fused|matvec16|tenant-mix|all>\n"
                 "                  [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                  [--trace-out FILE] [--scale full|smoke]\n",
                 error.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        try {
            size_t used = 0;
            if (flag == "--workload") {
                opt.workload = value;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value, &used);
                if (used != value.size() || value.starts_with("-"))
                    usage("bad --seed " + value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value, &used);
                if (used != value.size() || !(opt.seconds > 0.0) ||
                    opt.seconds > 3600.0)
                    usage("bad --seconds " + value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (flag == "--trace-out") {
                opt.trace_out = value;
            } else if (flag == "--scale") {
                if (value != "full" && value != "smoke")
                    usage("--scale takes full or smoke");
                opt.smoke = value == "smoke";
            } else {
                usage("unknown option " + std::string(flag));
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + std::string(flag) + ": " + value);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    heat::setThreadCount(1);
    std::vector<const Spec *> chosen;
    for (const Spec &s : kSpecs)
        if (opt.workload == s.name || opt.workload == "all")
            chosen.push_back(&s);
    if (chosen.empty())
        usage("unknown workload " + opt.workload);
    int status = 0;
    try {
        for (const Spec *s : chosen)
            status |= runWorkload(*s, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "heat_bench: %s\n", e.what());
        return 1;
    }
    return status;
}
