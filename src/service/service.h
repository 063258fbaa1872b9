/**
 * @file
 * Asynchronous multi-coprocessor execution service — the serving layer
 * the ROADMAP's production system needs on top of the paper's single
 * accelerator (Sec. V): a request queue, a pool of workers (one
 * simulated coprocessor each, run by as many host threads), and a
 * futures-based submit API.
 *
 * Two submission granularities coexist: single operations
 * (submit(Op, a, b) — one host round trip each) and whole circuits
 * (submitCircuit — compiled once into fused programs whose
 * intermediates stay coprocessor-resident; see compiler/compiler.h).
 * Both run on one execution engine: a single operation is the one-node
 * circuit add(x, y) or mult(x, y), compiled once at construction and
 * then admitted (statically verified on first use) and served like any
 * other compiled circuit job.
 *
 * The service is multi-tenant: every submission runs under a tenant
 * session carrying its own relinearization and Galois key sets
 * (registerTenant). Workers re-point their coprocessor's DDR-resident
 * key pointers at the submitting session's keys before executing its
 * jobs (hw::Coprocessor::attachKeys — the kKeyLoad selector streams
 * from whatever is attached), submit-time validation is per-session,
 * and each tenant has its own FIFO queue drained by arrival-aware
 * weighted round-robin (earliest head job first, up to `weight` jobs
 * per turn) so one chatty tenant cannot starve the rest. Queues are
 * bounded (ServiceConfig::max_queue_per_tenant): submissions beyond
 * the bound shed synchronously with ServiceOverloadedError.
 *
 * Admission control: the compiler's noise pass runs (or is reused) at
 * submit time. Under ServiceConfig::admission == NoiseCheck::kReject a
 * circuit whose predicted invariant-noise budget dies before its
 * outputs is rejected synchronously with AdmissionRejectedError naming
 * the first exhausted node — after one re-leveling attempt
 * (auto_mod_switch) when admission_relevel is set and the submission
 * came through submitCircuit.
 *
 * Resident ciphertext cache: hot operands (PIR databases, matvec
 * weights) can be pinned per tenant (pinInput) and referenced by
 * handle in submitCompiledResident. The first execution on a worker
 * uploads them into the pinned memory-file prefix
 * (hw::MemoryFile::setPinnedRecords); repeat executions of the same
 * (tenant, circuit, handles) on that worker skip the operand upload
 * entirely (compiler::runCompiledCircuitWarm). Results are bit-exact
 * either way.
 *
 * Timing comes from one modeled clock: a deterministic discrete-event
 * engine inside the service that owns every worker's place in modeled
 * time and the system's single DMA engine (the paper's Fig. 11: two
 * coprocessors and one DMA engine behind the mutex IP core). Events are
 * ordered by (modeled time, worker index): the worker earliest in
 * modeled time takes the next batch under the arrival-aware weighted
 * round-robin, and a batch holds only jobs that have arrived by that
 * worker's start (the single earliest job when none has). Jobs may
 * carry a modeled arrival timestamp (open-loop load generation);
 * untimed jobs count as arrived from time 0. Every job is priced
 * statically, once per compiled circuit, by the circuit's one static
 * price (compiler::attributeCompiledCircuit): the engine replays the
 * cold or warm run's timeline of compute runs and DMA holds — operand
 * upload, each kKeyLoad at its instruction position, result download.
 * Workers contend for the DMA first come, first served. The price does
 * not depend on batch width.
 *
 * The engine is the only source of modeled (obs::kModeledPid) trace
 * spans, placed on its clock on the worker's track: a job's
 * "queue-wait" (an async span: waits overlap each other and the
 * track's requests), its "request:*" span from start to end (args
 * latency_us and the priced busy_us), and tiling that, the phases of
 * its timeline ("upload:resident", "upload", per segment a "program"
 * of instruction spans and "arm-dispatch", "download") and a
 * "dma-wait" wherever it waited for the DMA engine.
 *
 * The engine dispatches as soon as work is queued (at start() for a
 * start_paused service), so every modeled figure — latency() (p50/p99
 * of completion minus arrival, or of pure service time for untimed
 * jobs), makespan, key swaps, resident cold/warm runs, DMA busy time
 * and the modeled trace spans — is a function of the submissions
 * alone, whatever the OS thread scheduling. Worker threads only supply
 * the host compute: a worker's batches run on its simulated
 * coprocessor in dispatch order (a batch without resident jobs may
 * borrow any idle coprocessor that holds no pinned operands), and
 * futures resolve as soon as a run finishes. Functionally every
 * operation is bit-exact against fv::Evaluator's HPS path.
 *
 * Shutdown semantics: shutdown() (also run by the destructor) stops
 * intake, lets in-flight batches finish, joins the workers, and fails
 * every still-queued job's future with ServiceStoppedError — submitted
 * work never hangs.
 */

#ifndef HEAT_SERVICE_SERVICE_H
#define HEAT_SERVICE_SERVICE_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/panic.h"
#include "compiler/attribution.h"
#include "compiler/compiler.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "hw/config.h"
#include "hw/coprocessor.h"
#include "hw/isa.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace heat::service {

/** Homomorphic operations the service executes. */
enum class Op : uint8_t
{
    kAdd, ///< FV.Add
    kMult ///< FV.Mult with relinearization
};

/** Tenant session identifier (returned by registerTenant). */
using TenantId = uint32_t;

/** The session the key-set constructor arguments register. */
constexpr TenantId kDefaultTenant = 0;

/** Handle to a tenant's pinned (coprocessor-cacheable) ciphertext. */
using PinnedHandle = uint32_t;

/** Tunables of the execution service. */
struct ServiceConfig
{
    /** Worker threads, one simulated coprocessor each. */
    size_t workers = 2;
    /** Maximum independent operations executed per dequeue. */
    size_t max_batch = 8;
    /** Per-coprocessor hardware configuration. */
    hw::HwConfig hw = hw::HwConfig::paper();
    /**
     * Start with the workers idle: submissions queue up but nothing
     * executes until start() is called. Lets a deployment (or a test)
     * pre-fill the queue so the very first dequeues run at full batch
     * width.
     */
    bool start_paused = false;
    /**
     * Compiler options used by submitCircuit (the hw field is
     * overridden with this config's hw so compiled programs always
     * target the workers' slot capacity). Deployments tune hoisting,
     * auto_mod_switch and the compile-time noise check here.
     */
    compiler::CompilerOptions compiler;
    /**
     * Noise-aware admission: what to do with a submission whose
     * compiled circuit predicts an exhausted noise budget before its
     * outputs. kWarn (default) prints the node-level diagnostic and
     * accepts; kReject throws AdmissionRejectedError synchronously;
     * kOff admits silently.
     */
    compiler::NoiseCheck admission = compiler::NoiseCheck::kWarn;
    /**
     * Under admission == kReject, submitCircuit retries a failing
     * compilation with auto_mod_switch (re-leveling) before rejecting
     * — the level assignment often rescues depth-heavy circuits at no
     * accuracy cost. Pre-compiled submissions are never rewritten.
     */
    bool admission_relevel = true;
    /**
     * Per-tenant queue bound; 0 = unbounded. A tenant's queue holds its
     * jobs that no worker thread has started yet. A submission that
     * would push it beyond the bound is shed synchronously
     * with ServiceOverloadedError (counted in ServiceStats::ops_shed).
     */
    size_t max_queue_per_tenant = 0;
    /**
     * Static verification at submission admission (verify/verify.h):
     * every compiled circuit entering through submit (the op's one-node
     * circuit) / submitCircuit / submitCompiled /
     * submitCompiledResident — including the warm
     * resident path's pinned-prefix suffix, which the verifier checks
     * as part of the whole program — is proven against the memory-file,
     * layout, level and key invariants before any worker executes it.
     * kWarn prints the diagnostic table and admits; kReject throws
     * AdmissionRejectedError synchronously. Verification verdicts are
     * cached per compiled-circuit object, so the compile-once
     * submit-many pattern (and every warm resident resubmit) pays the
     * pass once.
     */
    compiler::VerifyCheck verify = compiler::defaultVerifyCheck();
};

/** Delivered through the futures of jobs cancelled by shutdown(). */
class ServiceStoppedError : public std::runtime_error
{
  public:
    explicit ServiceStoppedError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Thrown synchronously when a tenant's bounded queue is full. */
class ServiceOverloadedError : public std::runtime_error
{
  public:
    explicit ServiceOverloadedError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Thrown synchronously by noise-aware admission control (see
 *  ServiceConfig::admission) with the node-level diagnostic. */
class AdmissionRejectedError : public std::runtime_error
{
  public:
    explicit AdmissionRejectedError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Per-tenant slice of the aggregate statistics (see
 *  ServiceStats::tenants; indexed by TenantId). */
struct TenantStats
{
    std::string name;
    /** Jobs enqueued (single ops and circuits). */
    uint64_t arrivals = 0;
    /** Submissions shed by this tenant's bounded queue. */
    uint64_t shed = 0;
    /** Circuits rejected by noise-aware admission control. */
    uint64_t admission_rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    /** Coprocessor cycles this tenant's jobs consumed, by unit. */
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};

    hw::Cycle
    unitCycles(hw::Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }
};

/** Aggregate execution statistics (monotonic over the service life). */
struct ServiceStats
{
    uint64_t ops_completed = 0;
    /** Jobs whose execution threw; their futures carry the error. */
    uint64_t ops_failed = 0;
    /** Jobs still queued when shutdown() ran; their futures fail. */
    uint64_t ops_rejected = 0;
    /** Submissions shed by the bounded per-tenant queues. */
    uint64_t ops_shed = 0;
    /** Circuits rejected by noise-aware admission control. */
    uint64_t admission_rejected = 0;
    /** Circuits admitted only after the auto_mod_switch re-level. */
    uint64_t admission_releveled = 0;
    /** Static-verifier passes actually run at admission (cache misses;
     *  resubmissions of an already-verified circuit are not re-run). */
    uint64_t circuits_verified = 0;
    /** Submissions rejected by the static verifier (verify=kReject). */
    uint64_t verify_rejected = 0;
    uint64_t batches = 0;
    /** Fused circuit jobs completed. */
    uint64_t circuits_completed = 0;
    /** Circuit nodes executed inside completed circuit jobs. */
    uint64_t circuit_nodes_completed = 0;
    /** Times a worker re-pointed its coprocessor at another tenant's
     *  key sets. */
    uint64_t key_swaps = 0;
    /** Resident-cache cold runs (pinned operands uploaded). */
    uint64_t resident_cold_runs = 0;
    /** Resident-cache warm runs (pinned operand upload skipped). */
    uint64_t resident_warm_runs = 0;
    /** Summed coprocessor compute cycles (dispatch included). */
    hw::Cycle fpga_cycles = 0;
    /** fpga_cycles bucketed by functional unit (index by hw::Unit);
     *  sums exactly to fpga_cycles for the jobs that reported unit
     *  attribution. */
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    /** Summed key-load DMA time (every kKeyLoad burst: relinearization
     *  and Galois keys). */
    double dma_us = 0.0;
    /** Modeled Arm-side operand/result transfer time. */
    double host_us = 0.0;
    /** Time the shared DMA engine was held (us): operand uploads, key
     *  loads and result downloads of every dispatched job. */
    double dma_busy_us = 0.0;
    /** Modeled makespan: the latest worker's last completion (us). */
    double makespan_us = 0.0;
    /** Per-tenant slices, indexed by TenantId. */
    std::vector<TenantStats> tenants;

    hw::Cycle
    unitCycles(hw::Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }

    /** Fraction of the makespan the shared DMA engine was busy. */
    double
    dmaUtilization() const
    {
        return makespan_us > 0.0 ? dma_busy_us / makespan_us : 0.0;
    }

    /** Modeled service throughput (ops/s of the simulated hardware). */
    double
    modeledOpsPerSecond() const
    {
        return makespan_us > 0.0
                   ? static_cast<double>(ops_completed) / makespan_us * 1e6
                   : 0.0;
    }
};

/** Modeled per-job latency distribution (see latency()). Quantiles are
 *  histogram estimates (obs::Histogram::quantile over exponential
 *  buckets), not exact order statistics. */
struct LatencySnapshot
{
    size_t samples = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double mean_us = 0.0;
    double max_us = 0.0;
};

/** One-lock view of the service: aggregate stats, the latency
 *  distribution and the instantaneous queue depth captured under a
 *  single mutex acquisition, so the fields are mutually consistent
 *  (stats().ops_completed and latency().samples taken separately can
 *  disagree when workers retire batches in between). */
struct ServiceSnapshot
{
    ServiceStats stats;
    LatencySnapshot latency;
    size_t queue_depth = 0;
};

/**
 * The execution service. Construction compiles the two
 * single-operation circuits and spawns the worker pool; each worker
 * owns one hw::Coprocessor, whose memory file a job's slot log
 * addresses directly, so any compiled circuit dispatches to any worker
 * and submission never blocks on hardware setup.
 *
 * Thread safety: submit*(), registerTenant(), pinInput(), drain(),
 * shutdown() and stats() may be called concurrently from any number of
 * client threads.
 */
class ExecutionService
{
  public:
    /**
     * @param params FV parameter set (shared, immutable).
     * @param rlk relinearization keys (kRnsDigits kind — what the HPS
     *        coprocessor's key-load schedule consumes). Registered as
     *        the kDefaultTenant session.
     * @param config service tunables.
     */
    ExecutionService(std::shared_ptr<const fv::FvParams> params,
                     fv::RelinKeys rlk, ServiceConfig config = {});

    /**
     * As above, plus Galois key-switching keys for the default
     * session — required before any circuit with rotation nodes can be
     * submitted under it (submitCompiled rejects circuits whose Galois
     * elements the submitting session does not hold).
     */
    ExecutionService(std::shared_ptr<const fv::FvParams> params,
                     fv::RelinKeys rlk, fv::GaloisKeys gkeys,
                     ServiceConfig config = {});

    /** Shuts down (failing queued jobs) and joins the workers. */
    ~ExecutionService();

    ExecutionService(const ExecutionService &) = delete;
    ExecutionService &operator=(const ExecutionService &) = delete;

    /**
     * Register a tenant session with its own key sets. Key-set shape
     * is validated here (kRnsDigits, digit count, per-element Galois
     * keys) so workers never see malformed keys. @p weight biases the
     * fair dequeue: a weight-2 tenant gets up to twice the jobs per
     * round-robin turn of a weight-1 tenant.
     *
     * @return the session id to pass to the tenant-qualified submits.
     */
    TenantId registerTenant(std::string name, fv::RelinKeys rlk,
                            fv::GaloisKeys gkeys = {},
                            uint32_t weight = 1);

    /**
     * Pin a ciphertext in @p tenant's resident-operand store. Pinned
     * operands are referenced by handle in submitCompiledResident and
     * cached in a worker's coprocessor memory file across requests —
     * the "hot database" half of a PIR or matvec workload. The
     * ciphertext itself stays host-side owned by the service; workers
     * upload it at most once per (circuit, handle-set) change.
     */
    PinnedHandle pinInput(TenantId tenant, fv::Ciphertext ct);

    /**
     * Enqueue one operation on two size-2 ciphertexts under the
     * default session; it runs as the cached one-node circuit of @p op.
     * Shape errors (wrong element count, base, or degree) throw
     * FatalError synchronously; a stopped service throws
     * ServiceStoppedError; a full tenant queue throws
     * ServiceOverloadedError. Single operations skip noise admission.
     *
     * @return future resolving to the result ciphertext.
     */
    std::future<fv::Ciphertext> submit(Op op, fv::Ciphertext a,
                                       fv::Ciphertext b);

    /** Tenant-qualified submit. @p arrival_us, when non-negative, is
     *  the job's modeled arrival time for open-loop load generation:
     *  the executing worker starts it no earlier than that point of
     *  its modeled clock, and the recorded latency (see latency()) is
     *  completion minus arrival. */
    std::future<fv::Ciphertext> submit(TenantId tenant, Op op,
                                       fv::Ciphertext a,
                                       fv::Ciphertext b,
                                       double arrival_us = -1.0);

    /**
     * Enqueue a whole circuit as one fused job under the default
     * session: compiled immediately with ServiceConfig::compiler
     * (malformed circuits and parameter-set mismatches throw
     * synchronously), then executes on one worker's coprocessor as
     * fused programs. Results are bit-exact with fv::Evaluator run
     * op-by-op.
     *
     * @return future resolving to the output ciphertexts, in the
     *         circuit's output order.
     */
    std::future<std::vector<fv::Ciphertext>> submitCircuit(
        const compiler::Circuit &circuit,
        std::vector<fv::Ciphertext> inputs);

    /** Tenant-qualified submitCircuit (see submit for @p arrival_us).
     *  Under admission == kReject a noise-exhausted circuit is retried
     *  with auto_mod_switch re-leveling (admission_relevel) before
     *  AdmissionRejectedError is thrown. */
    std::future<std::vector<fv::Ciphertext>> submitCircuit(
        TenantId tenant, const compiler::Circuit &circuit,
        std::vector<fv::Ciphertext> inputs, double arrival_us = -1.0);

    /**
     * Enqueue an already-compiled circuit under the default session
     * (compile once with compiler::compileCircuit, submit many times).
     * The compiled program must target this service's parameter set
     * and hardware configuration.
     */
    std::future<std::vector<fv::Ciphertext>> submitCompiled(
        std::shared_ptr<const compiler::CompiledCircuit> compiled,
        std::vector<fv::Ciphertext> inputs);

    /** Tenant-qualified submitCompiled (see submit for @p arrival_us). */
    std::future<std::vector<fv::Ciphertext>> submitCompiled(
        TenantId tenant,
        std::shared_ptr<const compiler::CompiledCircuit> compiled,
        std::vector<fv::Ciphertext> inputs, double arrival_us = -1.0);

    /**
     * Enqueue a circuit compiled with
     * compiler::CompilerOptions::resident_inputs, binding each
     * resident input position to one of @p tenant's pinned handles.
     * @p request_inputs supplies the remaining inputs in position
     * order (resident positions skipped). A worker whose coprocessor
     * already holds this exact (tenant, circuit, handles) cache runs
     * warm — the pinned operands are not re-uploaded; any other worker
     * state triggers a cold run that uploads and pins them. Results
     * are bit-identical either way.
     */
    std::future<std::vector<fv::Ciphertext>> submitCompiledResident(
        TenantId tenant,
        std::shared_ptr<const compiler::CompiledCircuit> compiled,
        std::span<const PinnedHandle> resident_handles,
        std::vector<fv::Ciphertext> request_inputs,
        double arrival_us = -1.0);

    /** Release the workers of a start_paused service. Idempotent. */
    void start();

    /** Block until the queue is empty and no batch is in flight. */
    void drain();

    /**
     * Stop intake, finish in-flight batches, join the workers and fail
     * every still-queued future with ServiceStoppedError. Idempotent.
     */
    void shutdown();

    /** @return true once shutdown() has begun. */
    bool stopped() const;

    /** @return configured worker count. */
    size_t workerCount() const { return config_.workers; }

    /** @return registered tenant count. */
    size_t tenantCount() const;

    /** @return jobs no worker thread has started yet (excludes
     *  in-flight batches). */
    size_t queueDepth() const;

    /** @return a snapshot of the aggregate statistics. Equivalent to
     *  snapshot().stats — use snapshot() when stats and latency must
     *  agree with each other. */
    ServiceStats stats() const;

    /** @return the modeled per-job latency distribution so far. Jobs
     *  submitted without an arrival timestamp contribute their pure
     *  service time. Equivalent to snapshot().latency. */
    LatencySnapshot latency() const;

    /** @return stats, latency and queue depth captured under ONE lock
     *  acquisition — the mutually consistent view. */
    ServiceSnapshot snapshot() const;

    /** The service's metrics registry: queue-depth gauge, per-tenant
     *  arrival/shed/admission counters, the latency histogram.
     *  Render with obs::Registry::renderText() or feed
     *  Registry::samples() to the bench JSON reporter. */
    const obs::Registry &metrics() const { return metrics_; }
    obs::Registry &metrics() { return metrics_; }

    /** @return the service configuration. */
    const ServiceConfig &config() const { return config_; }

  private:
    struct Job;

    /** One tenant's session: immutable key sets plus the mu_-guarded
     *  queue and pinned-operand store. Stored in a deque so worker
     *  threads can hold stable pointers across registrations. */
    struct Session
    {
        TenantId id = 0;
        std::string name;
        uint32_t weight = 1;
        fv::RelinKeys rlk;
        fv::GaloisKeys gkeys;
        /** Pinned resident operands, indexed by PinnedHandle (mu_). */
        std::vector<std::shared_ptr<const fv::Ciphertext>> pinned;
        /** This tenant's FIFO of jobs not yet dispatched (mu_). */
        std::deque<Job> queue;
        /** Jobs no worker thread has started yet: the undispatched
         *  queue plus dispatched batches still waiting (mu_). */
        size_t queued = 0;

        /** This tenant's slice of the statistics (mu_). */
        TenantStats stats;

        // --- registry handles (stable; created at registration) -------
        obs::Counter *arrivals_ctr = nullptr;
        obs::Counter *shed_ctr = nullptr;
        obs::Counter *admission_rejected_ctr = nullptr;
        obs::Counter *completed_ctr = nullptr;
    };

    /** Admission cache entry of one compiled circuit object. */
    struct CircuitEntry
    {
        /** Witness: an address reused by a new allocation fails it. */
        std::weak_ptr<const compiler::CompiledCircuit> circuit;
        /** Cleared by the static verifier under this service's policy. */
        bool verified = false;
        std::shared_ptr<const compiler::CircuitAttribution> price;
    };

    /** What a coprocessor's pinned memory-file prefix holds. The
     *  shared_ptr keeps the circuit alive so pointer identity cannot
     *  alias a freed one. */
    struct ResidentCache
    {
        std::shared_ptr<const compiler::CompiledCircuit> circuit;
        const Session *session = nullptr;
        std::vector<PinnedHandle> handles;

        bool operator==(const ResidentCache &) const = default;
    };

    struct Job
    {
        /** Owning session (stable pointer into sessions_). */
        Session *session = nullptr;
        /** Modeled arrival time; negative = untimed submission. */
        double arrival_us = -1.0;
        /** Submission order (names the job in trace spans). */
        uint64_t seq = 0;

        /** Set for a submit(Op) job, which runs the op's one-node
         *  circuit and resolves `promise`; circuit jobs resolve
         *  `circuit_promise`. */
        std::optional<Op> op;
        std::promise<fv::Ciphertext> promise;

        std::shared_ptr<const compiler::CompiledCircuit> circuit;
        std::shared_ptr<const compiler::CircuitAttribution> price;
        /** All inputs (plain circuit job), or only the non-resident
         *  request inputs (resident job). */
        std::vector<fv::Ciphertext> circuit_inputs;
        std::promise<std::vector<fv::Ciphertext>> circuit_promise;

        /** Resident job: pinned operands (one per
         *  circuit->resident_inputs entry) and their handles — the
         *  worker-side cache identity. */
        std::vector<std::shared_ptr<const fv::Ciphertext>>
            resident_operands;
        std::vector<PinnedHandle> resident_handles;
        bool resident = false;

        /** Set by the engine at dispatch: modeled start, and whether
         *  the worker's pinned prefix already holds this job's
         *  resident operands (a warm run). */
        double start_us = 0.0;
        bool warm = false;

        const compiler::RunPrice &
        runPrice() const
        {
            return warm ? price->warm : price->cold;
        }

        /** Modeled busy time of the run, DMA waits excluded. */
        double
        busyUs() const
        {
            return runPrice().totals.modeledUs(circuit->hw);
        }

        /** Batch ordering key: group per-op kinds, then plain
         *  circuits, resident circuits last (so a cold run's pins
         *  survive into the next batch). */
        int
        sortKey() const
        {
            if (op)
                return *op == Op::kAdd ? 0 : 1;
            return resident ? 3 : 2;
        }

        /** Fail this job's pending future with @p error. */
        void
        fail(const std::exception_ptr &error)
        {
            if (op)
                promise.set_exception(error);
            else
                circuit_promise.set_exception(error);
        }
    };

    /** A placed span of a job, ending at end_us inside spans[parent]. */
    struct PendingSpan
    {
        obs::SpanRecord span;
        double end_us = 0.0;
        size_t parent = 0;
    };

    /**
     * One worker: its place on the modeled clock and its batch in
     * simulation (engine state, mu_), its dispatched batches no thread
     * has started (mu_), and its simulated coprocessor (owned by the
     * thread that set `running`).
     */
    struct Lane
    {
        size_t index = 0;

        // --- engine (mu_) ---------------------------------------------
        /** Modeled time of this worker's next event. */
        double now_us = 0.0;
        /** Key set the modeled coprocessor has attached. */
        const Session *keys = nullptr;
        /** Pinned prefix of the modeled coprocessor. */
        ResidentCache cache;
        /** Batch being simulated: current job and phase, and the
         *  job's DMA waits so far. */
        std::vector<Job> batch;
        size_t job = 0;
        size_t phase = 0;
        double waited_us = 0.0;
        /** Traced: the job's spans (its request first) until it
         *  finishes, and its open "program" span (0: none). */
        std::vector<PendingSpan> spans;
        size_t program = 0;

        // --- host (mu_) -----------------------------------------------
        std::deque<std::vector<Job>> pending;
        bool running = false;

        // --- hardware (the worker thread holding `running`) -----------
        std::optional<hw::Coprocessor> cp;
        const Session *attached = nullptr;
    };

    Session &session(TenantId tenant);
    void checkCompiled(const Session &s,
                       const compiler::CompiledCircuit &compiled) const;
    /** Noise-aware admission verdict for @p compiled (may throw). */
    void admit(Session &s, const compiler::CompiledCircuit &compiled);
    /** Static-verification admission verdict (see ServiceConfig::
     *  verify; may throw AdmissionRejectedError) and the circuit's
     *  modeled price, both cached per compiled object. */
    std::shared_ptr<const compiler::CircuitAttribution> admitCircuit(
        const std::shared_ptr<const compiler::CompiledCircuit> &compiled);
    void enqueue(Session &s, Job job);

    // --- modeled-time engine (mu_) ------------------------------------
    /** Run the engine until no worker can advance: dispatch queued
     *  jobs and simulate every dispatched batch. */
    void dispatchLocked();
    /** Fill @p lane's batch at its modeled time. */
    void formBatch(Lane &lane);
    /** Advance @p lane by one phase of its current job. */
    void stepLane(Lane &lane);
    /** Trace @p ph, which @p lane requested at @p request_us, was
     *  granted the DMA at @p grant_us, and ended at lane.now_us. */
    void tracePhase(Lane &lane, const Job &job,
                    const compiler::RunPhase &ph, double request_us,
                    double grant_us);
    /** @return the first moment at or after @p request_us the DMA
     *  engine is free for @p us. */
    double firstFreeDma(double request_us, double us) const;
    /** Reserve the DMA engine over [@p start_us, @p end_us). */
    void holdDma(double start_us, double end_us);
    void finishJob(Lane &lane, Job &job);

    void workerLoop();
    /** Execute @p batch on @p host's coprocessor (outside mu_). */
    void runBatch(Lane &host, std::vector<Job> &batch);

    std::shared_ptr<const fv::FvParams> params_;
    ServiceConfig config_;
    /** The one-node circuits submit(Op) runs, indexed by Op; compiled
     *  once at construction. */
    std::array<std::shared_ptr<const compiler::CompiledCircuit>, 2>
        op_circuits_;

    mutable std::mutex mu_;
    /** Serializes concurrent shutdown() calls (thread join phase). */
    std::mutex shutdown_mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    /** Tenant sessions; deque for stable element addresses (mu_ for
     *  registration and queue access; key sets are immutable). */
    std::deque<Session> sessions_;
    /** Weighted round-robin dequeue cursor (mu_). */
    size_t rr_cursor_ = 0;
    /** Jobs in the sessions' undispatched queues (mu_). */
    size_t undispatched_ = 0;
    /** Jobs no worker thread has started yet (mu_). */
    size_t queued_total_ = 0;
    size_t in_flight_ = 0;
    /** Next Job::seq (mu_). */
    uint64_t next_seq_ = 0;
    bool started_ = true;
    bool stopping_ = false;
    ServiceStats stats_;
    /** Compiled circuits admitted so far, keyed by object address
     *  (mu_). */
    std::unordered_map<const compiler::CompiledCircuit *, CircuitEntry>
        circuits_;
    /** The workers; deque for stable element addresses (mu_ except
     *  where Lane says otherwise). */
    std::deque<Lane> lanes_;
    /** The shared DMA engine's reservations: disjoint busy intervals
     *  [start, end) keyed by start (mu_). */
    std::map<double, double> dma_busy_;

    /** Metrics registry (declared before any session registration can
     *  mint counter handles from it). Individually thread-safe. */
    obs::Registry metrics_;
    obs::Gauge *queue_depth_gauge_ = nullptr;
    /** Modeled per-job latency distribution; replaces the old
     *  retain-and-sort sample vector (unbounded memory, O(n log n)
     *  every latency() call) with fixed exponential buckets. */
    obs::Histogram *latency_hist_ = nullptr;

    /** Last member: threads must not outlive anything they touch. */
    std::vector<std::thread> threads_;
};

} // namespace heat::service

#endif // HEAT_SERVICE_SERVICE_H
