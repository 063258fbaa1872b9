#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "hw/coprocessor.h"
#include "obs/trace.h"
#include "verify/verify.h"

namespace heat::service {

ExecutionService::ExecutionService(
    std::shared_ptr<const fv::FvParams> params, fv::RelinKeys rlk,
    ServiceConfig config)
    : ExecutionService(std::move(params), std::move(rlk),
                       fv::GaloisKeys{}, config)
{
}

ExecutionService::ExecutionService(
    std::shared_ptr<const fv::FvParams> params, fv::RelinKeys rlk,
    fv::GaloisKeys gkeys, ServiceConfig config)
    : params_(std::move(params)), config_(config)
{
    fatalIf(config_.workers == 0, "service needs at least one worker");
    fatalIf(config_.max_batch == 0, "max_batch must be at least 1");
    // Compiled programs must fit the workers' memory files whatever
    // the caller left in the compiler options.
    config_.compiler.hw = config_.hw;

    // Registry handles before any session registration can mint
    // per-tenant counters. 26 exponential buckets cover 1us..33.5s of
    // modeled latency.
    queue_depth_gauge_ = &metrics_.gauge(
        "heat_service_queue_depth",
        "jobs currently queued across all tenants");
    latency_hist_ = &metrics_.histogram(
        "heat_service_latency_us",
        obs::Histogram::exponentialBounds(1.0, 2.0, 26),
        "modeled per-job latency (us)");

    registerSession("default", std::move(rlk), std::move(gkeys),
                    /*weight=*/1);

    // Compile the single-op circuits once; this also proves each fits
    // the memory file before any worker starts. They are level-0 slot
    // schedules with no rotations, so any session's keys work; the
    // configured compiler options are not applied, so a served op
    // always returns a level-0 ciphertext. Admission verifies each on
    // its first submission, like any other compiled circuit.
    for (const Op op : {Op::kAdd, Op::kMult}) {
        op_circuits_[static_cast<size_t>(op)] =
            std::make_shared<const compiler::CompiledCircuit>(
                compiler::compileOpCircuit(params_,
                                           op == Op::kAdd
                                               ? compiler::NodeKind::kAdd
                                               : compiler::NodeKind::kMult,
                                           config_.hw));
    }

    started_ = !config_.start_paused;
    worker_clock_us_.assign(config_.workers, 0.0);
    threads_.reserve(config_.workers);
    for (size_t w = 0; w < config_.workers; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ExecutionService::~ExecutionService()
{
    shutdown();
}

TenantId
ExecutionService::registerTenant(std::string name, fv::RelinKeys rlk,
                                 fv::GaloisKeys gkeys, uint32_t weight)
{
    return registerSession(std::move(name), std::move(rlk),
                           std::move(gkeys), weight);
}

TenantId
ExecutionService::registerSession(std::string name, fv::RelinKeys rlk,
                                  fv::GaloisKeys gkeys, uint32_t weight)
{
    fatalIf(weight == 0, "tenant weight must be at least 1");
    fatalIf(rlk.kind != fv::DecompKind::kRnsDigits,
            "the coprocessor key-load schedule needs kRnsDigits "
            "relinearization keys");
    fatalIf(rlk.digitCount() != params_->rnsDigitCount(),
            "relinearization keys do not match the parameter set");
    for (const auto &[g, key] : gkeys.keys) {
        fatalIf(key.kind != fv::DecompKind::kRnsDigits ||
                    key.digitCount() != params_->rnsDigitCount(),
                "Galois key for element ", g,
                " does not match the parameter set");
    }
    const uint64_t fingerprint =
        rlk.fingerprint() ^ (gkeys.fingerprint() * 0x9e3779b97f4a7c15ull);

    // Mint the per-tenant counter handles before taking mu_ (the
    // registry has its own mutex; keeping the acquisitions disjoint
    // makes the lock order trivial). Tenants sharing a name share the
    // Prometheus series — same label, same series.
    const std::string label = "{tenant=\"" + name + "\"}";
    obs::Counter &arrivals =
        metrics_.counter("heat_service_jobs_arrived_total" + label,
                         "jobs enqueued (single ops and circuits)");
    obs::Counter &shed =
        metrics_.counter("heat_service_jobs_shed_total" + label,
                         "submissions shed by the bounded tenant queue");
    obs::Counter &rejected = metrics_.counter(
        "heat_service_admission_rejected_total" + label,
        "circuits rejected by noise-aware admission control");
    obs::Counter &completed =
        metrics_.counter("heat_service_jobs_completed_total" + label,
                         "jobs whose future resolved with a result");

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_)
        throw ServiceStoppedError("registerTenant after shutdown");
    Session s;
    s.id = static_cast<TenantId>(sessions_.size());
    s.name = std::move(name);
    s.weight = weight;
    s.rlk = std::move(rlk);
    s.gkeys = std::move(gkeys);
    s.key_fingerprint = fingerprint;
    s.arrivals_ctr = &arrivals;
    s.shed_ctr = &shed;
    s.admission_rejected_ctr = &rejected;
    s.completed_ctr = &completed;
    sessions_.push_back(std::move(s));
    return sessions_.back().id;
}

ExecutionService::Session &
ExecutionService::session(TenantId tenant)
{
    std::lock_guard<std::mutex> lock(mu_);
    fatalIf(tenant >= sessions_.size(), "unknown tenant id ", tenant,
            " (", sessions_.size(), " sessions registered)");
    return sessions_[tenant];
}

size_t
ExecutionService::tenantCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
}

PinnedHandle
ExecutionService::pinInput(TenantId tenant, fv::Ciphertext ct)
{
    compiler::validateInput(*params_, ct);
    Session &s = session(tenant);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_)
        throw ServiceStoppedError("pinInput after shutdown");
    s.pinned.push_back(
        std::make_shared<const fv::Ciphertext>(std::move(ct)));
    return static_cast<PinnedHandle>(s.pinned.size() - 1);
}

std::future<fv::Ciphertext>
ExecutionService::submit(Op op, fv::Ciphertext a, fv::Ciphertext b)
{
    return submit(kDefaultTenant, op, std::move(a), std::move(b));
}

std::future<fv::Ciphertext>
ExecutionService::submit(TenantId tenant, Op op, fv::Ciphertext a,
                         fv::Ciphertext b, double arrival_us)
{
    Session &s = session(tenant);
    const auto &circuit = op_circuits_[static_cast<size_t>(op)];
    verifySubmission(circuit);
    compiler::validateInput(*params_, a);
    compiler::validateInput(*params_, b);

    Job job;
    job.session = &s;
    job.arrival_us = arrival_us;
    job.op = op;
    job.circuit = circuit;
    job.circuit_inputs.reserve(2);
    job.circuit_inputs.push_back(std::move(a));
    job.circuit_inputs.push_back(std::move(b));
    std::future<fv::Ciphertext> future = job.promise.get_future();
    enqueue(s, std::move(job));
    return future;
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::submitCircuit(const compiler::Circuit &circuit,
                                std::vector<fv::Ciphertext> inputs)
{
    return submitCircuit(kDefaultTenant, circuit, std::move(inputs));
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::submitCircuit(TenantId tenant,
                                const compiler::Circuit &circuit,
                                std::vector<fv::Ciphertext> inputs,
                                double arrival_us)
{
    // Compile on the submitting thread: structural errors surface
    // synchronously, and workers only replay the deterministic slot
    // schedule (the compiled program is dispatchable to any of them).
    // The noise verdict is the admission policy's to deliver, not the
    // compiler's — so the compile-time check is off here.
    compiler::CompilerOptions options = config_.compiler;
    options.hw = config_.hw;
    options.noise_check = compiler::NoiseCheck::kOff;
    // Same division of labor for the static verifier: admission runs
    // it (verifySubmission) with this service's policy and cache, so
    // the compile-time pass would only duplicate the work.
    options.verify = compiler::VerifyCheck::kOff;
    options.resident_inputs.clear();
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params_, circuit, options));

    // Re-level before rejecting: the automatic level assignment often
    // rescues depth-heavy circuits (fewer live primes per deep value)
    // at no accuracy cost. Only worth a second compile when admission
    // would otherwise throw.
    if (config_.admission == compiler::NoiseCheck::kReject &&
        config_.admission_relevel && !options.auto_mod_switch &&
        compiled->noise_exhausted_node != compiler::kNoValue) {
        options.auto_mod_switch = true;
        auto releveled =
            std::make_shared<const compiler::CompiledCircuit>(
                compiler::compileCircuit(params_, circuit, options));
        if (releveled->noise_exhausted_node == compiler::kNoValue) {
            compiled = std::move(releveled);
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.admission_releveled;
        }
    }
    return submitCompiled(tenant, std::move(compiled), std::move(inputs),
                          arrival_us);
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::submitCompiled(
    std::shared_ptr<const compiler::CompiledCircuit> compiled,
    std::vector<fv::Ciphertext> inputs)
{
    return submitCompiled(kDefaultTenant, std::move(compiled),
                          std::move(inputs));
}

void
ExecutionService::checkCompiled(
    const Session &s, const compiler::CompiledCircuit &compiled) const
{
    const fv::FvConfig &theirs = compiled.params->config();
    const fv::FvConfig &ours = params_->config();
    fatalIf(theirs.degree != ours.degree ||
                theirs.plain_modulus != ours.plain_modulus ||
                theirs.q_prime_count != ours.q_prime_count ||
                theirs.prime_bits != ours.prime_bits,
            "compiled circuit targets a different parameter set");
    fatalIf(!(compiled.hw == config_.hw),
            "compiled circuit targets a different hardware "
            "configuration than this service's workers");
    for (uint32_t g : compiled.galois_elements)
        fatalIf(!s.gkeys.has(g),
                "circuit rotates with Galois element ", g,
                " but tenant '", s.name,
                "' holds no key for it (register the session with the "
                "circuit's Galois keys)");
}

void
ExecutionService::admit(Session &s,
                        const compiler::CompiledCircuit &compiled)
{
    if (config_.admission == compiler::NoiseCheck::kOff ||
        compiled.noise_exhausted_node == compiler::kNoValue)
        return;
    const compiler::ValueId node = compiled.noise_exhausted_node;
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "predicted noise budget exhausted at node %u (%s): "
                  "%.1f bits remaining there, %.1f bits at the worst "
                  "output",
                  node,
                  compiler::nodeKindName(
                      compiled.circuit.nodes[node].kind),
                  compiled.noise_budget_bits[node],
                  compiled.min_output_noise_budget_bits);
    if (config_.admission == compiler::NoiseCheck::kReject) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.admission_rejected;
            ++s.admission_rejected;
        }
        s.admission_rejected_ctr->add();
        throw AdmissionRejectedError(
            std::string("admission rejected: ") + detail +
            "; lower the circuit depth or submit through submitCircuit "
            "so re-leveling can try to rescue it");
    }
    std::fprintf(stderr, "ExecutionService: warning: %s\n", detail);
}

void
ExecutionService::verifySubmission(
    const std::shared_ptr<const compiler::CompiledCircuit> &compiled)
{
    if (config_.verify == compiler::VerifyCheck::kOff)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = verified_.find(compiled.get());
        if (it != verified_.end() &&
            it->second.lock().get() == compiled.get())
            return; // this exact object already passed
    }
    const verify::VerifyResult result =
        verify::verifyCompiledCircuit(*compiled);
    if (!result.ok()) {
        if (config_.verify == compiler::VerifyCheck::kReject) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.verify_rejected;
            }
            throw AdmissionRejectedError(
                "admission rejected: compiled circuit failed static "
                "verification\n" +
                result.report());
        }
        std::fprintf(stderr,
                     "ExecutionService: warning: static verifier: %s",
                     result.report().c_str());
        return; // a warned circuit stays uncached: resubmits re-warn
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.circuits_verified;
    if (verified_.size() >= 256) {
        // Drop witnesses whose circuit objects are gone (their
        // addresses may be reused by unrelated allocations).
        for (auto it = verified_.begin(); it != verified_.end();)
            it = it->second.expired() ? verified_.erase(it)
                                      : std::next(it);
    }
    verified_[compiled.get()] = compiled;
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::submitCompiled(
    TenantId tenant,
    std::shared_ptr<const compiler::CompiledCircuit> compiled,
    std::vector<fv::Ciphertext> inputs, double arrival_us)
{
    fatalIf(compiled == nullptr, "submitCompiled needs a circuit");
    Session &s = session(tenant);
    checkCompiled(s, *compiled);
    verifySubmission(compiled);
    fatalIf(!compiled->resident_inputs.empty(),
            "circuit was compiled with resident inputs — submit it "
            "through submitCompiledResident with the pinned handles");
    fatalIf(inputs.size() != compiled->inputs.size(),
            "circuit expects ", compiled->inputs.size(), " inputs, got ",
            inputs.size());
    for (const fv::Ciphertext &ct : inputs)
        compiler::validateInput(*params_, ct);
    admit(s, *compiled);

    Job job;
    job.session = &s;
    job.arrival_us = arrival_us;
    job.circuit = std::move(compiled);
    job.circuit_inputs = std::move(inputs);
    return enqueueCircuit(std::move(job));
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::submitCompiledResident(
    TenantId tenant,
    std::shared_ptr<const compiler::CompiledCircuit> compiled,
    std::span<const PinnedHandle> resident_handles,
    std::vector<fv::Ciphertext> request_inputs, double arrival_us)
{
    fatalIf(compiled == nullptr, "submitCompiledResident needs a circuit");
    Session &s = session(tenant);
    checkCompiled(s, *compiled);
    verifySubmission(compiled);
    fatalIf(compiled->resident_inputs.empty(),
            "circuit has no resident inputs — compile it with "
            "CompilerOptions::resident_inputs, or use submitCompiled");
    fatalIf(resident_handles.size() != compiled->resident_inputs.size(),
            "circuit has ", compiled->resident_inputs.size(),
            " resident inputs, got ", resident_handles.size(),
            " pinned handles");
    fatalIf(request_inputs.size() + resident_handles.size() !=
                compiled->inputs.size(),
            "circuit expects ",
            compiled->inputs.size() - resident_handles.size(),
            " request inputs, got ", request_inputs.size());
    for (const fv::Ciphertext &ct : request_inputs)
        compiler::validateInput(*params_, ct);
    admit(s, *compiled);

    Job job;
    job.session = &s;
    job.arrival_us = arrival_us;
    job.circuit = std::move(compiled);
    job.circuit_inputs = std::move(request_inputs);
    job.resident = true;
    job.resident_handles.assign(resident_handles.begin(),
                                resident_handles.end());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (PinnedHandle h : resident_handles) {
            fatalIf(h >= s.pinned.size(), "unknown pinned handle ", h,
                    " for tenant '", s.name, "' (", s.pinned.size(),
                    " pinned)");
            job.resident_operands.push_back(s.pinned[h]);
        }
    }
    return enqueueCircuit(std::move(job));
}

std::future<std::vector<fv::Ciphertext>>
ExecutionService::enqueueCircuit(Job job)
{
    std::future<std::vector<fv::Ciphertext>> future =
        job.circuit_promise.get_future();
    Session &s = *job.session;
    enqueue(s, std::move(job));
    return future;
}

void
ExecutionService::enqueue(Session &s, Job job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            throw ServiceStoppedError("submit after shutdown");
        if (config_.max_queue_per_tenant > 0 &&
            s.queue.size() >= config_.max_queue_per_tenant) {
            ++stats_.ops_shed;
            ++s.shed;
            s.shed_ctr->add();
            throw ServiceOverloadedError(
                "tenant '" + s.name + "' queue is full (" +
                std::to_string(s.queue.size()) + " of " +
                std::to_string(config_.max_queue_per_tenant) +
                " jobs queued) — shedding load, retry later");
        }
        s.queue.push_back(std::move(job));
        ++s.arrivals;
        s.arrivals_ctr->add();
        ++queued_total_;
        queue_depth_gauge_->set(static_cast<double>(queued_total_));
    }
    work_cv_.notify_one();
}

void
ExecutionService::start()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        started_ = true;
    }
    work_cv_.notify_all();
}

void
ExecutionService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
        return (queued_total_ == 0 && in_flight_ == 0) || stopping_;
    });
}

void
ExecutionService::shutdown()
{
    // Serializes concurrent shutdown() callers: the join phase below
    // must run once; later callers block here until it finished.
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
    std::deque<Job> orphans;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        for (Session &s : sessions_) {
            while (!s.queue.empty()) {
                orphans.push_back(std::move(s.queue.front()));
                s.queue.pop_front();
            }
        }
        queued_total_ = 0;
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
    for (std::thread &t : threads_) {
        if (t.joinable())
            t.join();
    }
    if (!orphans.empty()) {
        auto stopped = std::make_exception_ptr(
            ServiceStoppedError("service shut down before execution"));
        for (Job &job : orphans)
            job.fail(stopped);
        std::lock_guard<std::mutex> lock(mu_);
        stats_.ops_rejected += orphans.size();
    }
}

bool
ExecutionService::stopped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stopping_;
}

size_t
ExecutionService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queued_total_;
}

ServiceStats
ExecutionService::stats() const
{
    return snapshot().stats;
}

LatencySnapshot
ExecutionService::latency() const
{
    return snapshot().latency;
}

LatencySnapshot
ExecutionService::latencyFromHistogram() const
{
    LatencySnapshot snap;
    const obs::Histogram &h = *latency_hist_;
    snap.samples = h.count();
    if (snap.samples == 0)
        return snap;
    snap.p50_us = h.quantile(0.50);
    snap.p99_us = h.quantile(0.99);
    snap.mean_us = h.mean();
    snap.max_us = h.max();
    return snap;
}

ServiceSnapshot
ExecutionService::snapshot() const
{
    ServiceSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.stats = stats_;
    snap.stats.makespan_us = worker_clock_us_.empty()
                                 ? 0.0
                                 : *std::max_element(
                                       worker_clock_us_.begin(),
                                       worker_clock_us_.end());
    snap.stats.tenants.reserve(sessions_.size());
    for (const Session &s : sessions_) {
        TenantStats t;
        t.name = s.name;
        t.arrivals = s.arrivals;
        t.shed = s.shed;
        t.admission_rejected = s.admission_rejected;
        t.completed = s.completed;
        t.failed = s.failed;
        t.unit_cycles = s.unit_cycles;
        snap.stats.tenants.push_back(std::move(t));
    }
    snap.queue_depth = queued_total_;
    // Workers observe latencies into the histogram before they take
    // mu_ to retire the batch, so under the lock samples >= the
    // completed counts — the invariant the snapshot test leans on.
    snap.latency = latencyFromHistogram();
    return snap;
}

void
ExecutionService::workerLoop(size_t worker_index)
{
    // Per-worker hardware instance. Every job is a compiled circuit:
    // the run reprograms the memory file and replays the circuit's
    // slot log (the warm resident path keeps the pinned prefix). Key
    // sets are attached per job (attachKeys re-points the kKeyLoad
    // stream at the submitting session's DDR-resident keys).
    std::optional<hw::Coprocessor> cp;
    const Session *keys_attached = nullptr;
    uint64_t batch_key_swaps = 0;

    // Resident-cache state: which (circuit, session, handles) the
    // pinned memory-file prefix currently holds. The shared_ptr keeps
    // the circuit alive so pointer identity cannot alias a freed one.
    std::shared_ptr<const compiler::CompiledCircuit> cached_circuit;
    const Session *cached_session = nullptr;
    std::vector<PinnedHandle> cached_handles;

    const auto invalidate_cache = [&] {
        cached_circuit.reset();
        cached_session = nullptr;
        cached_handles.clear();
    };
    const auto rebuild = [&] {
        cp.emplace(params_, config_.hw, nullptr, nullptr);
        keys_attached = nullptr;
        invalidate_cache();
    };
    const auto attach = [&](Session *s) {
        if (keys_attached == s)
            return;
        cp->attachKeys(&s->rlk, &s->gkeys);
        if (keys_attached != nullptr)
            ++batch_key_swaps;
        keys_attached = s;
    };
    rebuild();
    // Worker-local modeled clock; mirrored to worker_clock_us_ under
    // mu_ after every batch (only this worker writes its entry).
    double my_clock = 0.0;
    // Modeled-time spans this worker emits land on their own trace
    // track, so per-worker timelines render as separate rows.
    obs::setTraceTrack(static_cast<uint32_t>(worker_index));

    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] {
                return stopping_ || (started_ && queued_total_ > 0);
            });
            if (queued_total_ == 0)
                return; // stopping, nothing left to do
            // Arrival-aware weighted dequeue: each turn drains up to
            // `weight` jobs from the non-empty tenant whose head job
            // has the earliest modeled arrival (untimed jobs, with
            // arrival_us < 0, sort first; ties rotate round-robin
            // from rr_cursor_). Serving near global arrival order
            // matters for the modeled clock — dequeuing one tenant
            // far ahead of the others' arrival frontier drags the
            // worker clock forward and every older job processed
            // afterwards inherits the inflated completion time. A
            // weight-w tenant still contributes up to w consecutive
            // jobs per turn, which is what bounds key swaps and cache
            // invalidations per batch, and under backlog gives it a
            // w-sized share of every batch.
            while (batch.size() < config_.max_batch &&
                   queued_total_ > 0) {
                size_t best = sessions_.size();
                double best_arrival = 0.0;
                for (size_t off = 0; off < sessions_.size(); ++off) {
                    const size_t i =
                        (rr_cursor_ + off) % sessions_.size();
                    const Session &c = sessions_[i];
                    if (c.queue.empty())
                        continue;
                    const double a = c.queue.front().arrival_us;
                    if (best == sessions_.size() || a < best_arrival) {
                        best = i;
                        best_arrival = a;
                    }
                }
                Session &s = sessions_[best];
                rr_cursor_ = (best + 1) % sessions_.size();
                const size_t take = std::min(
                    {static_cast<size_t>(s.weight),
                     config_.max_batch - batch.size(), s.queue.size()});
                for (size_t k = 0; k < take; ++k) {
                    batch.push_back(std::move(s.queue.front()));
                    s.queue.pop_front();
                    --queued_total_;
                }
            }
            in_flight_ += batch.size();
            queue_depth_gauge_->set(static_cast<double>(queued_total_));
        }
        // Group by session, then op kind (plain circuits after ops,
        // resident circuits last so a cold run's pins survive into
        // the next batch): the jobs are independent, and grouping
        // bounds key swaps and resident-cache invalidations.
        std::stable_sort(batch.begin(), batch.end(),
                         [](const Job &x, const Job &y) {
                             if (x.session->id != y.session->id)
                                 return x.session->id < y.session->id;
                             return x.sortKey() < y.sortKey();
                         });

        size_t batch_completed = 0;
        size_t batch_failed = 0;
        uint64_t batch_circuits = 0;
        uint64_t batch_circuit_nodes = 0;
        uint64_t batch_cold = 0;
        uint64_t batch_warm = 0;
        hw::Cycle batch_cycles = 0;
        std::array<hw::Cycle, hw::kUnitCount> batch_units{};
        double batch_dma_us = 0.0;
        double batch_host_us = 0.0;
        std::vector<double> batch_latencies;
        batch_latencies.reserve(batch.size());
        batch_key_swaps = 0;

        // Per-tenant deltas, applied to the sessions under mu_ when
        // the batch retires (batches are small, linear scan is fine).
        struct TenantDelta
        {
            Session *s;
            uint64_t completed = 0;
            uint64_t failed = 0;
            std::array<hw::Cycle, hw::kUnitCount> units{};
        };
        std::vector<TenantDelta> tenant_deltas;
        const auto delta_for = [&](Session *s) -> TenantDelta & {
            for (TenantDelta &d : tenant_deltas)
                if (d.s == s)
                    return d;
            tenant_deltas.push_back(TenantDelta{s});
            return tenant_deltas.back();
        };

        obs::Tracer *const tracer = obs::activeTracer();
        // Seed the thread-local modeled clock where this job's nested
        // hardware spans should start; the coprocessor advances it per
        // instruction while a tracer is installed.
        const auto begin_job = [&](const Job &job) {
            if (tracer == nullptr)
                return;
            double start = my_clock;
            if (job.arrival_us >= 0.0 && job.arrival_us > start)
                start = job.arrival_us;
            obs::setModeledNowUs(start);
        };

        // Advance the modeled clock past one finished job: open-loop
        // jobs wait for their arrival time, and their latency is
        // completion minus arrival; untimed jobs contribute service
        // time only.
        const auto finish_job = [&](const Job &job, double cost_us) {
            double start = my_clock;
            if (job.arrival_us >= 0.0 && job.arrival_us > start)
                start = job.arrival_us;
            if (tracer != nullptr) {
                if (job.arrival_us >= 0.0 && start > job.arrival_us)
                    obs::recordModeledSpan(
                        "queue-wait", "service", job.arrival_us,
                        start - job.arrival_us,
                        {{"tenant", job.session->name}});
                obs::recordModeledSpan(
                    job.op ? "request:op" : "request:circuit",
                    "service", start, cost_us,
                    {{"tenant", job.session->name}});
            }
            my_clock = start + cost_us;
            batch_latencies.push_back(job.arrival_us >= 0.0
                                          ? my_clock - job.arrival_us
                                          : cost_us);
        };

        for (Job &job : batch) {
            begin_job(job);
            attach(job.session);
            try {
                compiler::CircuitRunStats cstats;
                std::vector<fv::Ciphertext> outs;
                if (!job.resident) {
                    outs = compiler::runCompiledCircuit(
                        *cp, *job.circuit, job.circuit_inputs, &cstats);
                    invalidate_cache(); // the run reset the pins
                } else if (cached_circuit.get() == job.circuit.get() &&
                           cached_session == job.session &&
                           cached_handles == job.resident_handles) {
                    // Cache hit: pinned operands are already in the
                    // memory-file prefix — no operand upload.
                    outs = compiler::runCompiledCircuitWarm(
                        *cp, *job.circuit, job.circuit_inputs, &cstats);
                    ++batch_warm;
                } else {
                    // Cache miss: assemble the full positional input
                    // list and run cold — runCompiledCircuit uploads the
                    // pinned operands into the prefix and leaves them
                    // pinned for the next hit.
                    std::vector<fv::Ciphertext> full(
                        job.circuit->inputs.size());
                    std::vector<bool> res_pos(full.size(), false);
                    for (size_t k = 0;
                         k < job.circuit->resident_inputs.size(); ++k) {
                        const uint32_t pos =
                            job.circuit->resident_inputs[k];
                        full[pos] = *job.resident_operands[k];
                        res_pos[pos] = true;
                    }
                    size_t next = 0;
                    for (size_t k = 0; k < full.size(); ++k) {
                        if (!res_pos[k])
                            full[k] =
                                std::move(job.circuit_inputs[next++]);
                    }
                    outs = compiler::runCompiledCircuit(*cp, *job.circuit,
                                                        full, &cstats);
                    cached_circuit = job.circuit;
                    cached_session = job.session;
                    cached_handles = job.resident_handles;
                    ++batch_cold;
                }
                if (job.op) {
                    job.promise.set_value(std::move(outs.front()));
                    ++batch_completed;
                } else {
                    job.circuit_promise.set_value(std::move(outs));
                    ++batch_circuits;
                    batch_circuit_nodes += job.circuit->value_sizes.size() -
                                           job.circuit->inputs.size();
                }
                batch_cycles += cstats.fpga_cycles;
                batch_dma_us += cstats.dma_us;
                batch_host_us += cstats.host_us;
                TenantDelta &d = delta_for(job.session);
                ++d.completed;
                for (size_t u = 0; u < hw::kUnitCount; ++u) {
                    batch_units[u] += cstats.unit_cycles[u];
                    d.units[u] += cstats.unit_cycles[u];
                }
                job.session->completed_ctr->add();
                finish_job(job, cstats.modeledUs(config_.hw));
            } catch (...) {
                job.fail(std::current_exception());
                ++batch_failed;
                ++delta_for(job.session).failed;
                // The failed program may have left memory-file layouts
                // inconsistent; rebuild this worker's coprocessor so
                // later jobs start from a clean instance.
                rebuild();
            }
        }

        // Observe latencies BEFORE retiring the batch under mu_: a
        // concurrent snapshot() then never sees completed counts ahead
        // of the latency sample count.
        for (double v : batch_latencies)
            latency_hist_->observe(v);

        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.ops_completed += batch_completed;
            stats_.ops_failed += batch_failed;
            stats_.batches += 1;
            stats_.circuits_completed += batch_circuits;
            stats_.circuit_nodes_completed += batch_circuit_nodes;
            stats_.key_swaps += batch_key_swaps;
            stats_.resident_cold_runs += batch_cold;
            stats_.resident_warm_runs += batch_warm;
            stats_.fpga_cycles += batch_cycles;
            stats_.dma_us += batch_dma_us;
            stats_.host_us += batch_host_us;
            for (size_t u = 0; u < hw::kUnitCount; ++u)
                stats_.unit_cycles[u] += batch_units[u];
            for (const TenantDelta &d : tenant_deltas) {
                d.s->completed += d.completed;
                d.s->failed += d.failed;
                for (size_t u = 0; u < hw::kUnitCount; ++u)
                    d.s->unit_cycles[u] += d.units[u];
            }
            worker_clock_us_[worker_index] = my_clock;
            in_flight_ -= batch.size();
            if (queued_total_ == 0 && in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

} // namespace heat::service
