#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ranges>
#include <utility>

#include "compiler/attribution.h"
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

    registerTenant("default", std::move(rlk), std::move(gkeys),
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
    for (size_t w = 0; w < config_.workers; ++w) {
        Lane &lane = lanes_.emplace_back();
        lane.index = w;
        lane.cp.emplace(params_, config_.hw, nullptr, nullptr);
    }
    threads_.reserve(config_.workers);
    for (size_t w = 0; w < config_.workers; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

ExecutionService::~ExecutionService()
{
    shutdown();
}

TenantId
ExecutionService::registerTenant(std::string name, fv::RelinKeys rlk,
                                 fv::GaloisKeys gkeys, uint32_t weight)
{
    fatalIf(weight == 0, "tenant weight must be at least 1");
    fatalIf(rlk.kind != fv::DecompKind::kRnsDigits,
            "the coprocessor key-load schedule needs kRnsDigits "
            "relinearization keys");
    fatalIf(rlk.digitCount() != params_->rnsDigitCount(),
            "relinearization keys do not match the parameter set");
    for (const auto &[g, key] : gkeys.keys) {
        fatalIf(!fv::isValidGaloisElement(g, params_->degree()),
                "Galois key for element ", g,
                " names no automorphism (must be odd and < 2n)");
        fatalIf(key.kind != fv::DecompKind::kRnsDigits ||
                    key.digitCount() != params_->rnsDigitCount(),
                "Galois key for element ", g,
                " does not match the parameter set");
    }

    // Mint the per-tenant counter handles before taking mu_ (the
    // registry has its own mutex; keeping the acquisitions disjoint
    // makes the lock order trivial). Tenants sharing a name share the
    // Prometheus series — same label, same series.
    const std::string label = obs::labelBlock("tenant", name);
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
    s.stats.name = s.name;
    s.weight = weight;
    s.rlk = std::move(rlk);
    s.gkeys = std::move(gkeys);
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
    std::shared_ptr<const compiler::CircuitAttribution> price =
        admitCircuit(circuit);
    compiler::validateInput(*params_, a);
    compiler::validateInput(*params_, b);

    Job job;
    job.session = &s;
    job.arrival_us = arrival_us;
    job.op = op;
    job.circuit = circuit;
    job.price = std::move(price);
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
    // synchronously, and workers only bind the deterministic slot
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
            ++s.stats.admission_rejected;
        }
        s.admission_rejected_ctr->add();
        throw AdmissionRejectedError(
            std::string("admission rejected: ") + detail +
            "; lower the circuit depth or submit through submitCircuit "
            "so re-leveling can try to rescue it");
    }
    std::fprintf(stderr, "ExecutionService: warning: %s\n", detail);
}

std::shared_ptr<const compiler::CircuitAttribution>
ExecutionService::admitCircuit(
    const std::shared_ptr<const compiler::CompiledCircuit> &compiled)
{
    std::shared_ptr<const compiler::CircuitAttribution> price;
    bool verified = config_.verify == compiler::VerifyCheck::kOff;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = circuits_.find(compiled.get());
        if (it != circuits_.end() &&
            it->second.circuit.lock().get() == compiled.get()) {
            price = it->second.price;
            verified = verified || it->second.verified;
        }
    }
    if (price != nullptr && verified)
        return price; // this exact object was admitted before

    if (!verified) {
        const verify::VerifyResult result =
            verify::verifyCompiledCircuit(*compiled);
        verified = result.ok();
        if (!verified) {
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
            // A warned circuit stays unverified: resubmits re-warn.
            std::fprintf(stderr,
                         "ExecutionService: warning: static verifier: %s",
                         result.report().c_str());
        }
    }

    if (price == nullptr)
        price = std::make_shared<const compiler::CircuitAttribution>(
            compiler::attributeCompiledCircuit(*compiled));

    std::lock_guard<std::mutex> lock(mu_);
    if (verified && config_.verify != compiler::VerifyCheck::kOff)
        ++stats_.circuits_verified;
    if (circuits_.size() >= 256) {
        // Drop entries whose circuit objects are gone (their addresses
        // may be reused by unrelated allocations).
        for (auto it = circuits_.begin(); it != circuits_.end();)
            it = it->second.circuit.expired() ? circuits_.erase(it)
                                              : std::next(it);
    }
    circuits_[compiled.get()] = CircuitEntry{compiled, verified, price};
    return price;
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
    std::shared_ptr<const compiler::CircuitAttribution> price =
        admitCircuit(compiled);
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
    job.price = std::move(price);
    job.circuit_inputs = std::move(inputs);
    std::future<std::vector<fv::Ciphertext>> future =
        job.circuit_promise.get_future();
    enqueue(s, std::move(job));
    return future;
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
    std::shared_ptr<const compiler::CircuitAttribution> price =
        admitCircuit(compiled);
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
    job.price = std::move(price);
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
    std::future<std::vector<fv::Ciphertext>> future =
        job.circuit_promise.get_future();
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
            s.queued >= config_.max_queue_per_tenant) {
            ++stats_.ops_shed;
            ++s.stats.shed;
            s.shed_ctr->add();
            throw ServiceOverloadedError(
                "tenant '" + s.name + "' queue is full (" +
                std::to_string(s.queued) + " of " +
                std::to_string(config_.max_queue_per_tenant) +
                " jobs queued) — shedding load, retry later");
        }
        job.seq = next_seq_++;
        s.queue.push_back(std::move(job));
        ++s.queued;
        ++s.stats.arrivals;
        s.arrivals_ctr->add();
        ++undispatched_;
        ++queued_total_;
        queue_depth_gauge_->set(static_cast<double>(queued_total_));
        dispatchLocked();
    }
}

void
ExecutionService::start()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        started_ = true;
        dispatchLocked();
    }
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
            s.queued = 0;
        }
        for (Lane &lane : lanes_) {
            for (std::vector<Job> &batch : lane.pending)
                for (Job &job : batch)
                    orphans.push_back(std::move(job));
            lane.pending.clear();
        }
        undispatched_ = 0;
        queued_total_ = 0;
        queue_depth_gauge_->set(0.0);
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

ServiceSnapshot
ExecutionService::snapshot() const
{
    ServiceSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.stats = stats_;
    for (const Lane &lane : lanes_)
        snap.stats.makespan_us =
            std::max(snap.stats.makespan_us, lane.now_us);
    snap.stats.tenants.reserve(sessions_.size());
    for (const Session &s : sessions_)
        snap.stats.tenants.push_back(s.stats);
    snap.queue_depth = queued_total_;
    // The engine observes a job's latency when it simulates the job,
    // before any worker thread runs it, so under the lock samples >=
    // the completed counts — the invariant the snapshot test leans on.
    const obs::Histogram &h = *latency_hist_;
    snap.latency.samples = h.count();
    if (snap.latency.samples > 0)
        snap.latency = {snap.latency.samples, h.quantile(0.50),
                        h.quantile(0.99), h.mean(), h.max()};
    return snap;
}

namespace {

/** The args naming a job: its tenant and submission number. */
std::vector<std::pair<std::string, std::string>>
jobArgs(const std::string &tenant, uint64_t seq)
{
    return {{"tenant", tenant}, {"job", std::to_string(seq)}};
}

/** The longest duration that ends a span starting at @p start_us at or
 *  before @p end_us, so the exporter's start + dur never passes the
 *  boundary the engine placed. */
double
durationTo(double start_us, double end_us)
{
    double dur = std::max(end_us - start_us, 0.0);
    while (dur > 0.0 && start_us + dur > end_us)
        dur = std::nextafter(dur, 0.0);
    return dur;
}

} // namespace

void
ExecutionService::dispatchLocked()
{
    if (!started_ || stopping_)
        return;
    // Discrete-event loop in modeled time: always advance the worker
    // whose next event is earliest (ties to the lower index), so the
    // DMA engine is granted in request order and the earliest free
    // worker takes the next batch.
    for (;;) {
        Lane *next = nullptr;
        for (Lane &lane : lanes_) {
            const bool runnable = !lane.batch.empty() || undispatched_ > 0;
            if (runnable && (next == nullptr || lane.now_us < next->now_us))
                next = &lane;
        }
        if (next == nullptr)
            return;
        if (next->batch.empty())
            formBatch(*next);
        else
            stepLane(*next);
    }
}

void
ExecutionService::formBatch(Lane &lane)
{
    // Arrival-aware weighted dequeue: each turn drains up to `weight`
    // jobs from the non-empty tenant whose head job has the earliest
    // modeled arrival (untimed jobs, with arrival_us < 0, sort first;
    // ties rotate round-robin from rr_cursor_). Only jobs that have
    // arrived by the worker's start join the batch; when none has, the
    // batch is the single earliest job, started at its arrival. A
    // weight-w tenant contributes up to w consecutive jobs per turn,
    // which bounds key swaps and cache invalidations per batch.
    std::vector<Job> &batch = lane.batch;
    while (batch.size() < config_.max_batch) {
        size_t best = sessions_.size();
        double best_arrival = 0.0;
        for (size_t off = 0; off < sessions_.size(); ++off) {
            const size_t i = (rr_cursor_ + off) % sessions_.size();
            const Session &c = sessions_[i];
            if (c.queue.empty())
                continue;
            const double a = c.queue.front().arrival_us;
            if (best == sessions_.size() || a < best_arrival) {
                best = i;
                best_arrival = a;
            }
        }
        if (best == sessions_.size())
            break;
        Session &s = sessions_[best];
        rr_cursor_ = (best + 1) % sessions_.size();
        if (best_arrival > lane.now_us) {
            if (!batch.empty())
                break;
            lane.now_us = best_arrival;
            batch.push_back(std::move(s.queue.front()));
            s.queue.pop_front();
            --undispatched_;
            break;
        }
        const size_t take = std::min({static_cast<size_t>(s.weight),
                                      config_.max_batch - batch.size(),
                                      s.queue.size()});
        for (size_t k = 0;
             k < take && s.queue.front().arrival_us <= lane.now_us; ++k) {
            batch.push_back(std::move(s.queue.front()));
            s.queue.pop_front();
            --undispatched_;
        }
    }
    // Group by session, then op kind (plain circuits after ops,
    // resident circuits last so a cold run's pins survive into the
    // next batch): the jobs have all arrived and are independent, and
    // grouping bounds key swaps and resident-cache invalidations.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Job &x, const Job &y) {
                         if (x.session->id != y.session->id)
                             return x.session->id < y.session->id;
                         return x.sortKey() < y.sortKey();
                     });
    ++stats_.batches;
    lane.job = 0;
    lane.phase = 0;
    // No worker requests the DMA before the earliest worker's time.
    double horizon = lane.now_us;
    for (const Lane &l : lanes_)
        horizon = std::min(horizon, l.now_us);
    while (!dma_busy_.empty() && dma_busy_.begin()->second <= horizon)
        dma_busy_.erase(dma_busy_.begin());
}

void
ExecutionService::stepLane(Lane &lane)
{
    Job &job = lane.batch[lane.job];
    if (lane.phase == 0) {
        // The job starts: attach its keys and decide cold or warm on
        // the modeled coprocessor.
        job.start_us = lane.now_us;
        lane.waited_us = 0.0;
        if (lane.keys != job.session) {
            if (lane.keys != nullptr)
                ++stats_.key_swaps;
            lane.keys = job.session;
        }
        ResidentCache held{job.circuit, job.session, job.resident_handles};
        job.warm = job.resident && lane.cache == held;
        if (job.warm)
            ++stats_.resident_warm_runs;
        else if (job.resident)
            ++stats_.resident_cold_runs;
        if (!job.warm) // a cold or non-resident run resets the prefix
            lane.cache = job.resident ? std::move(held) : ResidentCache{};
        if (obs::activeTracer() != nullptr)
            lane.spans.push_back(
                {{job.op ? "request:op" : "request:circuit", "service",
                  obs::kModeledPid, static_cast<uint32_t>(lane.index),
                  job.start_us, 0.0, jobArgs(job.session->name, job.seq)}});
    }
    const std::vector<compiler::RunPhase> &timeline =
        job.runPrice().timeline;
    if (lane.phase < timeline.size()) {
        const compiler::RunPhase &ph = timeline[lane.phase++];
        const double request_us = lane.now_us;
        double grant = request_us;
        if (!ph.dma()) {
            lane.now_us += ph.us;
        } else {
            grant = firstFreeDma(lane.now_us, ph.us);
            lane.waited_us += grant - lane.now_us;
            // A job's last hold ends exactly where finishJob puts the
            // job's end, so the next job's first request does not
            // queue behind a rounding difference.
            const double end = lane.phase == timeline.size()
                                   ? job.start_us + (job.busyUs() +
                                                     lane.waited_us)
                                   : grant + ph.us;
            holdDma(grant, end);
            stats_.dma_busy_us += ph.us;
            lane.now_us = end;
        }
        if (!lane.spans.empty())
            tracePhase(lane, job, ph, request_us, grant);
    }
    if (lane.phase == timeline.size())
        finishJob(lane, job);
}

void
ExecutionService::tracePhase(Lane &lane, const Job &job,
                             const compiler::RunPhase &ph,
                             double request_us, double grant_us)
{
    using Kind = compiler::RunPhase::Kind;
    const auto add = [&](std::string name, const char *category,
                         double start_us, double end_us, size_t parent,
                         std::vector<std::pair<std::string, std::string>>
                             args = {}) {
        lane.spans.push_back({{std::move(name), category, obs::kModeledPid,
                               static_cast<uint32_t>(lane.index), start_us,
                               0.0, std::move(args)},
                              end_us,
                              parent});
        return lane.spans.size() - 1;
    };
    const auto waited = [&](size_t parent) {
        if (grant_us > request_us)
            add("dma-wait", "service", request_us, grant_us, parent,
                jobArgs(job.session->name, job.seq));
    };
    if (ph.kind != Kind::kCompute && ph.kind != Kind::kKeyLoad) {
        lane.program = 0;
        waited(0);
        add(ph.kind == Kind::kResidentUpload ? "upload:resident"
            : ph.kind == Kind::kUpload       ? "upload"
                                             : "download",
            "host", grant_us, lane.now_us, 0);
        return;
    }

    // A segment's compute runs and key-load bursts share its program
    // span, opened when the first of them asks for the device.
    const std::vector<hw::Instruction> &instrs =
        job.circuit->segments[ph.segment].program.instrs;
    const std::vector<hw::InstrCost> &costs =
        job.price->instr_costs[ph.segment];
    const std::vector<compiler::RunPhase> &timeline =
        job.runPrice().timeline;
    if (lane.program == 0 || timeline[lane.phase - 2].segment != ph.segment) {
        hw::Cycle fpga_cycles = 0;
        for (size_t p = lane.phase - 1;
             p < timeline.size() && timeline[p].segment == ph.segment; ++p)
            fpga_cycles += timeline[p].cycles;
        double dma_us = 0.0;
        for (const hw::InstrCost &c : costs)
            dma_us += c.dma_us;
        lane.program =
            add("program", "hw", request_us, lane.now_us, 0,
                {{"instructions", std::to_string(instrs.size())},
                 {"fpga_cycles", std::to_string(fpga_cycles)},
                 {"dma_us", std::to_string(dma_us)}});
    }
    const size_t program = lane.program;
    lane.spans[program].end_us = lane.now_us;
    waited(program);

    const auto instruction = [&](size_t k, double start_us, double end_us) {
        add(hw::opcodeName(instrs[k].op), "hw.instr", start_us, end_us,
            program,
            {{"unit", hw::unitName(hw::unitOf(instrs[k].op))},
             {"cycles", std::to_string(costs[k].cycles)},
             {"dma_us", std::to_string(costs[k].dma_us)}});
    };
    if (ph.kind == Kind::kKeyLoad) {
        instruction(ph.begin, grant_us, lane.now_us);
        return;
    }
    // Each boundary is the run's start plus the cycles done so far; the
    // last is the engine's own end of the run, computed the same way.
    const auto at = [&](hw::Cycle cycles) {
        return request_us + job.circuit->hw.cyclesToUs(cycles);
    };
    hw::Cycle done = 0;
    for (size_t k = ph.begin; k < ph.end; ++k) {
        const double start_us = at(done);
        done += costs[k].cycles;
        instruction(k, start_us, at(done));
    }
    if (done < ph.cycles)
        add("arm-dispatch", "hw", at(done), lane.now_us, program,
            {{"unit", hw::unitName(hw::Unit::kArmUnit)},
             {"cycles", std::to_string(ph.cycles - done)}});
}

double
ExecutionService::firstFreeDma(double request_us, double us) const
{
    // First fit. The engine advances workers in modeled-time order, so
    // every reservation it already holds starts at or before a new
    // request and the first fit is the end of the current busy run:
    // first come, first served. Only a job submitted to a live service
    // after others were simulated past its start can land in an
    // earlier gap.
    double grant = request_us;
    auto next = dma_busy_.upper_bound(grant);
    if (next != dma_busy_.begin())
        grant = std::max(grant, std::prev(next)->second);
    for (; next != dma_busy_.end() && next->first < grant + us; ++next)
        grant = std::max(grant, next->second);
    return grant;
}

void
ExecutionService::holdDma(double start_us, double end_us)
{
    // Insert [start, end), merged with touching neighbours.
    auto next = dma_busy_.lower_bound(start_us);
    if (next != dma_busy_.end() && next->first == end_us) {
        end_us = next->second;
        next = dma_busy_.erase(next);
    }
    if (next != dma_busy_.begin() && std::prev(next)->second == start_us)
        std::prev(next)->second = end_us;
    else
        dma_busy_.emplace_hint(next, start_us, end_us);
}

void
ExecutionService::finishJob(Lane &lane, Job &job)
{
    const double busy_us = job.busyUs();
    // Service time is the price plus the DMA waits; summed this way
    // (not end minus start) it is exact when nothing waited.
    const double service_us = busy_us + lane.waited_us;
    const double end_us = job.start_us + service_us;
    lane.now_us = end_us;
    // Open-loop jobs count from their arrival; untimed jobs contribute
    // their service time only.
    const double latency_us =
        job.arrival_us >= 0.0 ? end_us - job.arrival_us : service_us;
    latency_hist_->observe(latency_us);
    obs::Tracer *const tracer = obs::activeTracer();
    if (tracer != nullptr && !lane.spans.empty()) {
        if (job.arrival_us >= 0.0 && job.start_us > job.arrival_us)
            tracer->addSpan({"queue-wait", "service", obs::kModeledPid,
                             static_cast<uint32_t>(lane.index),
                             job.arrival_us, job.start_us - job.arrival_us,
                             jobArgs(job.session->name, job.seq),
                             /*async=*/true});
        // The request spans the job; every other span ends where the
        // engine placed it, but never past its parent's end.
        std::vector<PendingSpan> &spans = lane.spans;
        char latency[32], busy[32];
        std::snprintf(latency, sizeof latency, "%.17g", latency_us);
        std::snprintf(busy, sizeof busy, "%.17g", busy_us);
        spans[0].span.args.emplace_back("latency_us", latency);
        spans[0].span.args.emplace_back("busy_us", busy);
        spans[0].span.dur_us = service_us;
        spans[0].end_us = end_us;
        for (PendingSpan &p : spans | std::views::drop(1)) {
            p.span.dur_us = durationTo(
                p.span.start_us, std::min(p.end_us, spans[p.parent].end_us));
            p.end_us = p.span.start_us + p.span.dur_us;
        }
        for (PendingSpan &p : spans)
            tracer->addSpan(std::move(p.span));
    }
    lane.spans.clear();
    lane.program = 0;

    const compiler::CircuitRunStats &t = job.runPrice().totals;
    stats_.fpga_cycles += t.fpga_cycles;
    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        stats_.unit_cycles[u] += t.unit_cycles[u];
        job.session->stats.unit_cycles[u] += t.unit_cycles[u];
    }
    stats_.dma_us += t.dma_us;
    stats_.host_us += t.host_us;

    lane.phase = 0;
    if (++lane.job < lane.batch.size())
        return;
    // Batch simulated: hand it to the worker threads.
    lane.pending.push_back(std::move(lane.batch));
    lane.batch.clear();
    work_cv_.notify_one();
}

void
ExecutionService::workerLoop()
{
    const auto touchesPins = [](const std::vector<Job> &batch) {
        return std::any_of(batch.begin(), batch.end(),
                           [](const Job &job) { return job.resident; });
    };
    for (;;) {
        Lane *lane = nullptr; // the worker the batch was dispatched to
        Lane *host = nullptr; // the worker whose coprocessor runs it
        std::deque<std::vector<Job>>::iterator pick;
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                // A worker's batches run on its own coprocessor, one at
                // a time and in dispatch order, so its pinned prefix
                // follows the engine's model of it.
                for (Lane &l : lanes_) {
                    if (!l.running && !l.pending.empty()) {
                        lane = host = &l;
                        pick = l.pending.begin();
                        return true;
                    }
                }
                // A batch without resident jobs needs no coprocessor
                // state: while one worker has a backlog, run such a
                // batch on an idle coprocessor that holds no pins.
                for (Lane &idle : lanes_) {
                    if (idle.running || !idle.pending.empty() ||
                        idle.cp->memory().pinnedRecords() != 0)
                        continue;
                    for (Lane &l : lanes_) {
                        for (auto it = l.pending.begin();
                             it != l.pending.end(); ++it) {
                            if (!touchesPins(*it)) {
                                lane = &l;
                                host = &idle;
                                pick = it;
                                return true;
                            }
                        }
                    }
                    break;
                }
                return stopping_;
            });
            if (lane == nullptr)
                return; // stopping, nothing left to do
            batch = std::move(*pick);
            lane->pending.erase(pick);
            host->running = true;
            for (const Job &job : batch)
                --job.session->queued;
            queued_total_ -= batch.size();
            in_flight_ += batch.size();
            queue_depth_gauge_->set(static_cast<double>(queued_total_));
        }
        runBatch(*host, batch);
    }
}

void
ExecutionService::runBatch(Lane &host, std::vector<Job> &batch)
{
    // Every job is a compiled circuit: the run reprograms the memory
    // file and binds the circuit's records segment by segment (the warm
    // resident path keeps the pinned prefix). Key sets are attached per job
    // (attachKeys re-points the kKeyLoad stream at the submitting
    // session's DDR-resident keys).
    hw::Coprocessor *cp = &*host.cp;
    const auto rebuild = [&] {
        cp = &host.cp.emplace(params_, config_.hw, nullptr, nullptr);
        host.attached = nullptr;
    };
    std::vector<bool> ok(batch.size(), false);
    for (size_t i = 0; i < batch.size(); ++i) {
        Job &job = batch[i];
        if (host.attached != job.session) {
            cp->attachKeys(&job.session->rlk, &job.session->gkeys);
            host.attached = job.session;
        }
        try {
            std::vector<fv::Ciphertext> outs;
            if (!job.resident) {
                outs = compiler::runCompiledCircuit(*cp, *job.circuit,
                                                    job.circuit_inputs);
            } else if (job.warm && cp->memory().pinnedRecords() > 0) {
                // Cache hit: this worker's batches run in dispatch
                // order, so the memory-file prefix holds what the
                // engine modeled — unless a failed job rebuilt the
                // coprocessor, which leaves no pinned records.
                outs = compiler::runCompiledCircuitWarm(
                    *cp, *job.circuit, job.circuit_inputs);
            } else {
                // Cache miss: assemble the full positional input list
                // and run cold — runCompiledCircuit uploads the pinned
                // operands into the prefix and leaves them pinned for
                // the next hit.
                std::vector<fv::Ciphertext> full(job.circuit->inputs.size());
                std::vector<bool> res_pos(full.size(), false);
                for (size_t k = 0; k < job.circuit->resident_inputs.size();
                     ++k) {
                    const uint32_t pos = job.circuit->resident_inputs[k];
                    full[pos] = *job.resident_operands[k];
                    res_pos[pos] = true;
                }
                size_t next = 0;
                for (size_t k = 0; k < full.size(); ++k) {
                    if (!res_pos[k])
                        full[k] = std::move(job.circuit_inputs[next++]);
                }
                outs = compiler::runCompiledCircuit(*cp, *job.circuit, full);
            }
            if (job.op)
                job.promise.set_value(std::move(outs.front()));
            else
                job.circuit_promise.set_value(std::move(outs));
            job.session->completed_ctr->add();
            ok[i] = true;
        } catch (...) {
            job.fail(std::current_exception());
            // The failed program may have left memory-file layouts
            // inconsistent; rebuild this worker's coprocessor so later
            // jobs start from a clean instance.
            rebuild();
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
        const Job &job = batch[i];
        if (!ok[i]) {
            ++stats_.ops_failed;
            ++job.session->stats.failed;
            continue;
        }
        ++job.session->stats.completed;
        if (job.op) {
            ++stats_.ops_completed;
        } else {
            ++stats_.circuits_completed;
            stats_.circuit_nodes_completed +=
                job.circuit->value_sizes.size() - job.circuit->inputs.size();
        }
    }
    host.running = false;
    work_cv_.notify_one(); // its coprocessor may take waiting work
    in_flight_ -= batch.size();
    if (queued_total_ == 0 && in_flight_ == 0)
        idle_cv_.notify_all();
}

} // namespace heat::service
