/**
 * @file
 * heat_cli — command-line front end for the FV library, wired through
 * the binary serialization format. Mirrors the workflow of the paper's
 * cloud service: a client generates keys and encrypts locally, ships
 * ciphertexts and evaluation keys to a server, the server computes
 * blindly, the client decrypts.
 *
 *   heat_cli keygen  --dir keys [--t 65537] [--seed 1]
 *   heat_cli encrypt --dir keys --value 1234 --out a.ct
 *   heat_cli eval    --dir keys --op add|mul|sub a.ct b.ct --out c.ct
 *   heat_cli decrypt --dir keys c.ct
 *   heat_cli info    c.ct
 *
 * All commands default to the paper's parameter set (n = 4096, 180-bit
 * q, sigma = 102) with t = 65537; pass --t to change the plaintext
 * modulus (it must match across keygen/encrypt/eval/decrypt — the
 * fingerprint in every file enforces this).
 */

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/panic.h"
#include "common/random.h"
#include "compiler/attribution.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encoder.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "fv/serialize.h"
#include "hw/coprocessor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "verify/verify.h"

using namespace heat;

namespace {

struct Args
{
    std::string command;
    std::map<std::string, std::string> options;
    std::vector<std::string> positional;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        return args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            std::string key = a.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)) {
                args.options[key] = argv[++i];
            } else {
                args.options[key] = "";
            }
        } else {
            args.positional.push_back(a);
        }
    }
    return args;
}

std::string
option(const Args &args, const std::string &key, const std::string &dflt)
{
    auto it = args.options.find(key);
    return it == args.options.end() ? dflt : it->second;
}

/** Upper bounds of the size flags. Each worker is a simulated
 *  coprocessor with its own host thread, and each --len element or
 *  --requests request a paper-set ciphertext or more, so larger values
 *  only exhaust the host. */
constexpr uint64_t kMaxWorkers = 16;
constexpr uint64_t kMaxRequests = 256;
constexpr uint64_t kMaxLen = 64;

/**
 * Option @p key as a decimal integer in [@p min, @p max], or @p dflt
 * when the flag is absent. Empty, non-numeric, trailing characters and
 * out-of-range values are a FatalError naming the flag; a sign is one
 * too, except a '-' for a signed Int.
 */
template <typename Int>
Int
integerOption(const Args &args, const std::string &key, Int dflt, Int min,
              Int max)
{
    const auto it = args.options.find(key);
    if (it == args.options.end())
        return dflt;
    const std::string &text = it->second;
    const char *const end = text.data() + text.size();
    Int value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    fatalIf(text.empty() || ec != std::errc() || ptr != end ||
                value < min || value > max,
            "--", key, " wants an integer in [", min, ", ", max,
            "], got '", text, "'");
    return value;
}

/** integerOption for the unsigned count and seed flags. */
uint64_t
uintOption(const Args &args, const std::string &key, uint64_t dflt,
           uint64_t min = 0, uint64_t max = UINT64_MAX)
{
    return integerOption(args, key, dflt, min, max);
}

std::shared_ptr<const fv::FvParams>
paramsFor(const Args &args)
{
    return fv::FvParams::paper(uintOption(args, "t", 65537, 2, UINT64_MAX));
}

std::ifstream
openIn(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open ", path);
    return in;
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot create ", path);
    return out;
}

int
cmdKeygen(const Args &args)
{
    const uint64_t seed = uintOption(args, "seed", 1);
    auto params = paramsFor(args);
    const std::string dir = option(args, "dir", "keys");

    fv::KeyGenerator keygen(params, seed);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);

    {
        auto out = openOut(dir + "/secret.key");
        fv::saveSecretKey(*params, sk, out);
    }
    {
        auto out = openOut(dir + "/public.key");
        fv::savePublicKey(*params, pk, out);
    }
    {
        auto out = openOut(dir + "/relin.key");
        fv::saveRelinKeys(*params, rlk, out);
    }
    std::printf("wrote %s/{secret,public,relin}.key  (n=%zu, log q=%d, "
                "t=%llu, fingerprint %016llx)\n",
                dir.c_str(), params->degree(), params->qBits(),
                static_cast<unsigned long long>(params->plainModulus()),
                static_cast<unsigned long long>(
                    fv::paramsFingerprint(*params)));
    return 0;
}

int
cmdEncrypt(const Args &args)
{
    const uint64_t seed = uintOption(args, "seed", 99);
    auto params = paramsFor(args);
    const std::string dir = option(args, "dir", "keys");
    const std::string out_path = option(args, "out", "out.ct");
    fatalIf(args.options.count("value") == 0, "need --value N");
    const int64_t value =
        integerOption<int64_t>(args, "value", 0, INT64_MIN, INT64_MAX);

    auto pk_in = openIn(dir + "/public.key");
    fv::PublicKey pk = fv::loadPublicKey(params, pk_in);

    fv::Encryptor encryptor(params, std::move(pk), seed);
    fv::IntegerEncoder encoder(params, 2);
    fv::Ciphertext ct = encryptor.encrypt(encoder.encode(value));

    auto out = openOut(out_path);
    fv::saveCiphertext(*params, ct, out);
    std::printf("encrypted %lld -> %s (%zu bytes)\n",
                static_cast<long long>(value), out_path.c_str(),
                fv::ciphertextByteSize(*params, ct));
    return 0;
}

int
cmdEval(const Args &args)
{
    auto params = paramsFor(args);
    const std::string dir = option(args, "dir", "keys");
    const std::string op = option(args, "op", "add");
    const std::string out_path = option(args, "out", "out.ct");
    fatalIf(op != "add" && op != "sub" && op != "mul",
            "unknown --op '", op, "' (add|sub|mul)");
    fatalIf(args.positional.size() != 2,
            "eval needs two ciphertext files");

    auto a_in = openIn(args.positional[0]);
    auto b_in = openIn(args.positional[1]);
    fv::Ciphertext a = fv::loadCiphertext(params, a_in);
    fv::Ciphertext b = fv::loadCiphertext(params, b_in);

    fv::Evaluator evaluator(params);
    fv::Ciphertext c;
    if (op == "add") {
        c = evaluator.add(a, b);
    } else if (op == "sub") {
        c = evaluator.sub(a, b);
    } else {
        auto rlk_in = openIn(dir + "/relin.key");
        fv::RelinKeys rlk = fv::loadRelinKeys(params, rlk_in);
        c = evaluator.multiply(a, b, rlk);
    }

    auto out = openOut(out_path);
    fv::saveCiphertext(*params, c, out);
    std::printf("%s(%s, %s) -> %s\n", op.c_str(),
                args.positional[0].c_str(), args.positional[1].c_str(),
                out_path.c_str());
    return 0;
}

int
cmdDecrypt(const Args &args)
{
    auto params = paramsFor(args);
    const std::string dir = option(args, "dir", "keys");
    fatalIf(args.positional.size() != 1,
            "decrypt needs one ciphertext file");

    auto sk_in = openIn(dir + "/secret.key");
    fv::SecretKey sk = fv::loadSecretKey(params, sk_in);
    auto ct_in = openIn(args.positional[0]);
    fv::Ciphertext ct = fv::loadCiphertext(params, ct_in);

    fv::Decryptor decryptor(params, std::move(sk));
    fv::IntegerEncoder encoder(params, 2);
    const double budget = decryptor.invariantNoiseBudget(ct);
    fv::Plaintext plain = decryptor.decrypt(ct);
    std::printf("value: %s\nnoise budget: %.0f bits%s\n",
                encoder.decode(plain).toString().c_str(), budget,
                budget <= 0 ? "  (EXHAUSTED - result unreliable)" : "");
    return 0;
}

int
cmdInfo(const Args &args)
{
    fatalIf(args.positional.size() != 1, "info needs one file");
    auto params = paramsFor(args);
    auto in = openIn(args.positional[0]);
    fv::Ciphertext ct = fv::loadCiphertext(params, in);
    std::printf("%s: %zu-element ciphertext, %zu residues x %zu "
                "coefficients, %zu bytes\n",
                args.positional[0].c_str(), ct.size(),
                ct[0].residueCount(), ct[0].degree(),
                fv::ciphertextByteSize(*params, ct));
    return 0;
}

/**
 * Encrypted dot product demo through the circuit compiler and the
 * serving layer: <a, b> of two --len element integer vectors, each
 * element its own ciphertext, computed as one fused multi-op circuit
 * (len Mult+Relin, len-1 Add) with coprocessor-resident intermediates.
 */
int
cmdCircuit(const Args &args)
{
    const size_t len = uintOption(args, "len", 4, 1, kMaxLen);
    const size_t workers = uintOption(args, "workers", 2, 1, kMaxWorkers);
    const uint64_t seed = uintOption(args, "seed", 1);
    auto params = paramsFor(args);
    const uint64_t t = params->plainModulus();

    fv::KeyGenerator keygen(params, seed);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, seed ^ 0x5EED);
    fv::Decryptor decryptor(params, fv::SecretKey{sk.s_ntt});

    // Two small integer vectors, one ciphertext per element.
    std::vector<uint64_t> a(len), b(len);
    uint64_t expected = 0;
    std::vector<fv::Ciphertext> inputs;
    for (size_t i = 0; i < len; ++i) {
        a[i] = (3 * i + 2 + seed) % 50;
        b[i] = (7 * i + 5 + seed) % 50;
        expected = (expected + a[i] * b[i]) % t;
    }
    for (size_t i = 0; i < len; ++i)
        inputs.push_back(encryptor.encrypt(
            fv::Plaintext{std::vector<uint64_t>{a[i]}}));
    for (size_t i = 0; i < len; ++i)
        inputs.push_back(encryptor.encrypt(
            fv::Plaintext{std::vector<uint64_t>{b[i]}}));

    // dot = sum_i a_i * b_i as one expression DAG.
    compiler::CircuitBuilder builder;
    std::vector<compiler::ValueId> xa(len), xb(len);
    for (size_t i = 0; i < len; ++i)
        xa[i] = builder.input();
    for (size_t i = 0; i < len; ++i)
        xb[i] = builder.input();
    compiler::ValueId acc = builder.mult(xa[0], xb[0]);
    for (size_t i = 1; i < len; ++i)
        acc = builder.add(acc, builder.mult(xa[i], xb[i]));
    builder.output(acc);
    const compiler::Circuit circuit = builder.build();

    service::ServiceConfig cfg;
    cfg.workers = workers;
    compiler::CompilerOptions options;
    options.hw = cfg.hw;
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, circuit, options));
    std::printf("circuit: %zu ops (%zu Mult+Relin, %zu Add) -> %zu "
                "instructions in %zu fused segment%s, peak %zu/%zu "
                "memory-file slots, %zu spilled polys\n",
                circuit.opCount(), len, len - 1,
                compiled->instructionCount(), compiled->segments.size(),
                compiled->segments.size() == 1 ? "" : "s",
                compiled->peak_slots,
                options.hw.n_rpaus * options.hw.slots_per_rpau,
                compiled->spilled_polys);

    // Fused execution through the serving layer.
    service::ExecutionService svc(params, rlk, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<fv::Ciphertext> outs =
        svc.submitCompiled(compiled, inputs).get();
    const auto t1 = std::chrono::steady_clock::now();
    svc.drain();
    const double wall_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const double modeled_us = svc.stats().makespan_us;

    // Per-op round-trip model for comparison.
    hw::Coprocessor cp(params, cfg.hw, &rlk);
    compiler::CircuitRunStats unfused;
    compiler::runCircuitOpByOp(cp, params, circuit, inputs, &unfused);
    const double unfused_us = unfused.modeledUs(cfg.hw);

    const fv::Plaintext plain = decryptor.decrypt(outs[0]);
    const uint64_t got = plain.coeffs.empty() ? 0 : plain.coeffs[0];
    const double budget = decryptor.invariantNoiseBudget(outs[0]);
    std::printf("<a, b> = %llu (expected %llu mod t)%s, noise budget "
                "%.0f bits\n",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(expected),
                got == expected ? "" : "  MISMATCH", budget);
    std::printf("modeled accelerator time: fused %.1f us vs per-op "
                "%.1f us (%.2fx); simulation wall time %.1f us\n",
                modeled_us, unfused_us, unfused_us / modeled_us,
                wall_us);
    return got == expected ? 0 : 1;
}

/**
 * Observability demo and acceptance gate: run a workload through the
 * serving layer with the span tracer installed, cross-check the three
 * independent accountings — the static cold-run price
 * (compiler::attributeCompiledCircuit: cycles, key DMA, host transfers
 * and counts, field by field), a reference fused run on a standalone
 * coprocessor, and the service's per-unit profile — for EXACT
 * agreement (equality, no tolerance), then write a
 * Chrome trace_event JSON (Perfetto-loadable) plus an optional
 * Prometheus metrics dump. Any accounting mismatch exits 1.
 *
 * Workloads:
 *   pir    8-shard PIR circuit on the small serving ring (n = 256,
 *          3 q-primes): shards pinned coprocessor-resident, requests
 *          run cold-then-warm through submitCompiledResident.
 *   mult4  depth-4 multiply chain at the paper parameter set — the
 *          per-unit table EXPERIMENTS.md quotes.
 */
int
cmdTrace(const Args &args)
{
    const std::string workload = option(args, "workload", "pir");
    const std::string out_path = option(args, "out", "trace.json");
    const std::string metrics_path = option(args, "metrics", "");
    const size_t workers = uintOption(args, "workers", 2, 1, kMaxWorkers);
    const size_t requests =
        uintOption(args, "requests", 4, 1, kMaxRequests);
    const uint64_t seed = uintOption(args, "seed", 1);
    fatalIf(workload != "pir" && workload != "mult4",
            "unknown --workload '", workload, "' (pir|mult4)");

    // Parameter set: PIR uses the small serving ring (fast functional
    // simulation; the timing model is the paper's either way), mult4
    // the paper parameters so its table is quotable.
    std::shared_ptr<const fv::FvParams> params;
    if (workload == "pir") {
        fv::FvConfig fvc;
        fvc.degree = 256;
        fvc.plain_modulus = 257;
        fvc.sigma = 3.2;
        fvc.q_prime_count = 3;
        params = fv::FvParams::create(fvc);
    } else {
        params = paramsFor(args);
    }
    const uint64_t t = params->plainModulus();

    fv::KeyGenerator keygen(params, seed);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, seed ^ 0x7ACE);
    Xoshiro256 rng(seed * 977 + 13);

    auto randomPlain = [&] {
        fv::Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(t);
        return p;
    };

    service::ServiceConfig cfg;
    cfg.workers = workers;
    compiler::CompilerOptions copts;
    copts.hw = cfg.hw;

    constexpr size_t kShards = 8;
    compiler::CircuitBuilder b;
    std::vector<fv::Ciphertext> resident_cts; // pir: pinned shards
    std::vector<fv::Ciphertext> request_inputs;
    if (workload == "pir") {
        std::vector<compiler::ValueId> db;
        for (size_t k = 0; k < kShards; ++k)
            db.push_back(b.input());
        const compiler::ValueId query = b.input();
        compiler::ValueId acc = compiler::kNoValue;
        for (size_t k = 0; k < kShards; ++k) {
            const compiler::ValueId sel =
                b.multPlain(db[k], randomPlain());
            acc = (k == 0) ? sel : b.add(acc, sel);
        }
        b.output(b.add(acc, query));
        for (uint32_t k = 0; k < kShards; ++k)
            copts.resident_inputs.push_back(k);
        for (size_t k = 0; k < kShards; ++k)
            resident_cts.push_back(encryptor.encrypt(randomPlain()));
        request_inputs.push_back(encryptor.encrypt(randomPlain()));
    } else {
        const compiler::ValueId xa = b.input();
        const compiler::ValueId xc = b.input();
        compiler::ValueId acc = b.mult(xa, xc);
        for (int d = 1; d < 4; ++d)
            acc = b.mult(acc, acc);
        b.output(acc);
        request_inputs.push_back(encryptor.encrypt(
            fv::Plaintext{std::vector<uint64_t>{3}}));
        request_inputs.push_back(encryptor.encrypt(
            fv::Plaintext{std::vector<uint64_t>{5}}));
    }
    const compiler::Circuit circuit = b.build();
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, circuit, copts));

    bool ok = true;
    auto check = [&ok](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "trace: FAIL: %s\n", what);
            ok = false;
        }
    };
    auto unitSum = [](const std::array<hw::Cycle, hw::kUnitCount> &u) {
        hw::Cycle s = 0;
        for (hw::Cycle c : u)
            s += c;
        return s;
    };

    // Accounting 1 vs 2: compile-time attribution against one
    // reference fused run on a standalone coprocessor. Done before the
    // tracer is installed so the trace holds serving spans only.
    const compiler::CircuitAttribution attr =
        compiler::attributeCompiledCircuit(*compiled);
    std::vector<fv::Ciphertext> all_inputs = resident_cts;
    for (const auto &ct : request_inputs)
        all_inputs.push_back(ct);
    hw::Coprocessor ref_cp(params, cfg.hw, &rlk);
    compiler::CircuitRunStats ref;
    compiler::runCompiledCircuit(ref_cp, *compiled, all_inputs, &ref);
    const compiler::CircuitRunStats &price = attr.cold.totals;
    check(unitSum(ref.unit_cycles) == ref.fpga_cycles,
          "reference run: unit cycles do not sum to fpga_cycles");
    check(unitSum(price.unit_cycles) == price.fpga_cycles,
          "attribution: unit cycles do not sum to fpga_cycles");
    check(price == ref,
          "attribution cold run price != reference run stats (cycles, "
          "dma_us, host_us, instructions, dispatches or polys)");

    // Accounting 3: the serving layer, with the tracer installed
    // before the workers spawn.
    obs::Tracer tracer;
    obs::Tracer *const prev = obs::setActiveTracer(&tracer);
    service::ServiceSnapshot snap;
    {
        service::ExecutionService svc(params, rlk, cfg);
        if (workload == "pir") {
            std::vector<service::PinnedHandle> handles;
            for (const auto &ct : resident_cts)
                handles.push_back(
                    svc.pinInput(service::kDefaultTenant, ct));
            for (size_t r = 0; r < requests; ++r)
                svc.submitCompiledResident(service::kDefaultTenant,
                                           compiled, handles,
                                           request_inputs)
                    .get();
        } else {
            for (size_t r = 0; r < requests; ++r)
                svc.submitCompiled(compiled, request_inputs).get();
        }
        svc.drain();
        snap = svc.snapshot();
        if (!metrics_path.empty()) {
            auto mout = openOut(metrics_path);
            mout << svc.metrics().renderText();
        }
        svc.shutdown();
    }
    obs::setActiveTracer(prev);

    check(unitSum(snap.stats.unit_cycles) == snap.stats.fpga_cycles,
          "service: unit cycles do not sum to fpga_cycles");
    check(snap.stats.fpga_cycles ==
              ref.fpga_cycles * static_cast<hw::Cycle>(requests),
          "service fpga_cycles != requests * reference fpga_cycles");
    check(snap.stats.ops_failed == 0 && snap.stats.ops_rejected == 0,
          "service reported failed or rejected jobs");

    // The Chrome trace, with the accounting summary in otherData so
    // the CI checker (and a human in Perfetto's info panel) can read
    // the attribution without re-running.
    std::vector<std::pair<std::string, std::string>> other;
    other.emplace_back("workload", workload);
    other.emplace_back("requests", std::to_string(requests));
    other.emplace_back("total_cycles",
                       std::to_string(snap.stats.fpga_cycles));
    for (size_t u = 0; u < hw::kUnitCount; ++u)
        other.emplace_back(
            std::string("unit_cycles_") +
                hw::unitName(static_cast<hw::Unit>(u)),
            std::to_string(snap.stats.unit_cycles[u]));
    {
        auto out = openOut(out_path);
        tracer.writeChromeTrace(out, other);
    }

    std::printf("trace: %s, %zu request%s, %zu worker%s -> %s (%zu "
                "spans%s)%s\n",
                workload.c_str(), requests, requests == 1 ? "" : "s",
                workers, workers == 1 ? "" : "s", out_path.c_str(),
                tracer.spans().size(),
                tracer.droppedSpans() > 0 ? ", some dropped" : "",
                metrics_path.empty()
                    ? ""
                    : (", metrics -> " + metrics_path).c_str());
    std::printf("%-12s %18s %18s %7s\n", "unit", "cycles/request",
                "service cycles", "share");
    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        const hw::Cycle svc_cycles = snap.stats.unit_cycles[u];
        std::printf("%-12s %18llu %18llu %6.2f%%\n",
                    hw::unitName(static_cast<hw::Unit>(u)),
                    static_cast<unsigned long long>(price.unit_cycles[u]),
                    static_cast<unsigned long long>(svc_cycles),
                    snap.stats.fpga_cycles > 0
                        ? 100.0 * static_cast<double>(svc_cycles) /
                              static_cast<double>(snap.stats.fpga_cycles)
                        : 0.0);
    }
    std::printf("%-12s %18llu %18llu %6.2f%%\n", "total",
                static_cast<unsigned long long>(price.fpga_cycles),
                static_cast<unsigned long long>(snap.stats.fpga_cycles),
                100.0);
    std::printf("attribution check: %s (attribution == reference run "
                "== service, per-unit sums exact)\n",
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

/**
 * Static verification front end: compile the named workload's circuit
 * and run the heat::verify abstract interpreter over the artifact,
 * printing the structured diagnostic table. Verification is pure
 * static analysis — no keys, no ciphertexts, no simulated cycles — so
 * this is the fastest way to vet a circuit shape before serving it.
 *
 * Workloads (--workload, default "all"):
 *   pir    8-shard resident-prefix PIR selection on the small serving
 *          ring — exercises pinned records and plaintext constants.
 *   mult4  depth-4 multiply chain at the paper parameter set —
 *          exercises Lift/Scale tensor lowering and relinearization.
 *   dot    --len element encrypted dot product — exercises slot reuse
 *          across a wide DAG (spills when --len is large).
 */
int
cmdVerify(const Args &args)
{
    const std::string workload = option(args, "workload", "all");
    const size_t len = uintOption(args, "len", 4, 1, kMaxLen);
    const uint64_t seed = uintOption(args, "seed", 1);
    fatalIf(workload != "all" && workload != "pir" &&
                workload != "mult4" && workload != "dot",
            "unknown --workload '", workload, "' (pir|mult4|dot|all)");
    Xoshiro256 rng(seed * 977 + 13);

    struct Case
    {
        std::string name;
        std::shared_ptr<const fv::FvParams> params;
        compiler::Circuit circuit;
        compiler::CompilerOptions options;
    };
    std::vector<Case> cases;

    if (workload == "all" || workload == "pir") {
        fv::FvConfig fvc;
        fvc.degree = 256;
        fvc.plain_modulus = 257;
        fvc.sigma = 3.2;
        fvc.q_prime_count = 3;
        auto params = fv::FvParams::create(fvc);
        auto randomPlain = [&] {
            fv::Plaintext p;
            p.coeffs.resize(params->degree());
            for (auto &c : p.coeffs)
                c = rng.uniformBelow(params->plainModulus());
            return p;
        };
        constexpr size_t kShards = 8;
        compiler::CircuitBuilder b;
        std::vector<compiler::ValueId> db;
        for (size_t k = 0; k < kShards; ++k)
            db.push_back(b.input());
        const compiler::ValueId query = b.input();
        compiler::ValueId acc = compiler::kNoValue;
        for (size_t k = 0; k < kShards; ++k) {
            const compiler::ValueId sel =
                b.multPlain(db[k], randomPlain());
            acc = (k == 0) ? sel : b.add(acc, sel);
        }
        b.output(b.add(acc, query));
        Case c{"pir", params, b.build(), {}};
        for (uint32_t k = 0; k < kShards; ++k)
            c.options.resident_inputs.push_back(k);
        cases.push_back(std::move(c));
    }
    if (workload == "all" || workload == "mult4") {
        compiler::CircuitBuilder b;
        const compiler::ValueId xa = b.input();
        const compiler::ValueId xc = b.input();
        compiler::ValueId acc = b.mult(xa, xc);
        for (int d = 1; d < 4; ++d)
            acc = b.mult(acc, acc);
        b.output(acc);
        cases.push_back(Case{"mult4", paramsFor(args), b.build(), {}});
    }
    if (workload == "all" || workload == "dot") {
        compiler::CircuitBuilder b;
        std::vector<compiler::ValueId> xa(len), xb(len);
        for (size_t i = 0; i < len; ++i)
            xa[i] = b.input();
        for (size_t i = 0; i < len; ++i)
            xb[i] = b.input();
        compiler::ValueId acc = b.mult(xa[0], xb[0]);
        for (size_t i = 1; i < len; ++i)
            acc = b.add(acc, b.mult(xa[i], xb[i]));
        b.output(acc);
        cases.push_back(Case{"dot", paramsFor(args), b.build(), {}});
    }

    bool all_ok = true;
    for (Case &c : cases) {
        // The compile-time hook would already reject; run the pass
        // explicitly so the table below is this command's output.
        c.options.verify = compiler::VerifyCheck::kOff;
        const compiler::CompiledCircuit compiled =
            compiler::compileCircuit(c.params, c.circuit, c.options);
        const verify::VerifyResult result =
            verify::verifyCompiledCircuit(compiled);
        const std::string verdict =
            result.ok() ? "clean"
                        : std::to_string(result.diagnostics.size()) +
                              " violation(s)";
        std::printf("%-6s %5zu instructions %4zu records %2zu segments "
                    "-> %s\n",
                    c.name.c_str(), result.instructions, result.records,
                    compiled.segments.size(), verdict.c_str());
        for (const verify::Diagnostic &d : result.diagnostics)
            std::printf("    %s\n", d.str().c_str());
        all_ok = all_ok && result.ok();
    }
    std::printf("verify: %s\n", all_ok ? "all circuits clean"
                                       : "violations found");
    return all_ok ? 0 : 1;
}

void
usage()
{
    std::printf(
        "heat_cli — FV homomorphic encryption tool (HEAT reproduction)\n"
        "  heat_cli keygen  --dir keys [--t 65537] [--seed 1]\n"
        "  heat_cli encrypt --dir keys --value 1234 --out a.ct\n"
        "  heat_cli eval    --dir keys --op add|sub|mul a.ct b.ct "
        "--out c.ct\n"
        "  heat_cli decrypt --dir keys c.ct\n"
        "  heat_cli info    c.ct\n"
        "  heat_cli circuit [--len 4] [--workers 2] [--t 65537] "
        "[--seed 1]\n"
        "                   encrypted dot-product demo through the "
        "circuit compiler\n"
        "  heat_cli trace   [--workload pir|mult4] [--out trace.json]\n"
        "                   [--metrics metrics.txt] [--workers 2] "
        "[--requests 4] [--seed 1]\n"
        "                   serve a workload with the span tracer on, "
        "cross-check cycle\n"
        "                   attribution exactly, write a Perfetto-"
        "loadable Chrome trace\n"
        "  heat_cli verify  [--workload pir|mult4|dot|all] [--len 4] "
        "[--t 65537] [--seed 1]\n"
        "                   compile the workload's circuits and run the "
        "static program\n"
        "                   verifier, printing the diagnostic table "
        "(exit 1 on violations)\n"
        "  counts are unsigned decimals: --len 1..64, --workers 1..16, "
        "--requests 1..256\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        if (args.command == "keygen")
            return cmdKeygen(args);
        if (args.command == "encrypt")
            return cmdEncrypt(args);
        if (args.command == "eval")
            return cmdEval(args);
        if (args.command == "decrypt")
            return cmdDecrypt(args);
        if (args.command == "info")
            return cmdInfo(args);
        if (args.command == "circuit")
            return cmdCircuit(args);
        if (args.command == "trace")
            return cmdTrace(args);
        if (args.command == "verify")
            return cmdVerify(args);
        usage();
        return args.command.empty() ? 1 : 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
