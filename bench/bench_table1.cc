/**
 * @file
 * Reproduces Table I: performance of the high-level operations on one
 * coprocessor — Mult in HW, Add in HW, Add in SW, and the ciphertext
 * send/receive costs. Paper numbers are Arm cycle counts at 1.2 GHz;
 * both cycle counts and milliseconds are printed.
 */

#include <cstdio>

#include "bench_util.h"
#include "compiler/compiler.h"
#include "fv/params.h"
#include "hw/arm_host.h"
#include "hw/coprocessor.h"

using namespace heat;
using namespace heat::hw;

int
main(int argc, char **argv)
{
    bench::JsonReporter json("table1", argc, argv);
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);
    ArmHostModel host(params, config);

    // The served Mult program, priced per instruction as Table I was
    // measured.
    const Program mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config)
            .segments.at(0)
            .program;

    double mult_us = 0.0;
    for (const auto &i : mult.instrs) {
        mult_us += config.cyclesToUs(cp.instructionCycles(i));
        mult_us += cp.instructionDmaUs(i);
    }

    Instruction add_instr;
    add_instr.op = Opcode::kCoeffAdd;
    const double add_hw_us =
        2.0 * config.cyclesToUs(cp.instructionCycles(add_instr));
    const double add_sw_us = host.softwareAddUs();
    const double send_us = host.sendCiphertextsUs(2);
    const double recv_us = host.receiveCiphertextUs();

    bench::printHeader(
        "Table I: high-level operations, one coprocessor (ms)");
    bench::printRow("Mult in HW", 4.458, mult_us / 1e3, "ms");
    bench::printRow("Add in HW", 0.026, add_hw_us / 1e3, "ms");
    bench::printRow("Add in SW", 45.567, add_sw_us / 1e3, "ms");
    bench::printRow("Send two ciphertexts to HW", 0.362, send_us / 1e3,
                    "ms");
    bench::printRow("Receive result ciphertext", 0.180, recv_us / 1e3,
                    "ms");

    bench::printHeader(
        "Table I in Arm cycle counts (1.2 GHz, the paper's unit)");
    bench::printRow("Mult in HW", 5349567,
                    static_cast<double>(config.usToArmCycles(mult_us)),
                    "cy");
    bench::printRow("Add in HW", 31339,
                    static_cast<double>(config.usToArmCycles(add_hw_us)),
                    "cy");
    bench::printRow("Add in SW", 54680467,
                    static_cast<double>(config.usToArmCycles(add_sw_us)),
                    "cy");
    bench::printRow("Send two ciphertexts to HW", 434013,
                    static_cast<double>(config.usToArmCycles(send_us)),
                    "cy");
    bench::printRow("Receive result ciphertext", 215697,
                    static_cast<double>(config.usToArmCycles(recv_us)),
                    "cy");

    std::printf("\nAdd in SW / Add in HW (incl. transfers): %.0fx "
                "(paper: ~80x)\n",
                add_sw_us / (add_hw_us + send_us + recv_us));

    const size_t n = params->degree();
    const size_t k = params->qBase()->size();
    json.record("hw_mult", mult_us * 1e3, "ns", n, k);
    json.record("hw_add", add_hw_us * 1e3, "ns", n, k);
    json.record("sw_add", add_sw_us * 1e3, "ns", n, k);
    json.record("send_two_ciphertexts", send_us * 1e3, "ns", n, k);
    json.record("receive_ciphertext", recv_us * 1e3, "ns", n, k);
    return 0;
}
