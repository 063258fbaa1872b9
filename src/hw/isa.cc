#include "hw/isa.h"

#include <sstream>

namespace heat::hw {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::kNtt:
        return "NTT";
      case Opcode::kIntt:
        return "Inverse-NTT";
      case Opcode::kCoeffMul:
        return "Coeff-wise Multiplication";
      case Opcode::kCoeffAdd:
        return "Coeff-wise Addition";
      case Opcode::kCoeffSub:
        return "Coeff-wise Subtraction";
      case Opcode::kRearrange:
        return "Memory Rearrange";
      case Opcode::kLift:
        return "Lift q->Q";
      case Opcode::kScale:
        return "Scale Q->q";
      case Opcode::kAutomorph:
        return "Galois Automorphism";
      case Opcode::kKeyLoad:
        return "Key-switch-key DMA";
      case Opcode::kModSwitch:
        return "Modulus Switch";
    }
    return "?";
}

const char *
unitName(Unit unit)
{
    switch (unit) {
      case Unit::kNttUnit:
        return "NTT";
      case Unit::kLiftUnit:
        return "Lift";
      case Unit::kScaleUnit:
        return "Scale";
      case Unit::kCoeffUnit:
        return "CoeffUnit";
      case Unit::kModReduceUnit:
        return "ModReduce";
      case Unit::kDmaUnit:
        return "DMA";
      case Unit::kKeyLoadUnit:
        return "KeyLoad";
      case Unit::kArmUnit:
        return "Arm";
    }
    return "?";
}

Unit
unitOf(Opcode op)
{
    switch (op) {
      case Opcode::kNtt:
      case Opcode::kIntt:
      case Opcode::kRearrange:
      case Opcode::kAutomorph:
        // Rearrange and the automorphism permutation run on the NTT
        // engine's memory datapath.
        return Unit::kNttUnit;
      case Opcode::kCoeffMul:
      case Opcode::kCoeffAdd:
      case Opcode::kCoeffSub:
        return Unit::kCoeffUnit;
      case Opcode::kLift:
        return Unit::kLiftUnit;
      case Opcode::kScale:
        return Unit::kScaleUnit;
      case Opcode::kModSwitch:
        // Physically the Scale unit's divide-and-round datapath, but
        // bucketed separately so leveled circuits show their drop cost.
        return Unit::kModReduceUnit;
      case Opcode::kKeyLoad:
        return Unit::kKeyLoadUnit;
    }
    return Unit::kArmUnit;
}

namespace {

const char *
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::kNtt:
        return "ntt";
      case Opcode::kIntt:
        return "intt";
      case Opcode::kCoeffMul:
        return "cmul";
      case Opcode::kCoeffAdd:
        return "cadd";
      case Opcode::kCoeffSub:
        return "csub";
      case Opcode::kRearrange:
        return "rearr";
      case Opcode::kLift:
        return "lift";
      case Opcode::kScale:
        return "scale";
      case Opcode::kAutomorph:
        return "autmp";
      case Opcode::kKeyLoad:
        return "kload";
      case Opcode::kModSwitch:
        return "mswitch";
    }
    return "?";
}

void
appendPoly(std::ostringstream &oss, PolyId id)
{
    if (id == kNoPoly)
        oss << " -";
    else
        oss << " p" << id;
}

} // namespace

std::string
disassemble(const Instruction &instr)
{
    std::ostringstream oss;
    oss << mnemonic(instr.op);
    if (instr.op == Opcode::kKeyLoad) {
        oss << " digit=" << keyLoadDigit(instr.aux);
        if (keyLoadSelector(instr.aux) != 0)
            oss << " g=" << keyLoadSelector(instr.aux);
    } else {
        appendPoly(oss, instr.dst);
        if (instr.src0 != kNoPoly)
            appendPoly(oss, instr.src0);
        if (instr.src1 != kNoPoly)
            appendPoly(oss, instr.src1);
        oss << " b" << static_cast<int>(instr.batch);
        if (instr.op == Opcode::kAutomorph)
            oss << " g=" << instr.aux;
    }
    if (!instr.extra.empty()) {
        oss << " ->";
        for (PolyId id : instr.extra)
            appendPoly(oss, id);
    }
    return oss.str();
}

std::string
Program::listing() const
{
    std::ostringstream oss;
    for (size_t i = 0; i < instrs.size(); ++i) {
        oss << (i < 10 ? "  " : i < 100 ? " " : "") << i << ": "
            << disassemble(instrs[i]) << "\n";
    }
    return oss.str();
}

} // namespace heat::hw
