#include "hw/isa.h"

#include <sstream>

namespace heat::hw {

const char *
opcodeName(Opcode op)
{
    const auto i = static_cast<size_t>(op);
    return i < kOpcodeCount ? kOpInfo[i].name : "?";
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
    return opInfo(op).unit;
}

namespace {

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
    oss << opInfo(instr.op).mnemonic;
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
