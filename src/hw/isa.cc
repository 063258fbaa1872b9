#include "hw/isa.h"

#include <algorithm>
#include <sstream>

#include "hw/rpau.h"

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

bool
overwritesRecord(const fv::FvParams &params, const Instruction &instr,
                 PolyId id, const SlotLogShape &log)
{
    if (id >= log.records.size())
        return false;
    const OpInfo &info = opInfo(instr.op);
    const auto writes = [](Role role) {
        return role == Role::kWritten || role == Role::kOptional;
    };
    bool written = false;
    for (const auto &[field, role] :
         {std::pair{instr.dst, info.dst}, std::pair{instr.src0, info.src0},
          std::pair{instr.src1, info.src1}}) {
        if (field != id)
            continue;
        if (!writes(role))
            return false;
        written = true;
    }
    if (std::find(instr.extra.begin(), instr.extra.end(), id) !=
        instr.extra.end()) {
        if (info.extra == ExtraRole::kKeyBuffers)
            return true;
        if (info.extra == ExtraRole::kNone)
            return false;
        written = true;
    }
    if (!written)
        return false;

    const RecordShape &shape = log.records[id];
    const size_t live = shapeResidues(params, shape);
    const size_t kq = params.qPrimeCount(shape.level);
    if (info.batched) {
        return (instr.batch == 0 || instr.batch == 1) &&
               residuesOfBatch(instr.batch, kq, live).size() == live;
    }
    if (instr.src0 >= log.records.size())
        return false;
    return live <= std::min(
                       kq, params.qPrimeCount(log.records[instr.src0].level));
}

} // namespace heat::hw
