#include "hw/arm_host.h"

namespace heat::hw {

ArmHostModel::ArmHostModel(std::shared_ptr<const fv::FvParams> params,
                           const HwConfig &config)
    : params_(std::move(params)), config_(config), dma_(config)
{
}

size_t
ArmHostModel::polyBytes() const
{
    return params_->qBase()->size() * params_->degree() * sizeof(uint32_t);
}

double
ArmHostModel::sendPolysUs(size_t count) const
{
    // Coefficients live in contiguous memory (Sec. V-D), so each
    // polynomial moves as one single-descriptor burst; the host adds a
    // fixed staging cost per polynomial.
    const double per_poly =
        dma_.transferUs(polyBytes()) + config_.host_transfer_setup_us;
    return static_cast<double>(count) * per_poly;
}

double
ArmHostModel::receivePolysUs(size_t count) const
{
    return sendPolysUs(count); // symmetric single-burst transfers
}

double
ArmHostModel::sendCiphertextsUs(size_t count) const
{
    return sendPolysUs(2 * count);
}

double
ArmHostModel::receiveCiphertextUs() const
{
    return receivePolysUs(2);
}

double
ArmHostModel::softwareAddUs() const
{
    // One modular add per coefficient per residue per polynomial, at
    // the calibrated baremetal cost (DDR-bound loop on the A53).
    const double ops = 2.0 *
                       static_cast<double>(params_->qBase()->size()) *
                       static_cast<double>(params_->degree());
    return ops * config_.arm_sw_modadd_cycles / config_.arm_clock_hz * 1e6;
}

} // namespace heat::hw
