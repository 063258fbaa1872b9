#include "fv/keys.h"

namespace heat::fv {

size_t
RelinKeys::byteSize() const
{
    size_t total = 0;
    for (const auto &pair : keys) {
        for (const auto &poly : pair)
            total += poly.residueCount() * poly.degree() * sizeof(uint32_t);
    }
    return total;
}

} // namespace heat::fv
