#include "hw/rpau.h"

namespace heat::hw {

size_t
rpauForResidue(size_t residue, size_t q_prime_count)
{
    return residue < q_prime_count ? residue : residue - q_prime_count;
}

int
batchOfResidue(size_t residue, size_t q_prime_count)
{
    return residue < q_prime_count ? 0 : 1;
}

} // namespace heat::hw
