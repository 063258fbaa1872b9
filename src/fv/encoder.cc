#include "fv/encoder.h"

#include "common/panic.h"

namespace heat::fv {

IntegerEncoder::IntegerEncoder(std::shared_ptr<const FvParams> params,
                               uint64_t base)
    : params_(std::move(params)),
      base_(base == 0 ? params_->plainModulus() : base)
{
    fatalIf(base_ < 2, "encoder base must be at least 2");
    fatalIf(base_ > params_->plainModulus(),
            "encoder base cannot exceed the plain modulus");
}

Plaintext
IntegerEncoder::encode(int64_t value) const
{
    const uint64_t t = params_->plainModulus();
    Plaintext plain;
    if (value == 0) {
        plain.coeffs.push_back(0);
        return plain;
    }
    // Digits of the magnitude (unsigned: |INT64_MIN| fits), each negated
    // for a negative value. A residue r from `cut` up becomes the
    // negative digit r - b, so the signed digits land in the balanced
    // range (-b/2, b/2] either way: the magnitude of a negative value
    // takes [-b/2, b/2) before negation. Base 2 is the exception — its
    // balanced range {0, 1} has no negative digit, so the magnitude
    // goes in binary and a negative value gets digits {0, -1}.
    const bool negative = value < 0;
    uint64_t m = negative ? 0 - static_cast<uint64_t>(value)
                          : static_cast<uint64_t>(value);
    const uint64_t cut =
        negative && base_ > 2 ? base_ - base_ / 2 : base_ / 2 + 1;
    while (m != 0) {
        fatalIf(plain.coeffs.size() == params_->degree(),
                "integer too large for the ring degree");
        const uint64_t r = m % base_;
        m /= base_;
        bool below_zero = false;
        uint64_t digit = r;
        if (r >= cut) {
            digit = base_ - r;
            below_zero = true;
            ++m; // the borrowed b carries into the next digit
        }
        below_zero = below_zero != negative;
        plain.coeffs.push_back(below_zero && digit != 0 ? t - digit
                                                        : digit);
    }
    return plain;
}

mp::BigInt
IntegerEncoder::decode(const Plaintext &plain) const
{
    const uint64_t t = params_->plainModulus();
    const mp::BigInt b_big(static_cast<int64_t>(base_));
    // Horner evaluation at x = b over digits centered mod t.
    mp::BigInt acc;
    for (size_t j = plain.coeffs.size(); j-- > 0;) {
        uint64_t d = plain.coeffs[j] % t;
        int64_t centered = d > t / 2
                               ? static_cast<int64_t>(d) -
                                     static_cast<int64_t>(t)
                               : static_cast<int64_t>(d);
        acc = acc * b_big + mp::BigInt(centered);
    }
    return acc;
}

int64_t
IntegerEncoder::decodeInt64(const Plaintext &plain) const
{
    return decode(plain).toInt64();
}

} // namespace heat::fv
