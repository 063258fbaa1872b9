/**
 * @file
 * Shared static-verification support for the test suites:
 * expectVerifiesClean() for suites that hold a CompiledCircuit and
 * want the structured diagnostic table in the gtest failure message.
 * (Every compileCircuit and every ExecutionService admission already
 * rejects a violating program by default.)
 */

#ifndef HEAT_TESTS_VERIFY_SUPPORT_H
#define HEAT_TESTS_VERIFY_SUPPORT_H

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "verify/verify.h"

namespace heat::testing {

/** Run the static verifier over @p compiled and fail the current test
 *  with the full diagnostic table if any invariant is violated. */
inline void
expectVerifiesClean(const compiler::CompiledCircuit &compiled,
                    const char *what = "compiled circuit")
{
    const verify::VerifyResult result =
        verify::verifyCompiledCircuit(compiled);
    EXPECT_TRUE(result.ok()) << what << ": " << result.report();
}

} // namespace heat::testing

#endif // HEAT_TESTS_VERIFY_SUPPORT_H
