// Fixture: a library file including a test-only reference
// implementation must be flagged exactly once (rule
// test-oracle-include); the same path in a comment or a string is not
// an include.  NOT compiled — linter input only.
#include "core/graph.h"
#include "core/testing/reference_assemble.h"
// #include "core/testing/reference_flow.h"

const char* kOracle = "core/testing/reference_flow.h";
