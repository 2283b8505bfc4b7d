// Executable contracts: LHG_CHECK / LHG_DCHECK / LHG_CHECK_RANGE / LHG_ASSUME.
//
// The structural invariants this library is built on — k-connectivity
// witnesses, the Properties 1-4 of the formal LHG definition, CSR
// adjacency well-formedness — are cheap to state in closed form, so we
// state them *in the code* rather than only in tests:
//
//   LHG_CHECK(cond)                 always-on contract; failure is fatal
//   LHG_CHECK(cond, "x={}", x)      with a formatted diagnostic
//   LHG_CHECK_RANGE(i, size)        0 <= i < size, signedness-safe
//   LHG_FAIL("x={}", x)             unconditional failure (unreachable
//                                   branches); never returns
//   LHG_DCHECK / LHG_DCHECK_RANGE   debug-only (NDEBUG strips them unless
//                                   LHG_ENABLE_DCHECKS is defined)
//   LHG_ASSUME(cond)                checked in debug; optimizer hint in
//                                   release (UBSan traps it if violated)
//
// Failure handling is pluggable.  The default handler prints
// "file:line: LHG_CHECK(cond) failed: message" to stderr and aborts —
// the right behavior in production, where continuing past a broken
// invariant corrupts results silently.  Tests install
// `throwing_check_failure_handler`, which throws `ContractViolation`
// instead, so death paths are unit-testable without death tests.
// `ContractViolation` derives from std::invalid_argument because the
// overwhelming majority of contracts are argument preconditions; code
// written against the historical "throws std::invalid_argument"
// documentation keeps working under the throwing handler.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/format.h"

namespace lhg::core {

/// Thrown by `throwing_check_failure_handler` when a contract fails.
/// what() carries "file:line: LHG_CHECK(cond) failed[: message]".
class ContractViolation : public std::invalid_argument {
 public:
  explicit ContractViolation(const std::string& what_arg)
      : std::invalid_argument(what_arg) {}
};

/// A failure handler receives the source location, the stringified
/// condition, and the formatted message ("" if none).  It must not
/// return; if it does, the contracts layer aborts anyway.
using CheckFailureHandler = void (*)(const char* file, int line,
                                     const char* condition,
                                     const std::string& message);

/// Installs `handler` (nullptr restores the default aborting handler).
/// Returns the previously installed handler.  Thread-safe.
CheckFailureHandler set_check_failure_handler(CheckFailureHandler handler);

/// Prints the failure to stderr and calls std::abort().
[[noreturn]] void aborting_check_failure_handler(const char* file, int line,
                                                 const char* condition,
                                                 const std::string& message);

/// Throws ContractViolation.  Install in tests (and in interactive
/// tools that want to report contract failures instead of dying).
[[noreturn]] void throwing_check_failure_handler(const char* file, int line,
                                                 const char* condition,
                                                 const std::string& message);

/// Installs a handler for the current scope and restores the previous
/// one on destruction.
class ScopedCheckFailureHandler {
 public:
  explicit ScopedCheckFailureHandler(CheckFailureHandler handler)
      : previous_(set_check_failure_handler(handler)) {}
  ~ScopedCheckFailureHandler() { set_check_failure_handler(previous_); }

  ScopedCheckFailureHandler(const ScopedCheckFailureHandler&) = delete;
  ScopedCheckFailureHandler& operator=(const ScopedCheckFailureHandler&) =
      delete;

 private:
  CheckFailureHandler previous_;
};

namespace detail {

/// Dispatches to the installed handler; aborts if the handler returns.
[[noreturn]] void check_failed(const char* file, int line,
                               const char* condition,
                               const std::string& message);

[[noreturn]] inline void check_failed(const char* file, int line,
                                      const char* condition) {
  check_failed(file, line, condition, std::string());
}

template <typename... Args>
[[noreturn]] void check_failed(const char* file, int line,
                               const char* condition, std::string_view fmt,
                               const Args&... args) {
  check_failed(file, line, condition, format(fmt, args...));
}

/// 0 <= index < size without signed/unsigned comparison traps.
template <typename Index, typename Size>
constexpr bool index_in_range(Index index, Size size) {
  return std::cmp_greater_equal(index, 0) && std::cmp_less(index, size);
}

}  // namespace detail

/// Narrowing cast that LHG_DCHECKs the value is representable in `To`.
/// The CSR layer indexes size_t containers with int32_t NodeIds; this is
/// the sanctioned bridge between the two worlds.
template <typename To, typename From>
constexpr To checked_cast(From value) {
#if !defined(NDEBUG) || defined(LHG_ENABLE_DCHECKS)
  if (!std::in_range<To>(value)) {
    detail::check_failed(__FILE__, __LINE__, "checked_cast",
                         "value {} not representable in target type", value);
  }
#endif
  return static_cast<To>(value);
}

/// Canonical container-index cast: checked in debug, free in release.
template <typename From>
constexpr std::size_t as_index(From value) {
  return checked_cast<std::size_t>(value);
}

}  // namespace lhg::core

// Always-on contract.  Usage: LHG_CHECK(cond) or LHG_CHECK(cond, fmt, ...).
#define LHG_CHECK(cond, ...)                                              \
  do {                                                                    \
    if (!(cond)) [[unlikely]] {                                           \
      ::lhg::core::detail::check_failed(__FILE__, __LINE__,               \
                                        #cond __VA_OPT__(, ) __VA_ARGS__); \
    }                                                                     \
  } while (false)

// Unconditional contract failure for branches that must not be reached.
// Usage: LHG_FAIL(fmt, ...).  A call to a [[noreturn]] function, so a
// value-returning function may end with it.
#define LHG_FAIL(...) \
  ::lhg::core::detail::check_failed(__FILE__, __LINE__, "false", __VA_ARGS__)

// Always-on bounds contract: 0 <= index < size, any integer signedness.
#define LHG_CHECK_RANGE(index, size)                                      \
  do {                                                                    \
    if (!::lhg::core::detail::index_in_range((index), (size)))            \
        [[unlikely]] {                                                    \
      ::lhg::core::detail::check_failed(                                  \
          __FILE__, __LINE__, #index " in [0, " #size ")",                \
          "index {} out of range [0, {})", (index), (size));              \
    }                                                                     \
  } while (false)

#if !defined(NDEBUG) || defined(LHG_ENABLE_DCHECKS)
#define LHG_DCHECKS_ENABLED 1
#endif

#ifdef LHG_DCHECKS_ENABLED
#define LHG_DCHECK(cond, ...) LHG_CHECK(cond __VA_OPT__(, ) __VA_ARGS__)
#define LHG_DCHECK_RANGE(index, size) LHG_CHECK_RANGE(index, size)
// Checked in debug; in release the optimizer may assume `cond` holds.
#define LHG_ASSUME(cond) LHG_CHECK(cond)
#else
// Disabled checks still parse (and "use") their operands, but never
// evaluate them, so DCHECK-only variables don't warn under -Wunused.
#define LHG_DCHECK(cond, ...) \
  do {                        \
    if (false) {              \
      (void)sizeof(!(cond));  \
    }                         \
  } while (false)
#define LHG_DCHECK_RANGE(index, size)             \
  do {                                            \
    if (false) {                                  \
      (void)sizeof(!((index) == 0 || (size) == 0)); \
    }                                             \
  } while (false)
// `cond` must be side-effect free: release builds evaluate it only to
// feed __builtin_unreachable, and UBSan converts a violation to a trap.
#define LHG_ASSUME(cond)         \
  do {                           \
    if (!(cond)) {               \
      __builtin_unreachable();   \
    }                            \
  } while (false)
#endif
