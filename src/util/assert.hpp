// Lightweight contract-checking macros for the pcs library.
//
// PCS_REQUIRE is a precondition check that stays on in all build types: the
// library simulates hardware whose correctness claims are the entire point,
// so we never silently accept malformed dimensions or indices.  Violations
// throw pcs::ContractViolation with file/line context so tests can assert on
// them and applications can recover.
//
// The message argument is a stream expression, built only on failure, so
// call sites can (and should) include the offending values:
//   PCS_REQUIRE(m >= 1 && m <= n, "compile_hyper_plan m range: m=" << m << " n=" << n);
// A plain string literal still works unchanged.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pcs {

/// Thrown when a PCS_REQUIRE precondition fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* expr, const char* file, int line,
                                       const std::string& msg) {
  std::string full = std::string("contract violated: ") + expr + " at " + file + ":" +
                     std::to_string(line);
  if (!msg.empty()) full += " (" + msg + ")";
  throw ContractViolation(full);
}
}  // namespace detail

}  // namespace pcs

#define PCS_REQUIRE(expr, msg)                                                \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::std::ostringstream pcs_require_msg_;                                  \
      pcs_require_msg_ << msg;                                                \
      ::pcs::detail::contract_fail(#expr, __FILE__, __LINE__,                 \
                                   pcs_require_msg_.str());                   \
    }                                                                         \
  } while (0)
