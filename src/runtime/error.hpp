// error.hpp — run-time error signalling for goal-directed evaluation.
//
// Icon distinguishes *failure* (an expression produces no value; handled by
// the iterator protocol, never by exceptions) from *run-time errors*
// (type-coercion faults, division by zero, ...). The latter map onto C++
// exceptions derived from IconError, mirroring Icon's numbered run-time
// errors.
#pragma once

#include <stdexcept>
#include <string>

namespace congen {

/// A Unicon run-time error (e.g. "101: integer expected").
class IconError : public std::runtime_error {
 public:
  IconError(int number, const std::string& message)
      : std::runtime_error(std::to_string(number) + ": " + message),
        number_(number),
        message_(message) {}

  [[nodiscard]] int number() const noexcept { return number_; }
  /// The bare message, without the "NNN: " prefix of what(). This is
  /// what &errorvalue reports after an error is converted to failure.
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

 private:
  int number_;
  std::string message_;
};

/// 101: integer expected or out of range.
inline IconError errIntegerExpected(const std::string& what) {
  return {101, "integer expected: " + what};
}
/// 102: numeric expected.
inline IconError errNumericExpected(const std::string& what) {
  return {102, "numeric expected: " + what};
}
/// 103: string expected.
inline IconError errStringExpected(const std::string& what) {
  return {103, "string expected: " + what};
}
/// 106: procedure or callable expected.
inline IconError errCallableExpected(const std::string& what) {
  return {106, "procedure expected: " + what};
}
/// 108: list expected.
inline IconError errListExpected(const std::string& what) { return {108, "list expected: " + what}; }
/// 115: co-expression expected.
inline IconError errCoExprExpected(const std::string& what) {
  return {115, "co-expression expected: " + what};
}
/// 201: division by zero.
inline IconError errDivisionByZero() { return {201, "division by zero"}; }
/// 205: invalid value.
inline IconError errInvalidValue(const std::string& what) { return {205, "invalid value: " + what}; }
/// 305: the system allocator failed (real exhaustion or an injected
/// ArenaAlloc/RcAlloc fault) — Icon's "inadequate space", surfaced as a
/// catchable run-time error instead of a raw std::bad_alloc.
inline IconError errOutOfMemory(const std::string& what) {
  return {305, "inadequate space: " + what};
}
/// 801: a concurrent stage died with a non-Icon exception; the original
/// cause is preserved in the message so containment never loses it.
inline IconError errStageFailed(const std::string& what) {
  return {801, "pipeline stage failed: " + what};
}
/// 803: a thread activated a co-expression or pipe while another thread
/// was inside an activation of it (one thread at a time steps a generator).
inline IconError errConcurrentActivation() {
  return {803, "co-expression activated by two threads at once"};
}
// 81x — the errQuotaExceeded family (runtime/governor.hpp). With one
// exception these are ordinary catchable run-time errors: `&error`
// conversion applies at the shared kernel operator nodes, so the VM and
// emitted code trip with identical number and message. The
// exception is 816 (session terminated): it is the Supervisor tearing
// the session down, and ErrorEnv::convertToFailure refuses to convert
// it — a script cannot spend &error credit to outlive its own teardown.
/// 810: the session's evaluation-fuel budget is exhausted.
inline IconError errFuelExhausted() { return {810, "quota exceeded: evaluation fuel"}; }
/// 811: the session's heap-byte budget is exhausted.
inline IconError errHeapQuota() { return {811, "quota exceeded: heap bytes"}; }
/// 812: too many live co-expressions for the session's budget.
inline IconError errCoexprQuota() { return {812, "quota exceeded: co-expressions"}; }
/// 812: too many live pipes for the session's budget (same number as the
/// co-expression trip — a pipe IS a co-expression — message differs).
inline IconError errPipeQuota() { return {812, "quota exceeded: pipes"}; }
/// 813: recursion/suspension depth budget exceeded.
inline IconError errDepthQuota() { return {813, "quota exceeded: recursion depth"}; }
/// 815: the process admission gate refused a new governed session.
inline IconError errAdmissionRefused(const std::string& what) {
  return {815, "session admission refused: " + what};
}
/// 816: the Supervisor hard-terminated this session; every governed
/// thread raises this at its next charge point and unwinds. NOT
/// convertible to failure via &error (see kErrSessionTerminated).
inline constexpr int kErrSessionTerminated = 816;
inline IconError errSessionTerminated() {
  return {kErrSessionTerminated, "session terminated by supervisor"};
}

}  // namespace congen
