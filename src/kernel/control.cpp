#include "kernel/control.hpp"

#include "runtime/error.hpp"

namespace congen {

// ---------------------------------------------------------------------
// IfGen
// ---------------------------------------------------------------------

bool IfGen::doNext(Result& out) {
  if (!decided_) {
    cond_->restart();
    const bool taken = cond_->next(out);
    decided_ = true;
    if (taken) {
      branch_ = then_.get();
      then_->restart();
    } else {
      branch_ = else_.get();
      if (else_) else_->restart();
    }
  }
  if (!branch_) return false;  // condition failed, no else: fail
  return branch_->next(out);
}

void IfGen::doRestart() {
  decided_ = false;
  branch_ = nullptr;
  cond_->restart();
  then_->restart();
  if (else_) else_->restart();
}

// ---------------------------------------------------------------------
// LoopGen
// ---------------------------------------------------------------------

bool LoopGen::stepControl(Result& out, bool& propagate) {
  propagate = false;
  switch (kind_) {
    case Kind::Repeat:
      return true;
    case Kind::Every: {
      if (!control_->next(out)) return false;
      if (out.isControl()) propagate = true;
      return true;
    }
    case Kind::While: {
      control_->restart();
      if (!control_->next(out)) return false;
      if (out.isControl()) propagate = true;
      return true;
    }
    case Kind::Until: {
      control_->restart();
      if (control_->next(out)) {
        if (out.isControl()) propagate = true;
        return false;  // condition succeeded: until terminates
      }
      return true;
    }
  }
  return false;
}

bool LoopGen::doNext(Result& out) {
  if (done_) return false;
  while (true) {
    if (inBody_) {
      bool produced = false;
      try {
        produced = body_->next(out);
      } catch (const BreakSignal&) {
        done_ = true;
        return false;
      } catch (const NextSignal&) {
        inBody_ = false;
        continue;
      }
      if (!produced) {
        inBody_ = false;  // the bounded body failed: next control iteration
        continue;
      }
      if (out.flags & Result::kSuspend) return true;  // propagate; resume here later
      if (out.flags & (Result::kReturn | Result::kFailBody)) {
        done_ = true;
        return true;
      }
      inBody_ = false;  // bounded body produced its one result
      continue;
    }
    bool propagate = false;
    bool more = false;
    try {
      more = stepControl(out, propagate);
    } catch (const BreakSignal&) {
      done_ = true;
      return false;
    } catch (const NextSignal&) {
      continue;
    }
    if (propagate) {
      if (out.flags & (Result::kReturn | Result::kFailBody)) done_ = true;
      return true;
    }
    if (!more) return false;  // loops produce no values of their own
    if (body_) {
      body_->restart();
      inBody_ = true;
    }
  }
}

void LoopGen::doRestart() {
  inBody_ = false;
  done_ = false;
  if (control_) control_->restart();
  if (body_) body_->restart();
}

// ---------------------------------------------------------------------
// CaseGen
// ---------------------------------------------------------------------

bool CaseGen::doNext(Result& out) {
  if (!decided_) {
    decided_ = true;
    control_->restart();
    Result control;
    if (!control_->next(control)) return false;  // control failed: case fails
    for (auto& branch : branches_) {
      if (!branch.value) {  // default
        selected_ = branch.body.get();
        break;
      }
      branch.value->restart();
      bool matched = false;
      Result v;
      while (branch.value->next(v)) {
        if (v.value.equals(control.value)) {
          matched = true;
          break;
        }
      }
      if (matched) {
        selected_ = branch.body.get();
        break;
      }
    }
    if (selected_) selected_->restart();
  }
  if (!selected_) return false;
  return selected_->next(out);
}

void CaseGen::doRestart() {
  decided_ = false;
  selected_ = nullptr;
  control_->restart();
  for (auto& b : branches_) {
    if (b.value) b.value->restart();
    b.body->restart();
  }
}

// ---------------------------------------------------------------------
// SuspendGen / ReturnGen
// ---------------------------------------------------------------------

bool SuspendGen::doNext(Result& out) {
  if (!expr_->next(out)) return false;  // exhausted: the suspend statement completes
  if (out.isControl()) return true;     // nested suspend/return already flagged
  out.flags |= Result::kSuspend;
  return true;
}

bool ReturnGen::doNext(Result& out) {
  if (!expr_->next(out)) {
    out.set(Value::null(), nullptr, Result::kFailBody);  // return of a failed expr fails
    return true;
  }
  if (out.isControl()) return true;
  out.flags |= Result::kReturn;
  return true;
}

// ---------------------------------------------------------------------
// BodyRootGen
// ---------------------------------------------------------------------

bool BodyRootGen::doNext(Result& out) {
  if (terminated_) return false;
  if (!inner_) inner_ = build_(args_);
  // One depth unit per live emitted activation on this thread's C++
  // stack; the VM charges the same budget per live callee activation
  // (VmGen::run), so both paths trip 813 at the same depth.
  governor::DepthGuard depthGuard;
  while (true) {
    bool produced = false;
    try {
      produced = inner_->next(out);
    } catch (const BreakSignal&) {
      // Icon run-time error 506-ish: break outside of a loop.
      terminated_ = true;
      throw IconError(506, "break outside of a loop");
    } catch (const NextSignal&) {
      terminated_ = true;
      throw IconError(506, "next outside of a loop");
    }
    if (!produced) {
      terminated_ = true;
      return false;  // fell off the end of the body: fail
    }
    if (out.flags & Result::kSuspend) {
      out.flags &= static_cast<std::uint8_t>(~Result::kSuspend);
      return true;
    }
    if (out.flags & Result::kReturn) {
      terminated_ = true;
      out.flags &= static_cast<std::uint8_t>(~Result::kReturn);
      return true;
    }
    if (out.flags & Result::kFailBody) {
      terminated_ = true;
      return false;
    }
    // A plain result at body level is discarded (statement values are not
    // procedure results).
  }
}

void BodyRootGen::doRestart() {
  terminated_ = false;
  if (build_) {
    inner_.reset();  // the next drive builds the call's body again
  } else {
    inner_->restart();
  }
}

}  // namespace congen
