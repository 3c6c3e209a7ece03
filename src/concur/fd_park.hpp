// fd_park.hpp — poll(2)-based parking for file-descriptor event loops.
//
// The serve daemon's event loop (src/serve/server.cpp) owns the
// listener and every live session socket and must sleep until one of
// them is readable — but it must also be wakeable from other threads
// (stop(), a session task closing its connection) without busy-polling
// or a timeout tick. FdParker wraps that pattern:
//
//   - park(fds) sleeps in ::poll, with no timeout, over the caller's
//     descriptor set plus an internal self-pipe;
//   - wake() (any thread, async-signal-safe) writes one byte to the
//     self-pipe, making a concurrent or future park() return
//     immediately. Wakes are sticky-until-consumed and coalesce: any
//     number of wake() calls before a park collapse into one wakeup,
//     and park() drains the pipe before returning, so a wake is never
//     double-counted but never lost either.
//
// This is the same park/unpark shape as SpscRing's futex protocol, one
// layer up: the "futex word" is the pipe, the kernel does the fence.
// EINTR is retried internally; park() only returns on readiness or a
// wake.
#pragma once

#include <cstddef>
#include <vector>

#include <poll.h>

namespace congen {

class FdParker {
 public:
  FdParker();
  ~FdParker();
  FdParker(const FdParker&) = delete;
  FdParker& operator=(const FdParker&) = delete;

  /// Sleep until some fd in `fds` has pending events or wake() is
  /// called. On return, the revents fields of `fds` are filled in as by
  /// ::poll; a wakeup via wake() is consumed and reported by the return
  /// value, not in `fds`. Returns true when woken.
  bool park(std::vector<pollfd>& fds);

  /// Make the current or next park() return immediately. Safe from any
  /// thread and from signal handlers (one write() on an O_NONBLOCK fd).
  void wake() noexcept;

 private:
  int wakeRead_ = -1;
  int wakeWrite_ = -1;
};

}  // namespace congen
