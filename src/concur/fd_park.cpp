#include "concur/fd_park.hpp"

#include <cerrno>
#include <cstdlib>

#include <fcntl.h>
#include <unistd.h>

namespace congen {

FdParker::FdParker() {
  int fds[2];
#if defined(__linux__)
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) std::abort();
#else
  if (::pipe(fds) != 0) std::abort();
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
#endif
  wakeRead_ = fds[0];
  wakeWrite_ = fds[1];
}

FdParker::~FdParker() {
  ::close(wakeRead_);
  ::close(wakeWrite_);
}

bool FdParker::park(std::vector<pollfd>& fds) {
  fds.push_back({wakeRead_, POLLIN, 0});
  int ready;
  do {
    ready = ::poll(fds.data(), fds.size(), -1);
  } while (ready < 0 && errno == EINTR);
  const bool woken = ready > 0 && (fds.back().revents & POLLIN) != 0;
  if (woken) {
    char buf[64];
    while (::read(wakeRead_, buf, sizeof buf) > 0) {
    }
  }
  fds.pop_back();
  return woken;
}

void FdParker::wake() noexcept {
  const char byte = 1;
  // EAGAIN means the pipe already holds an unconsumed wake — coalesced,
  // nothing to do. Nothing else can fail: the parker owns both ends.
  [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &byte, 1);
}

}  // namespace congen
