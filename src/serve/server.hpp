// server.hpp — the congen-serve daemon core.
//
// One event thread owns the listener and reads every connection that
// is not busy (see "Who reads a connection" below); session request
// processing runs as tasks on the shared ThreadPool (the same pool the
// sessions' own pipes use — a blocked drive grows the pool, it never
// starves the event loop). The event
// thread parks in poll(2) via concur/fd_park.hpp with no timeout; only a
// ready socket, a close, a hand-back or stop() wakes it, and it rebuilds
// its poll set only after an accept or a wake.
//
// Connection lifecycle:
//   accept -> classify on first bytes
//     "GET " / "HEAD" / "POST"  -> HTTP mode: answer /metrics (registry
//         writeText), /metrics.json (writeJson), /healthz; close.
//     anything else             -> protocol mode: construct the governed
//         Session (Admission gate here: IconError 815 becomes the typed
//         shed response and the socket closes), answer the hello frame,
//         then decode request frames.
//   frames -> appended to the connection's request queue; a session task
//         is scheduled when none is in flight and drains the queue
//         serially (responses in request order — pipelining is free).
//   hangup (POLLRDHUP / EOF / read error) -> Session::onDisconnect()
//         terminates the governor: in-flight drives unwind with 816 at
//         the next charge point, linked pipes cancel, parked queue ops
//         abort within one operation.
//   close (any cause) -> the connection leaves the map at once; its last
//         holder — the event thread, or a session task still running —
//         closes the socket and frees the Session, outside the mutex.
//
// Who reads a connection: exactly one thread at a time, and the read
// side changes hands only under the mutex. The event thread reads it
// until it schedules a task for a request that arrived within kLinger
// of the session's previous response (a client in a busy closed loop).
// That task then owns the reads: after each answer it waits on the
// socket for up to kLinger, reads and decodes the next frames itself
// (through the loop's own pumpConn), and after kLinger of quiet hands
// the reads back and its thread to the pool. While a task owns them the
// loop polls the socket for POLLRDHUP only, so a hangup still ends the
// session at once, and every close shuts the read side, so a waiting
// task wakes at once. A first request, or one that arrives kLinger or
// more after the previous answer, takes the loop's path: the task
// returns when its queue is empty. So a busy session holds one pool
// thread and an idle connection holds none.
//
// The event thread never blocks on a session: reads are non-blocking,
// HTTP responses are bounded, and session work always happens on the
// pool. Session tasks write responses directly to the (non-blocking)
// socket, polling for writability — a slow client throttles exactly its
// own session, and stop() shuts such a socket both ways so it cannot
// hold the drain.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "concur/fd_park.hpp"
#include "runtime/governor.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace congen {
class ThreadPool;
}

namespace congen::serve {

class Server {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
    /// Per-session budgets and knobs (Session::Config semantics).
    Session::Config session;
    /// Process admission ceiling (0/0 = unlimited). When any field is
    /// set, start() installs it on governor::Admission::global() and
    /// stop() restores what was there before.
    governor::Admission::Config admission;
    std::size_t maxFramePayload = kMaxFramePayload;
    /// start() turns the metrics registry on (the /metrics endpoint and
    /// the serve.* instruments need it). Leave on outside tests.
    bool enableMetrics = true;
  };

  /// How long a session task that owns its connection's reads waits
  /// for the next request before it hands them back to the event loop;
  /// also the gap under which a request counts as back-to-back.
  static constexpr std::chrono::milliseconds kLinger{20};

  explicit Server(Config config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and launch the event thread. Throws NetError when
  /// the address is unavailable.
  void start();
  /// Graceful shutdown: stop accepting, terminate every live session,
  /// join the event thread, wait for in-flight tasks. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Live protocol sessions (tests poll this toward 0 after hangups).
  [[nodiscard]] std::size_t liveSessions() const;

 private:
  enum class ConnKind : std::uint8_t { kUnknown, kHttp, kSession };

  struct Conn {
    // Declared first, so it closes last: the peer reads EOF only after
    // the Session is freed.
    Socket socket;
    ConnKind kind = ConnKind::kUnknown;
    std::string sniff;  // bytes buffered before classification
    FrameDecoder decoder{kMaxFramePayload};
    std::shared_ptr<Session> session;
    // Complete request payloads with their arrival timestamps, awaiting
    // the session task. Guarded by the server mutex.
    std::deque<std::pair<std::chrono::steady_clock::time_point, std::string>> pending;
    // When the session task last wrote a response; under mu_.
    std::chrono::steady_clock::time_point answeredAt;
    bool scheduled = false;  // a pool task is draining `pending`
    bool taskReads = false;  // that task owns the reads, not the loop; under mu_
    bool closing = false;    // out of conns_: no further reads or tasks; under mu_
  };

  /// What a pumpConn call left the connection in.
  enum class Pumped : std::uint8_t {
    kOpen,       // read to EAGAIN
    kHandedOff,  // scheduled a task that now owns the reads
    kClose,      // the server ends the connection
    kHungUp,     // EOF or a read error: the peer is gone
  };

  void eventLoop();
  void acceptPending();
  /// Drain readable bytes; classify; enqueue frames, scheduling the
  /// session task. Only the owner of the connection's reads calls it:
  /// the event thread, or the session task that holds them.
  Pumped pumpConn(const std::shared_ptr<Conn>& conn);
  void classify(const std::shared_ptr<Conn>& conn);
  void answerHttp(const std::shared_ptr<Conn>& conn);
  void beginClose(const std::shared_ptr<Conn>& conn, bool peerHungUp);
  void beginCloseLockedImpl(const std::shared_ptr<Conn>& conn, bool peerHungUp);
  /// False when the pool refused the session task. A request that
  /// arrived (`now`) within kLinger of the previous response hands the
  /// task the reads.
  bool scheduleLocked(const std::shared_ptr<Conn>& conn, std::chrono::steady_clock::time_point now);
  void sessionTask(std::shared_ptr<Conn> conn);

  Config config_;
  std::unique_ptr<Listener> listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  FdParker parker_;
  std::thread eventThread_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // open connections, by fd
  std::size_t tasksInFlight_ = 0;

  bool admissionInstalled_ = false;
  governor::Admission::Config priorAdmission_;
};

}  // namespace congen::serve
