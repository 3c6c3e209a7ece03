#include "serve/server.hpp"

#include <cerrno>
#include <sstream>
#include <vector>

#include <sys/socket.h>

#include "concur/fault_injection.hpp"
#include "concur/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/error.hpp"

#ifndef POLLRDHUP
#define POLLRDHUP 0
#endif

namespace congen::serve {

namespace {

/// Cap on buffered HTTP header bytes before the connection is dropped.
constexpr std::size_t kMaxHttpHeader = 16 * 1024;

std::string httpResponse(int code, const char* reason, const char* contentType,
                         const std::string& body, bool headOnly) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + contentType +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  if (!headOnly) out += body;
  return out;
}

}  // namespace

Server::Server(Config config) : config_(std::move(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (config_.enableMetrics) obs::enableMetrics();
  if (config_.admission.maxSessions != 0 || config_.admission.maxCommittedHeapBytes != 0) {
    priorAdmission_ = governor::Admission::global().config();
    governor::Admission::global().configure(config_.admission);
    admissionInstalled_ = true;
  }
  listener_ = std::make_unique<Listener>(config_.host, config_.port);
  port_ = listener_->port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  eventThread_ = std::thread([this] { eventLoop(); });
}

void Server::stop() {
  if (eventThread_.joinable()) {
    stopping_.store(true, std::memory_order_release);
    parker_.wake();
    eventThread_.join();
    // The loop closed every connection on its way out, shutting down the
    // socket of each one whose task still runs, so no blocked write can
    // hold the drain. A session task drops its Conn, and so its Session,
    // before it counts itself out.
    std::unique_lock lock(mu_);
    drained_.wait(lock, [this] { return tasksInFlight_ == 0; });
  }
  running_.store(false, std::memory_order_release);
  if (admissionInstalled_) {
    governor::Admission::global().configure(priorAdmission_);
    admissionInstalled_ = false;
  }
}

std::size_t Server::liveSessions() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [fd, conn] : conns_) {
    if (conn->session != nullptr) ++n;
  }
  return n;
}

void Server::eventLoop() {
  std::vector<pollfd> fds;
  bool rebuild = true;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (rebuild) {
      std::lock_guard lock(mu_);
      fds.clear();
      fds.push_back({listener_->fd(), POLLIN, 0});
      for (const auto& [fd, conn] : conns_) {
        const short events = conn->taskReads ? POLLRDHUP : POLLIN | POLLRDHUP;
        fds.push_back({fd, events, 0});
      }
    }
    // Only a close, a hand-back or stop() wakes the parker, and each one
    // changes the connection set or what the loop asks of a socket.
    rebuild = parker_.park(fds);
    for (pollfd& p : fds) {
      if (p.revents == 0) continue;
      if (p.fd == listener_->fd()) {
        acceptPending();
        rebuild = true;
        continue;
      }
      std::shared_ptr<Conn> conn;
      bool taskReads = false;
      {
        std::lock_guard lock(mu_);
        auto it = conns_.find(p.fd);
        if (it == conns_.end()) continue;
        conn = it->second;
        taskReads = conn->taskReads;
      }
      if (taskReads) {
        // POLLRDHUP, all the loop asks while a task reads: the peer hung up.
        beginClose(conn, /*peerHungUp=*/true);
        continue;
      }
      switch (pumpConn(conn)) {
        case Pumped::kOpen:
          break;
        case Pumped::kHandedOff:
          p.events = POLLRDHUP;
          break;
        case Pumped::kClose:
          beginClose(conn, /*peerHungUp=*/false);
          break;
        case Pumped::kHungUp:
          beginClose(conn, /*peerHungUp=*/true);
          break;
      }
    }
  }
  listener_.reset();  // refuse new connects
  std::unordered_map<int, std::shared_ptr<Conn>> open;
  {
    std::lock_guard lock(mu_);
    open.swap(conns_);
    for (const auto& [fd, conn] : open) {
      beginCloseLockedImpl(conn, /*peerHungUp=*/false);
      // Its task may be blocked writing to a client that stopped reading:
      // with the socket shut both ways, that send fails (EPIPE) at once.
      if (conn->scheduled) ::shutdown(fd, SHUT_RDWR);
    }
  }
  // `open` drops here, outside mu_, freeing every Session no task holds.
}

void Server::acceptPending() {
  const bool metrics = obs::metricsEnabled();
  for (;;) {
    Socket s;
    try {
      s = listener_->accept();
    } catch (const std::exception&) {
      // EMFILE and kin (or an injected ServeAccept fault): survive it —
      // the pending connection stays queued and the next readable edge
      // retries. The loop must keep serving existing sessions.
      if (metrics) [[unlikely]] obs::ServeStats::get().acceptFailures.add(1);
      return;
    }
    if (!s.valid()) return;
    s.setNonBlocking(true);
    if (metrics) [[unlikely]] obs::ServeStats::get().connectionsAccepted.add(1);
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(s);
    conn->decoder = FrameDecoder(config_.maxFramePayload);
    std::lock_guard lock(mu_);
    conns_.emplace(conn->socket.fd(), conn);
  }
}

Server::Pumped Server::pumpConn(const std::shared_ptr<Conn>& conn) {
  const bool metrics = obs::metricsEnabled();
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->socket.fd(), buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Pumped::kHungUp;  // reset and kin: peer is gone
    }
    if (n == 0) return Pumped::kHungUp;
    if (metrics) [[unlikely]] {
      obs::ServeStats::get().bytesRead.add(static_cast<std::uint64_t>(n));
    }
    const std::string_view bytes(buf, static_cast<std::size_t>(n));
    if (conn->kind == ConnKind::kUnknown) {
      conn->sniff.append(bytes);
      classify(conn);
      if (conn->closing) return Pumped::kClose;  // shed or bad classification
      if (conn->kind == ConnKind::kUnknown) continue;  // need more bytes
    } else if (conn->kind == ConnKind::kHttp) {
      conn->sniff.append(bytes);
    } else {
      conn->decoder.feed(bytes);
    }
    if (conn->kind == ConnKind::kHttp) {
      if (conn->sniff.find("\r\n\r\n") != std::string::npos) {
        answerHttp(conn);
        return Pumped::kClose;  // answerHttp began the close
      }
      if (conn->sniff.size() > kMaxHttpHeader) return Pumped::kClose;
      continue;
    }
    // Session frames.
    if (conn->decoder.error()) {
      if (metrics) [[unlikely]] obs::ServeStats::get().protocolErrors.add(1);
      try {
        writeAll(conn->socket, makeError(kErrFrameTooLarge, "frame exceeds payload limit"));
      } catch (const std::exception&) {
      }
      return Pumped::kClose;
    }
    std::uint64_t frames = 0;
    bool byTask, refused = false, handedOff = false;
    {
      std::lock_guard lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      while (auto payload = conn->decoder.next()) {
        conn->pending.emplace_back(now, std::move(*payload));
        ++frames;
      }
      // Only the owner of the reads gets here, so this says who it is.
      byTask = conn->taskReads;
      if (!byTask) {
        refused = !scheduleLocked(conn, now);
        handedOff = conn->taskReads;
      }
    }
    if (byTask && metrics) [[unlikely]] obs::ServeStats::get().sessionReads.add(frames);
    if (refused) {
      // The client waits for a reply and sends nothing more, so a request
      // left queued would never be answered.
      try {
        writeAll(conn->socket, makeError(kErrInternal, "cannot schedule the request"));
      } catch (const std::exception&) {
      }
      return Pumped::kClose;
    }
    if (handedOff) return Pumped::kHandedOff;  // the task reads what follows
  }
  return Pumped::kOpen;
}

void Server::classify(const std::shared_ptr<Conn>& conn) {
  if (looksLikeHttp(conn->sniff)) {
    conn->kind = ConnKind::kHttp;
    if (obs::metricsEnabled()) [[unlikely]] obs::ServeStats::get().httpRequests.add(1);
    return;
  }
  // A frame's length prefix always leads with 0x00 (the payload cap is
  // far below 2^24); any other first byte might still grow into an HTTP
  // method token, so wait for the 4 bytes that decide.
  if (conn->sniff.size() < 4 && !(conn->sniff.size() >= 1 && conn->sniff[0] == '\0')) return;
  conn->kind = ConnKind::kSession;
  const bool metrics = obs::metricsEnabled();
  std::shared_ptr<Session> session;
  std::string refusal;
  try {
    session = std::make_shared<Session>(config_.session);
  } catch (const IconError& e) {
    refusal = makeError(e.number(), e.message());
    if (metrics) [[unlikely]] {
      if (e.number() == 815) obs::ServeStats::get().sessionsShed.add(1);
    }
  } catch (const std::exception& e) {
    refusal = makeError(kErrInternal, e.what());
  }
  if (session == nullptr) {
    try {
      writeAll(conn->socket, refusal);
      if (metrics) [[unlikely]] {
        obs::ServeStats::get().bytesWritten.add(refusal.size());
      }
    } catch (const std::exception&) {
    }
    beginClose(conn, /*peerHungUp=*/false);
    return;
  }
  const std::string hello = makeHello();
  try {
    writeAll(conn->socket, hello);
  } catch (const std::exception&) {
    beginClose(conn, /*peerHungUp=*/true);
    return;
  }
  if (metrics) [[unlikely]] {
    auto& stats = obs::ServeStats::get();
    stats.sessionsOpened.add(1);
    stats.sessionsActive.add(1);
    stats.bytesWritten.add(hello.size());
  }
  {
    std::lock_guard lock(mu_);
    conn->session = std::move(session);
  }
  conn->decoder.feed(conn->sniff);
  conn->sniff.clear();
  conn->sniff.shrink_to_fit();
}

void Server::answerHttp(const std::shared_ptr<Conn>& conn) {
  const std::string& raw = conn->sniff;
  const std::size_t eol = raw.find("\r\n");
  const std::string line = raw.substr(0, eol == std::string::npos ? raw.size() : eol);
  std::istringstream reqLine(line);
  std::string method, path;
  reqLine >> method >> path;
  const bool headOnly = method == "HEAD";
  std::string response;
  if (method != "GET" && method != "HEAD") {
    response = httpResponse(405, "Method Not Allowed", "text/plain", "method not allowed\n",
                            false);
  } else if (path == "/healthz") {
    std::string body = "{\"status\":\"ok\",\"proto\":" + std::to_string(kProtocolVersion) +
                       ",\"sessions\":" + std::to_string(liveSessions()) + "}\n";
    response = httpResponse(200, "OK", "application/json", body, headOnly);
  } else if (path == "/metrics") {
    std::ostringstream body;
    obs::Registry::global().snapshot().writeText(body);
    response = httpResponse(200, "OK", "text/plain; charset=utf-8", body.str(), headOnly);
  } else if (path == "/metrics.json") {
    std::ostringstream body;
    obs::Registry::global().snapshot().writeJson(body);
    response = httpResponse(200, "OK", "application/json", body.str(), headOnly);
  } else {
    response = httpResponse(404, "Not Found", "text/plain", "not found\n", false);
  }
  try {
    writeAll(conn->socket, response);
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::ServeStats::get().bytesWritten.add(response.size());
    }
  } catch (const std::exception&) {
  }
  conn->socket.shutdownWrite();
  beginClose(conn, /*peerHungUp=*/false);
}

void Server::beginClose(const std::shared_ptr<Conn>& conn, bool peerHungUp) {
  std::lock_guard lock(mu_);
  beginCloseLockedImpl(conn, peerHungUp);
}

void Server::beginCloseLockedImpl(const std::shared_ptr<Conn>& conn, bool peerHungUp) {
  if (conn->closing) return;
  conn->closing = true;
  // The caller holds its own reference, so this erase never frees the
  // Conn under mu_. The wake makes the event loop rebuild its poll set.
  conns_.erase(conn->socket.fd());
  parker_.wake();
  // A task waiting on the socket for its next request wakes at once (and
  // the peer is sent nothing).
  if (conn->taskReads) ::shutdown(conn->socket.fd(), SHUT_RD);
  if (conn->session != nullptr) {
    // The disconnect IS the cancellation: terminating the governor
    // cancels every pipe linked under the session root (parked queue
    // ops abort within one operation) and makes any in-flight drive
    // throw 816 at its next charge point.
    conn->session->onDisconnect();
    if (peerHungUp && obs::metricsEnabled()) [[unlikely]] {
      obs::ServeStats::get().disconnects.add(1);
    }
    if (obs::metricsEnabled()) [[unlikely]] obs::ServeStats::get().sessionsActive.sub(1);
  }
}

bool Server::scheduleLocked(const std::shared_ptr<Conn>& conn,
                            std::chrono::steady_clock::time_point now) {
  if (conn->scheduled || conn->closing || conn->session == nullptr || conn->pending.empty()) {
    return true;
  }
  conn->scheduled = true;
  // A client that sent this soon after its previous answer is in a busy
  // loop: the task that answers it reads its next requests too.
  conn->taskReads = now - conn->answeredAt < kLinger;
  ++tasksInFlight_;
  try {
    // The task must own its reference, to drop it before it counts
    // itself out (see sessionTask). A plain capture of `conn` would be
    // const, and std::move would copy it.
    ThreadPool::global().submit([this, c = conn]() mutable { sessionTask(std::move(c)); });
  } catch (const std::exception&) {
    conn->scheduled = false;  // thread cap or injected fault
    conn->taskReads = false;
    --tasksInFlight_;
    return false;
  }
  return true;
}

void Server::sessionTask(std::shared_ptr<Conn> conn) {
  const bool metrics = obs::metricsEnabled();
  std::unique_lock lock(mu_);
  while (!conn->closing) {
    if (conn->pending.empty()) {
      if (!conn->taskReads) break;
      // This task owns the reads: wait up to kLinger for the next request.
      // A poll error (EINTR) reads nothing and waits again.
      lock.unlock();
      pollfd pfd{conn->socket.fd(), POLLIN, 0};
      const bool readable = ::poll(&pfd, 1, static_cast<int>(kLinger.count())) != 0;
      const Pumped pumped = readable ? pumpConn(conn) : Pumped::kOpen;
      if (pumped == Pumped::kClose || pumped == Pumped::kHungUp) {
        beginClose(conn, pumped == Pumped::kHungUp);
      }
      lock.lock();
      if (!readable) {
        if (!conn->closing) {
          conn->taskReads = false;  // a quiet client: the loop reads it again
          parker_.wake();
        }
        break;
      }
      continue;
    }
    auto item = std::move(conn->pending.front());
    conn->pending.pop_front();
    lock.unlock();
    std::string parseError;
    std::optional<Request> request = parseRequest(item.second, parseError);
    std::string response;
    if (!request) {
      if (metrics) [[unlikely]] obs::ServeStats::get().protocolErrors.add(1);
      response = makeError(kErrProtocol, parseError);
    } else {
      if (metrics) [[unlikely]] obs::ServeStats::get().requests.add(1);
      response = conn->session->handle(*request);
    }
    bool wrote = true;
    try {
      writeAll(conn->socket, response);
    } catch (const std::exception&) {
      wrote = false;  // dead peer or injected ServeWrite fault
    }
    const auto answeredAt = std::chrono::steady_clock::now();
    if (metrics) [[unlikely]] {
      auto& stats = obs::ServeStats::get();
      if (wrote) stats.bytesWritten.add(response.size());
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
          answeredAt - item.first);
      stats.requestLatencyMicros.record(static_cast<std::uint64_t>(micros.count()));
    }
    lock.lock();
    conn->answeredAt = answeredAt;
    if (!wrote) {
      beginCloseLockedImpl(conn, /*peerHungUp=*/true);
    } else if (conn->session->closeRequested() || conn->session->dead()) {
      beginCloseLockedImpl(conn, /*peerHungUp=*/false);
    }
  }
  conn->scheduled = false;
  // Drop our Conn reference BEFORE decrementing tasksInFlight_: once the
  // connection has closed we may hold the last reference, and the Session
  // (with its admitted governor budget) must be fully released before
  // stop() can observe the drain and return.
  lock.unlock();
  conn.reset();
  lock.lock();
  if (--tasksInFlight_ == 0) drained_.notify_all();
}

}  // namespace congen::serve
