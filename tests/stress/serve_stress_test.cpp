// serve_stress_test.cpp — the congen-serve daemon under connection
// churn, mid-stream disconnects, and injected accept, write and submit faults.
//
// Runs an in-process Server and hammers it from raw-socket clients that
// misbehave on purpose: hang up instead of CLOSE, hang up between
// request and response, vanish while a pipe producer is parked on a
// full queue. conservation_env.cpp rides along (as in every stress
// binary), so a leaked pipe or an unbalanced queue op from any teardown
// path fails the binary at exit — that is the "no leaked pipe" oracle
// the disconnect paths are measured against.
//
// Under the sanitizer presets (CONGEN_FAULT_INJECTION) the ServeAccept
// and ServeWrite sites are armed too: accept() throwing (EMFILE stand-
// in) must leave the accept loop running, and a write-loop throw — a
// torn frame mid-response — must tear down exactly that one session.
// A PoolSubmit failure must answer the stranded request with 903.
#include <atomic>
#include <cerrno>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include "concur/fault_injection.hpp"
#include "serve/server.hpp"
#include "stress_util.hpp"

namespace congen::serve {
namespace {

using congen::testing::FaultInjector;
using congen::testing::FaultSite;
using congen::testing::ScopedFaultInjection;
using congen::testing::SitePolicy;

/// Raw blocking client; no gtest assertions (used from many threads),
/// every operation just reports success. Deliberately does NOT use the
/// serve writeAll/readSome helpers: those carry the ServeWrite fault
/// point, and the injector is process-global — a fault firing on the
/// *client's* send would drop the request and leave readLine blocked
/// forever on a response the server never saw. The client stands in
/// for a remote process, so its I/O must be fault-free, and reads are
/// bounded (a genuinely wedged server fails the test, not the ctest
/// timeout).
struct RawClient {
  static constexpr int kReadTimeoutMs = 30000;

  Socket sock;
  std::string buf;
  bool alive = false;

  bool connect(std::uint16_t port) {
    try {
      sock = connectTo("127.0.0.1", port);
      alive = true;
    } catch (const std::exception&) {
      alive = false;
    }
    return alive;
  }

  bool send(const Request& request) {
    const std::string frame = encodeFrame(request);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(sock.fd(), frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{sock.fd(), POLLOUT, 0};
        ::poll(&pfd, 1, kReadTimeoutMs);
        continue;
      }
      return false;
    }
    return true;
  }

  /// True when the server closed the connection: EOF, not a stall.
  bool closedByPeer() {
    pollfd pfd{sock.fd(), POLLIN, 0};
    char byte;
    return buf.empty() && ::poll(&pfd, 1, kReadTimeoutMs) == 1 &&
           ::recv(sock.fd(), &byte, 1, 0) == 0;
  }

  bool readLine(std::string& line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf, 0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      if (!readMore()) return false;
    }
  }

 private:
  bool readMore() {
    char tmp[4096];
    for (;;) {
      pollfd pfd{sock.fd(), POLLIN, 0};
      const int rc = ::poll(&pfd, 1, kReadTimeoutMs);
      if (rc == 0) return false;  // bounded wait: treat a stall as EOF
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      const ssize_t n = ::recv(sock.fd(), tmp, sizeof tmp, 0);
      if (n > 0) {
        buf.append(tmp, static_cast<std::size_t>(n));
        return true;
      }
      if (n == 0) return false;
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
  }
};

Server::Config stressConfig() {
  Server::Config config;
  config.port = 0;
  // Small pipes make producers park early — the interesting regime for
  // disconnect-vs-parked-queue-op races.
  config.session.quotas.maxPipeDepth = 8;
  return config;
}

TEST(ServeStress, ConnectionChurnWithMixedTeardown) {
  Server server(stressConfig());
  server.start();
  const int threads = 8;
  const int cycles = 25 * stress::scale();
  std::atomic<std::uint64_t> completed{0};
  stress::onThreads(threads, [&](int t) {
    for (int c = 0; c < cycles; ++c) {
      RawClient client;
      if (!client.connect(server.port())) continue;
      client.send({Verb::kSubmit, "1 to 20", 0});
      client.send({Verb::kNext, "", 20});
      std::string line;
      bool ok = client.readLine(line);        // hello
      ok = ok && client.readLine(line);        // generator ack
      ok = ok && client.readLine(line);        // results
      switch ((t + c) % 3) {
        case 0:  // clean close, read the goodbye
          if (ok && client.send({Verb::kClose, "", 0})) client.readLine(line);
          break;
        case 1:  // CLOSE sent, but vanish without reading the answer
          client.send({Verb::kClose, "", 0});
          break;
        default:  // abrupt hangup, no CLOSE at all
          break;
      }
      if (ok) completed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_GT(completed.load(), 0u);
  EXPECT_TRUE(stress::eventually([&] { return server.liveSessions() == 0; }))
      << "live sessions after churn: " << server.liveSessions();
  server.stop();
}

TEST(ServeStress, MidStreamDisconnectStormCancelsProducers) {
  Server server(stressConfig());
  server.start();
  const int threads = 6;
  const int cycles = 10 * stress::scale();
  std::atomic<std::uint64_t> streamed{0};
  stress::onThreads(threads, [&](int t) {
    for (int c = 0; c < cycles; ++c) {
      RawClient client;
      if (!client.connect(server.port())) continue;
      // The producer side is effectively infinite; with capacity 8 it
      // parks almost immediately. Each teardown variant must still
      // cancel it within one queue op.
      client.send({Verb::kSubmit, "! |> (1 to 100000000)", 0});
      std::string line;
      switch ((t + c) % 3) {
        case 0:  // vanish before reading anything
          break;
        case 1:  // read the acks, vanish with NEXT in flight
          client.readLine(line);  // hello
          client.readLine(line);  // generator
          client.send({Verb::kNext, "", 50});
          break;
        default:  // consume a batch, then vanish mid-stream
          client.readLine(line);
          client.readLine(line);
          client.send({Verb::kNext, "", 5});
          if (client.readLine(line)) streamed.fetch_add(1, std::memory_order_relaxed);
          break;
      }
      // RawClient destructor closes the socket: the disconnect.
    }
  });
  EXPECT_GT(streamed.load(), 0u);
  // Every session must be reaped — which requires every parked producer
  // to have been cancelled (Session teardown blocks on the pipe tree).
  EXPECT_TRUE(stress::eventually([&] { return server.liveSessions() == 0; }, 30000))
      << "live sessions after disconnect storm: " << server.liveSessions();
  server.stop();
  // conservation_env verifies the queue invariants at process exit.
}

TEST(ServeStress, SurvivesInjectedAcceptAndWriteFaults) {
  if (!FaultInjector::compiledIn()) {
    GTEST_SKIP() << "built without CONGEN_FAULT_INJECTION — nothing to do";
  }
  Server server(stressConfig());
  server.start();
  {
    // Arm ONLY the serve sites: everything else quiet, so the failures
    // land exactly on the accept loop and the response write loop.
    ScopedFaultInjection arm(stress::seed(), SitePolicy{});
    auto& inj = FaultInjector::instance();
    inj.armSite(FaultSite::ServeAccept,
                SitePolicy{/*delayPerMille=*/100, /*maxDelayMicros=*/200, /*failPerMille=*/120});
    inj.armSite(FaultSite::ServeWrite,
                SitePolicy{/*delayPerMille=*/100, /*maxDelayMicros=*/200, /*failPerMille=*/40});
    const int threads = 6;
    const int cycles = 20 * stress::scale();
    std::atomic<std::uint64_t> answered{0};
    stress::onThreads(threads, [&](int t) {
      for (int c = 0; c < cycles; ++c) {
        RawClient client;
        if (!client.connect(server.port())) continue;
        client.send({Verb::kSubmit, "1 to 10", 0});
        client.send({Verb::kNext, "", 10});
        std::string line;
        // An injected ServeWrite fault tears this session down mid-
        // response; the client just sees EOF. Both outcomes are fine —
        // what is not fine is the server wedging or another session
        // being affected.
        if (client.readLine(line) && client.readLine(line) && client.readLine(line)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        (void)t;
      }
    });
    EXPECT_GT(answered.load(), 0u)
        << "no session ever completed under fault injection — the daemon is wedged";
    EXPECT_GT(FaultInjector::instance().hits(FaultSite::ServeAccept), 0u);
    EXPECT_GT(FaultInjector::instance().hits(FaultSite::ServeWrite), 0u);
  }
  // Disarmed: the server must still be fully functional.
  RawClient client;
  ASSERT_TRUE(client.connect(server.port()));
  client.send({Verb::kSubmit, "7", 0});
  client.send({Verb::kNext, "", 1});
  std::string line;
  ASSERT_TRUE(client.readLine(line));
  EXPECT_NE(line.find("hello"), std::string::npos);
  ASSERT_TRUE(client.readLine(line));
  ASSERT_TRUE(client.readLine(line));
  EXPECT_NE(line.find("\"results\":[\"7\"]"), std::string::npos) << line;
  EXPECT_TRUE(stress::eventually([&] { return server.liveSessions() <= 1; }));
  server.stop();
}

TEST(ServeStress, FailedSessionSubmitIsATypedRefusal) {
  if (!FaultInjector::compiledIn()) {
    GTEST_SKIP() << "built without CONGEN_FAULT_INJECTION — nothing to do";
  }
  Server server(stressConfig());
  server.start();
  {
    // Every ThreadPool::submit fails: the request's session task is
    // never scheduled, and the client, waiting for its reply, sends
    // nothing more.
    ScopedFaultInjection arm(stress::seed(), SitePolicy{});
    auto& inj = FaultInjector::instance();
    inj.armSite(FaultSite::PoolSubmit,
                SitePolicy{/*delayPerMille=*/0, /*maxDelayMicros=*/0, /*failPerMille=*/1000});
    RawClient client;
    ASSERT_TRUE(client.connect(server.port()));
    client.send({Verb::kSubmit, "1 + 1", 0});
    std::string line;
    ASSERT_TRUE(client.readLine(line));
    EXPECT_NE(line.find("hello"), std::string::npos) << line;
    ASSERT_TRUE(client.readLine(line)) << "the request was never answered";
    EXPECT_NE(line.find("\"code\":903"), std::string::npos) << line;
    EXPECT_TRUE(client.closedByPeer());
  }
  // Disarmed: a new session is served.
  RawClient client;
  ASSERT_TRUE(client.connect(server.port()));
  client.send({Verb::kSubmit, "1 + 1", 0});
  client.send({Verb::kNext, "", 1});
  std::string line;
  ASSERT_TRUE(client.readLine(line));  // hello
  ASSERT_TRUE(client.readLine(line));  // generator
  ASSERT_TRUE(client.readLine(line));
  EXPECT_NE(line.find("\"results\":[\"2\"]"), std::string::npos) << line;
  server.stop();
}

}  // namespace
}  // namespace congen::serve
