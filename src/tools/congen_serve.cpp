// congen-serve — multi-tenant script-execution daemon (ROADMAP item 3).
//
// Serves the congen wire protocol (src/serve/protocol.hpp) on one TCP
// port: each connection is an isolated, governed interpreter session on
// the shared pool, contained by per-tenant quotas (PR 9
// governor), shed by the process admission gate when over budget, and
// cancelled end-to-end when the client disconnects. The same port
// answers HTTP GETs for /metrics, /metrics.json, and /healthz.
//
// Usage:
//   congen-serve [--host H] [--port N]         bind address (default
//                                              127.0.0.1:7117; port 0 =
//                                              ephemeral, printed on
//                                              stdout)
//   --max-heap=64M --max-fuel=... etc.         per-session quotas, same
//                                              spelling as congen-run
//                                              (K/M/G suffixes)
//   --admission-sessions N                     process admission gate:
//   --admission-heap 1G                        shed (typed 815) past
//                                              N live sessions or the
//                                              committed-heap ceiling
//   --request-soft MS --request-hard MS        per-request supervision:
//                                              soft-cancel / hard 816
//   --max-pipe-depth=N                         clamps each session pipe's
//                                              capacity (default 1024;
//                                              setquota("pipedepth")
//                                              lowers it per session)
//   --duration S                               exit after S seconds
//                                              (CI smoke; 0 = run until
//                                              SIGINT/SIGTERM)
//   --stats                                    text metrics snapshot to
//                                              stderr at exit
//   --metrics-json FILE                        JSON snapshot at exit
//
// Every numeric value must be a decimal integer in range (port 0-65535,
// durations < 2^31) or a budget with an optional K/M/G suffix; anything
// else is refused with a message and exit status 2.
//
// On a successful bind the daemon prints exactly one line to stdout:
//   congen-serve: listening on HOST:PORT
// and flushes it — scripts wait for that line before connecting.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "flags.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void onSignal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  congen::serve::Server::Config config;
  config.port = 7117;
  bool stats = false;
  std::string metricsJsonPath;
  long durationSec = 0;

  using congen::tools::kMaxDuration;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "congen-serve: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, std::uint64_t lo, std::uint64_t hi) {
      return congen::tools::parseCount("congen-serve", flag, value(flag), lo, hi);
    };
    if (congen::tools::parseQuotaFlag("congen-serve", argv[i], config.session.quotas)) continue;
    if (arg == "--host") {
      config.host = value("--host");
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(count("--port", 0, 65535));
    } else if (arg == "--admission-sessions") {
      config.admission.maxSessions =
          static_cast<std::size_t>(count("--admission-sessions", 0, SIZE_MAX));
    } else if (arg == "--admission-heap") {
      std::uint64_t bytes = 0;
      if (!congen::tools::parseBudget(value("--admission-heap"), bytes)) {
        std::cerr << "congen-serve: bad --admission-heap value (want e.g. 1G)\n";
        return 2;
      }
      config.admission.maxCommittedHeapBytes = bytes;
    } else if (arg == "--request-soft") {
      config.session.requestSoft =
          std::chrono::milliseconds(count("--request-soft", 0, kMaxDuration));
    } else if (arg == "--request-hard") {
      config.session.requestHard =
          std::chrono::milliseconds(count("--request-hard", 0, kMaxDuration));
    } else if (arg == "--duration") {
      durationSec = static_cast<long>(count("--duration", 0, kMaxDuration));
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics-json") {
      metricsJsonPath = value("--metrics-json");
    } else {
      std::cerr << "congen-serve: unknown option " << arg << "\n";
      return 2;
    }
  }

  congen::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "congen-serve: " << e.what() << "\n";
    return 1;
  }
  std::cout << "congen-serve: listening on " << config.host << ":" << server.port() << "\n"
            << std::flush;

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);  // dead peers surface as EPIPE, not death
#endif
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(durationSec);
  while (g_signalled == 0) {
    if (durationSec > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "congen-serve: shutting down\n";
  server.stop();

  if (stats) congen::obs::Registry::global().snapshot().writeText(std::cerr);
  if (!metricsJsonPath.empty()) {
    std::ofstream out(metricsJsonPath);
    if (!out) {
      std::cerr << "congen-serve: cannot write " << metricsJsonPath << "\n";
      return 1;
    }
    congen::obs::Registry::global().snapshot().writeJson(out);
  }
  return 0;
}
