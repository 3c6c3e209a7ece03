// flags.hpp — the numeric flags congen-run and congen-serve share.
//
// A count is a plain decimal integer in range; a budget is one with an
// optional K/M/G (binary) suffix. A sign, a space, a letter, an empty
// value or an overflow is refused: the tool says what it wanted and
// exits with status 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string_view>
#include <utility>

#include "runtime/governor.hpp"

namespace congen::tools {

/// Upper bound for the millisecond and second flags: far past any real
/// deadline, and small enough that now() + duration cannot overflow.
inline constexpr std::uint64_t kMaxDuration = INT32_MAX;

/// Reads the decimal digits at the front of `text` into `out`. Returns
/// the first character after them, or nullptr when there are none (a
/// sign, a space, an empty string) or the value does not fit.
inline const char* parseDigits(const char* text, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(text, text + std::strlen(text), out);
  return ec == std::errc{} ? end : nullptr;
}

inline bool parseBudget(const char* text, std::uint64_t& out) {
  std::uint64_t raw = 0;
  const char* end = parseDigits(text, raw);
  if (end == nullptr) return false;
  std::uint64_t scale = 1;
  if (*end == 'K' || *end == 'k') {
    scale = 1024, ++end;
  } else if (*end == 'M' || *end == 'm') {
    scale = 1024 * 1024, ++end;
  } else if (*end == 'G' || *end == 'g') {
    scale = 1024ULL * 1024 * 1024, ++end;
  }
  if (*end != '\0' || raw > UINT64_MAX / scale) return false;
  out = raw * scale;
  return true;
}

/// `text` as a decimal integer in [lo, hi]; anything else exits 2.
inline std::uint64_t parseCount(const char* tool, const char* flag, const char* text,
                                std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t n = 0;
  const char* end = parseDigits(text, n);
  if (end == nullptr || *end != '\0' || n < lo || n > hi) {
    std::cerr << tool << ": bad " << flag << " value '" << text << "'";
    std::cerr << " (want a decimal integer in " << lo << ".." << hi << ")\n";
    std::exit(2);
  }
  return n;
}

/// Sets the quota a `--max-<budget>=N` flag names. False when `arg`
/// names none; a malformed value exits 2.
inline bool parseQuotaFlag(const char* tool, const char* arg, governor::Limits& quotas) {
  const std::pair<std::string_view, std::uint64_t*> flags[] = {
      {"--max-heap=", &quotas.maxHeapBytes},
      {"--max-fuel=", &quotas.maxFuel},
      {"--max-pipes=", &quotas.maxPipes},
      {"--max-coexprs=", &quotas.maxCoexprs},
      {"--max-pipe-depth=", &quotas.maxPipeDepth},
      {"--max-depth=", &quotas.maxDepth},
  };
  for (const auto& [prefix, slot] : flags) {
    if (std::string_view(arg).substr(0, prefix.size()) != prefix) continue;
    if (!parseBudget(arg + prefix.size(), *slot)) {
      std::cerr << tool << ": bad value in " << arg << " (want e.g. 64M)\n";
      std::exit(2);
    }
    return true;
  }
  return false;
}

}  // namespace congen::tools
