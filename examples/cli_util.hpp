// Small helpers shared by the example CLIs (not part of the evm library).
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace evm::examples {

/// Strict decimal uint64 parse. strtoull alone silently wraps negatives
/// ("-1" -> 2^64-1), so anything but plain digits is rejected.
inline bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// Strict finite positive decimal parse. atof alone takes "30x" as 30 and
/// "inf" or "nan" as values, so trailing characters, non-finite values and
/// anything not above zero are rejected.
inline bool parse_positive(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if (!std::isfinite(v) || v <= 0.0) return false;
  out = v;
  return true;
}

}  // namespace evm::examples
