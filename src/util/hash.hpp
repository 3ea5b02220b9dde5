// Deterministic content hashing for machine-readable artifacts. FNV-1a is
// chosen over a cryptographic hash on purpose: reports carry the hash of
// their spec to *group* them and to catch a merge of reports whose spec echo
// was edited, not to defend against an adversary, and a 16-hex-char key stays
// readable in file names and report diffs. The hash of a canonical
// `Json::dump_compact()` string is stable across machines and stdlib
// versions, so the same spec always gets the same key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace evm::util {

/// 64-bit FNV-1a over `data`.
inline std::uint64_t fnv1a64(std::string_view data,
                             std::uint64_t seed = 14695981039346656037ULL) {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fixed-width 16-char lowercase hex rendering (file-name and JSON safe).
inline std::string hash_hex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[h & 0xF];
    h >>= 4;
  }
  return out;
}

/// The one spec-content hash everything keys on: hash of a canonical
/// single-line JSON dump. Campaign reports surface it as "spec_hash", and
/// merging shard reports checks it against each report's spec echo.
inline std::string content_hash(const std::string& canonical_dump) {
  return hash_hex(fnv1a64(canonical_dump));
}

}  // namespace evm::util
