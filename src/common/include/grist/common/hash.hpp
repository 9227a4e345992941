// 64-bit FNV-1a: the repo-wide content fingerprint (per-rank owned-state
// hashes, the mesh connectivity hash, ML weight provenance in checkpoints,
// partition fingerprints).
// Not cryptographic -- a cheap, deterministic, endian-stable-within-a-host
// identity check.
#pragma once

#include <cstddef>
#include <cstdint>

namespace grist::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

} // namespace grist::common
