// SHA-256 block kernels behind sha256_hasher, private to the hash layer.
//
// sha256_hasher and sha256() pick one kernel per process from CPUID. Tests
// and kernel_report include this header to run each kernel directly, so both
// stay checked on any host regardless of which one the dispatcher picks.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"
#include "util/digest.hpp"

namespace cloudsync::sha256_kernels {

/// Folds `blocks` consecutive 64-byte blocks at `data` into the chaining
/// state {a, b, c, d, e, f, g, h} (FIPS 180-4 §6.2.2 steps 1–4).
using block_fn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks);

/// Unrolled scalar kernel: the path on CPUs without SHA-NI, on non-x86
/// builds, and the reference the SHA-NI kernel is tested against.
void portable(std::uint32_t state[8], const std::uint8_t* data,
              std::size_t blocks);

/// Kernel on the x86 SHA extensions. Call only when has_sha_ni() is true;
/// builds without them forward to portable().
void sha_ni(std::uint32_t state[8], const std::uint8_t* data,
            std::size_t blocks);

/// CPUID probe: SHA extensions plus the SSSE3/SSE4.1 shuffles sha_ni() uses.
bool has_sha_ni();

/// Whole-message SHA-256 (padding included) through the given kernel; with
/// the dispatched kernel it equals sha256().
sha256_digest sha256_with(block_fn kernel, byte_view data);

}  // namespace cloudsync::sha256_kernels
