// Multi-buffer MD5 kernels behind md5_many, private to the hash layer.
//
// md5_many() picks the kernel once per process from CPUID, or hashes one
// message after another when the CPU lacks it. Tests and kernel_report
// include this header to run the kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/digest.hpp"

namespace cloudsync::md5_kernels {

/// MD5 of `n` (1 <= n <= 16) messages of `len` bytes each (msgs[i] ..
/// msgs[i] + len), one message per lane of the AVX-512F registers; out[i] is
/// the digest of msgs[i]. The pointers need no alignment, and the messages
/// may overlap. Call only when has_avx512f() is true; builds for other
/// architectures hash one message after another.
void x16_avx512(const std::uint8_t* const msgs[], std::size_t n,
                std::size_t len, md5_digest out[]);

/// CPUID probe. It also checks with XGETBV that the operating system saves
/// the vector registers the kernel uses.
bool has_avx512f();

/// Name of the kernel md5_many() dispatches to: "avx512f" or "scalar".
const char* dispatched_name();

}  // namespace cloudsync::md5_kernels
