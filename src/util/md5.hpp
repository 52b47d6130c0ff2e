// MD5 (RFC 1321), implemented from scratch.
//
// Used for rsync strong block checksums and the Table-3 trace block hashes.
// MD5 is cryptographically broken; here it is a content fingerprint exactly as
// the paper (and rsync) use it, never a security boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"
#include "util/digest.hpp"

namespace cloudsync {

/// Incremental MD5 hasher.
///
///   md5_hasher h;
///   h.update(part1).update(part2);
///   md5_digest d = h.finish();
///
/// finish() may be called once; the hasher is then spent.
class md5_hasher {
 public:
  md5_hasher();

  md5_hasher& update(byte_view data);
  md5_digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
md5_digest md5(byte_view data);

/// Messages one md5_many() call hashes at most: the lanes of the AVX-512F
/// kernel, and the batch width of every caller on every host.
inline constexpr std::size_t kMd5MaxLanes = 16;

/// MD5 of `n` (1 <= n <= kMd5MaxLanes) messages of `len` bytes each
/// (msgs[i] .. msgs[i] + len) into out[i]: out[i] == md5() of msgs[i]. With
/// AVX-512F (CPUID, once per process) the n messages share one 16-lane kernel
/// call, which costs about the same however many lanes are filled; without
/// it they are hashed one after another. So callers batch equal-length
/// blocks and keep a lone message on md5().
void md5_many(const std::uint8_t* const msgs[], std::size_t n,
              std::size_t len, md5_digest out[]);

}  // namespace cloudsync
