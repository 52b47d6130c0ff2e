#include "dedup/dedup_engine.hpp"

#include <algorithm>

namespace cloudsync {

fingerprint_memo& global_fingerprint_cache() {
  static fingerprint_memo memo;
  return memo;
}

fingerprint dedup_engine::fp_range(const content_ref& data, std::size_t off,
                                   std::size_t len) const {
  // hash64_range equals content_hash64 of the flat bytes, so every entry
  // point that fingerprints the same bytes shares one memo entry.
  return global_fingerprint_cache().get_or_compute_keyed(
      data.hash64_range(off, len), len, /*salt=*/0, [&] {
        sha256_hasher h;
        data.walk_range(off, len, [&](byte_view v) { h.update(v); });
        return h.finish();
      });
}

std::vector<chunk_ref> dedup_engine::chunk_layout(
    const content_ref& data) const {
  if (data.empty()) return {};
  switch (policy_.granularity) {
    case dedup_granularity::none:
      return {};
    case dedup_granularity::full_file:
      return {{0, data.size()}};
    case dedup_granularity::content_defined:
      return content_defined_chunks(data, policy_.cdc);
    case dedup_granularity::fixed_block:
      break;
  }
  // Fixed layout depends only on the size — same blocks as fixed_chunks().
  std::vector<chunk_ref> out;
  out.reserve(data.size() / policy_.block_size + 1);
  for (std::size_t off = 0; off < data.size(); off += policy_.block_size) {
    out.push_back({off, std::min(policy_.block_size, data.size() - off)});
  }
  return out;
}

std::uint64_t expected_fingerprint_count(const dedup_policy& policy,
                                         std::uint64_t size) {
  if (size == 0) return 0;
  switch (policy.granularity) {
    case dedup_granularity::none:
      return 0;
    case dedup_granularity::full_file:
      return 1;
    case dedup_granularity::fixed_block: {
      const std::uint64_t bs = std::max<std::uint64_t>(policy.block_size, 1);
      return (size + bs - 1) / bs;
    }
    case dedup_granularity::content_defined: {
      // Cut decisions start after the min-size skip and fire geometrically
      // with mean avg_size, so the expected chunk length is min + avg,
      // bounded by the hard max.
      const cdc_params& p = policy.cdc;
      const std::uint64_t expect = std::min<std::uint64_t>(
          p.max_size, static_cast<std::uint64_t>(p.min_size) + p.avg_size);
      return std::max<std::uint64_t>(1, size / std::max<std::uint64_t>(
                                               expect, 1));
    }
  }
  return 0;
}

dedup_result dedup_engine::analyze(user_id user, byte_view data) const {
  return analyze(user, content_ref::from_bytes(data));
}

dedup_result dedup_engine::analyze(user_id user,
                                   const content_ref& data) const {
  dedup_result res;
  if (policy_.granularity == dedup_granularity::none) {
    res.new_bytes = data.size();
    if (!data.empty()) res.new_chunks.push_back({0, data.size()});
    return res;
  }
  const std::vector<chunk_ref> chunks = chunk_layout(data);
  // The whole-file fingerprint is sent even for an empty file.
  res.fingerprints_sent = policy_.granularity == dedup_granularity::full_file
                              ? 1
                              : chunks.size();
  for (const chunk_ref& c : chunks) {
    if (index_.contains(scope_for(user), fp_range(data, c.offset, c.size))) {
      res.duplicate_bytes += c.size;
    } else {
      res.new_bytes += c.size;
      res.new_chunks.push_back(c);
    }
  }
  res.whole_file_duplicate = !data.empty() && res.new_bytes == 0;
  return res;
}

void dedup_engine::commit(user_id user, const content_ref& data) {
  for (const chunk_ref& c : chunk_layout(data)) {
    index_.add(scope_for(user), fp_range(data, c.offset, c.size));
  }
}

void dedup_engine::retract(user_id user, const content_ref& data) {
  for (const chunk_ref& c : chunk_layout(data)) {
    index_.remove(scope_for(user), fp_range(data, c.offset, c.size));
  }
}

}  // namespace cloudsync
