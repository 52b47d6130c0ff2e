// The streaming wire-size sizers against the flat reference. Planning prices
// every upload with wire_payload_size_ref (over a rope) or
// wire_payload_size_delta (over a delta's wire, never materialized); both
// must return exactly wire_payload_size of the same bytes laid out flat.
//
// The sizes straddle the incompressibility probe's threshold (4 KiB), its
// sample budget (16 KiB) and the content store's intern chunk (64 KiB), on
// compressible and random bytes, at every compression level. Between 4 KiB
// and 16 KiB a level-5 upload is priced by the probe's own count. Ropes are cut
// at random points, so probe windows and sizer feeds straddle segments.
// The metered traffic these sizers produce is pinned by the StreamSync cells
// of test_golden_digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chunking/rsync.hpp"
#include "client/sync_engine.hpp"
#include "store/content_ref.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

constexpr int kMaxLevel = 9;

const std::vector<std::size_t> kSizes = {
    0,     1,     4095,  4096,  4097,  8192,  16383,
    16384, 16385, 65535, 65536, 65537, 300 * 1024 + 17};

byte_buffer make_bytes(rng& r, std::size_t n, bool compressible) {
  return compressible ? random_text(r, n) : random_bytes(r, n);
}

/// `data` as a rope cut at random points (pieces of 1 B to ~70 KiB, each its
/// own chunk), behind a random prefix that substr drops so that the first
/// segment starts inside its chunk.
content_ref split_rope(rng& r, byte_view data) {
  const byte_buffer prefix = random_bytes(r, r.uniform(100));
  content_ref::builder b;
  b.append_bytes(prefix);
  for (std::size_t off = 0; off < data.size();) {
    const std::uint64_t cap = r.chance(0.3) ? 16 : r.chance(0.5) ? 5000 : 70000;
    const std::size_t n = std::min<std::size_t>(data.size() - off,
                                                1 + r.uniform(cap));
    b.append_bytes(data.subspan(off, n));
    off += n;
  }
  return b.build().substr(prefix.size(), data.size());
}

/// The delta of `new_ref` against `old_ref`, built the way planning builds
/// it: a signature of the old rope, the event stream, then literal ops that
/// reference the new rope.
file_delta rope_delta(const content_ref& old_ref, const content_ref& new_ref,
                      std::size_t block_size, std::size_t window_bytes) {
  const file_signature sig = compute_signature_ref(old_ref, block_size);
  return delta_from_events(sig.block_size, new_ref,
                           compute_delta_events(sig, new_ref, window_bytes));
}

void expect_delta_sizes_match(const file_delta& d, const char* what,
                              std::size_t n) {
  const byte_buffer wire = serialize_delta(d);
  ASSERT_EQ(delta_wire_size(d), wire.size());
  for (int level = 0; level <= kMaxLevel; ++level) {
    EXPECT_EQ(wire_payload_size_delta(d, level),
              wire_payload_size(wire, level))
        << what << " size " << n << " wire " << wire.size() << " level "
        << level;
  }
}

TEST(StreamSizers, RopeSizerMatchesFlatReference) {
  rng r(1);
  for (const bool compressible : {true, false}) {
    for (const std::size_t n : kSizes) {
      const byte_buffer data = make_bytes(r, n, compressible);
      const content_ref rope = split_rope(r, data);
      ASSERT_TRUE(rope.equal(byte_view{data}));
      const byte_buffer flat = rope.flatten();
      for (int level = 0; level <= kMaxLevel; ++level) {
        EXPECT_EQ(wire_payload_size_ref(rope, level),
                  wire_payload_size(flat, level))
            << (compressible ? "text" : "random") << " size " << n
            << " segments " << rope.segment_count() << " level " << level;
      }
    }
  }
}

/// One edit of a rope, as the fleet and the file system make them: a patch,
/// an insert, a delete, an append, a truncation or a prepend.
content_ref edited_rope(const content_ref& c, rng& r) {
  const std::size_t off = r.uniform(c.size());
  const byte_buffer fresh = random_text(r, 1 + r.uniform(3000));
  content_ref::builder b;
  switch (r.uniform(6)) {
    case 0:
      return c.patched(off, byte_view(fresh).first(
                                std::min(fresh.size(), c.size() - off)));
    case 1:
      b.append(c, 0, off);
      b.append_bytes(fresh);
      b.append(c, off, c.size() - off);
      return b.build();
    case 2: {
      const std::size_t cut = std::min(fresh.size(), c.size() - off);
      b.append(c, 0, off);
      b.append(c, off + cut, c.size() - off - cut);
      return b.build();
    }
    case 3: return c.appended(fresh);
    case 4: return c.substr(0, c.size() - std::min(fresh.size(), c.size() - 1));
    default:
      b.append_bytes(fresh);
      b.append(c);
      return b.build();
  }
}

TEST(StreamSizers, RopeSizerWithBaseMatchesFlatReferenceOverEditChains) {
  // Each version is priced from the pricing of the one before, so summaries
  // chain seven deep.
  rng r(5);
  const struct {
    std::size_t size;
    int level;
  } cases[] = {{20'000, 1}, {20'000, 9}, {100'000, 4}, {100'000, 5},
               {700'000, 1}, {700'000, 9}, {2'100'000, 5}};
  for (const auto [n, level] : cases) {
    content_ref version = split_rope(r, random_text(r, n));
    priced_version prev;
    for (int v = 0; v < 8; ++v) {
      priced_version cur{version, nullptr};
      const std::uint64_t size =
          wire_payload_size_ref(version, level, &prev, &cur.summary);
      ASSERT_EQ(size, wire_payload_size(version.flatten(), level))
          << "size " << n << " level " << level << " version " << v;
      prev = cur;
      version = edited_rope(version, r);
    }
  }
}

TEST(StreamSizers, DeltaSizerMatchesSerializedWireOfEditedRopes) {
  rng r(2);
  for (const bool compressible : {true, false}) {
    for (const std::size_t n : kSizes) {
      const byte_buffer base = make_bytes(r, n, compressible);
      // Patch a range with fresh bytes, then append a fresh tail: the delta
      // mixes copy runs, literal runs and a partial last block.
      byte_buffer edited = base;
      if (!edited.empty()) {
        const std::size_t off = r.uniform(edited.size());
        const byte_buffer patch = make_bytes(
            r, std::min<std::size_t>(edited.size() - off, 1 + r.uniform(3000)),
            compressible);
        std::copy(patch.begin(), patch.end(), edited.begin() + off);
      }
      append(edited, make_bytes(r, r.uniform(2000), compressible));
      const file_delta d =
          rope_delta(split_rope(r, base), split_rope(r, edited), 1024,
                     1 + r.uniform(64 * 1024));
      expect_delta_sizes_match(d, compressible ? "text" : "random", n);
    }
  }
}

TEST(StreamSizers, DeltaSizerMatchesSerializedWireAtProbeThresholds) {
  // All-literal deltas (against an empty old file) whose serialized wire is
  // exactly each threshold size, so the probe and the sample budget switch
  // on the wire length itself rather than on the file length.
  rng r(3);
  const content_ref empty;
  for (const bool compressible : {true, false}) {
    for (const std::size_t target : kSizes) {
      if (target < 64) continue;  // below the delta's own framing
      const byte_buffer data = make_bytes(r, target, compressible);
      const content_ref rope = split_rope(r, data);
      std::size_t n = target;
      file_delta d = rope_delta(empty, rope.substr(0, n), 1024, 256 * 1024);
      while (delta_wire_size(d) > target) {
        n -= static_cast<std::size_t>(
            std::max<std::uint64_t>(1, (delta_wire_size(d) - target) / 2));
        d = rope_delta(empty, rope.substr(0, n), 1024, 256 * 1024);
      }
      ASSERT_EQ(delta_wire_size(d), target) << "literal " << n;
      expect_delta_sizes_match(d, compressible ? "text" : "random", n);
    }
  }
}

}  // namespace
}  // namespace cloudsync
