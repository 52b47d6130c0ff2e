#include "store/content_ref.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chunking/cdc.hpp"
#include "pipeline/byte_pipeline.hpp"
#include "store/content_store.hpp"
#include "util/content_cache.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

TEST(ContentRef, BasicRoundTrip) {
  const byte_buffer data = to_buffer("hello, rope world");
  const content_ref ref = content_ref::from_bytes(data);
  EXPECT_EQ(ref.size(), data.size());
  EXPECT_FALSE(ref.empty());
  EXPECT_EQ(ref.flatten(), data);
  EXPECT_EQ(ref, byte_view{data});
  EXPECT_EQ(to_string(ref), "hello, rope world");
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(ref.at(i), data[i]);
  }
  EXPECT_THROW(ref.at(data.size()), std::out_of_range);
}

TEST(ContentRef, EmptyRef) {
  const content_ref ref;
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_TRUE(ref.flatten().empty());
  EXPECT_EQ(ref.hash64(), content_hash64({}));
  EXPECT_TRUE(ref.equal(content_ref{}));
  EXPECT_TRUE(ref.equal(byte_view{}));
  EXPECT_TRUE(content_ref::from_bytes({}).empty());
}

TEST(ContentRef, SubstrSharesAndMatches) {
  rng r(7);
  const byte_buffer data = random_bytes(r, 200'000);  // spans >2 chunks
  const content_ref ref = content_ref::from_bytes(data);
  for (const auto& [off, len] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
           {0, 200'000},
           {0, 1},
           {199'999, 1},
           {65'535, 2},     // straddles the first intern boundary
           {65'536, 65'536},
           {1'000, 150'000}}) {
    const content_ref sub = ref.substr(off, len);
    EXPECT_EQ(sub.size(), len);
    EXPECT_EQ(sub.flatten(),
              byte_buffer(data.begin() + off, data.begin() + off + len));
  }
  EXPECT_THROW(ref.substr(1, 200'000), std::out_of_range);
}

TEST(ContentRef, PatchBeyondEndThrows) {
  const content_ref ref = content_ref::from_bytes(to_buffer("abcdef"));
  const byte_buffer p = to_buffer("xy");
  EXPECT_THROW(ref.patched(5, p), std::out_of_range);
  EXPECT_NO_THROW(ref.patched(4, p));
}

TEST(ContentRef, Hash64MatchesFlatHashAtEveryTailShape) {
  // content_hash64 strides 32 bytes with an 8-byte-then-1-byte tail;
  // hash64() must reproduce it bit-for-bit at every tail length, and on
  // sub-ranges that start mid-chunk.
  rng r(11);
  const byte_buffer data = random_bytes(r, 70'000);
  const content_ref ref = content_ref::from_bytes(data);
  for (std::size_t n : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 63u, 64u, 100u,
                        65'536u, 65'537u, 70'000u}) {
    EXPECT_EQ(ref.hash64_range(0, n),
              content_hash64(byte_view{data.data(), n}))
        << "len " << n;
  }
  for (std::size_t off : {1u, 13u, 65'535u, 65'536u, 65'540u}) {
    const std::size_t len = data.size() - off;
    EXPECT_EQ(ref.hash64_range(off, len),
              content_hash64(byte_view{data.data() + off, len}))
        << "off " << off;
  }
}

TEST(ContentHasher64, StreamingMatchesOneShotUnderRandomSplits) {
  rng r(13);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::uint64_t want = content_hash64(data);
  for (int trial = 0; trial < 20; ++trial) {
    content_hasher64 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + r.uniform(700), data.size() - off);
      h.update(byte_view{data.data() + off, n});
      off += n;
    }
    EXPECT_EQ(h.finish(), want);
  }
}

/// One randomized op sequence, checked step by step against a plain vector
/// model. `erase` is modelled with the builder (prefix + suffix splice), the
/// same splice delta application uses.
void run_differential(std::uint64_t seed) {
  rng r(seed);
  byte_buffer model = random_bytes(r, 1 + r.uniform(50'000));
  content_ref ref = content_ref::from_bytes(model);
  std::vector<content_ref> history;  // old versions must stay intact

  for (int step = 0; step < 60; ++step) {
    history.push_back(ref);
    const byte_buffer before = ref.flatten();
    switch (r.uniform(4)) {
      case 0: {  // patch
        if (model.empty()) break;
        const std::size_t off = r.uniform(model.size());
        const std::size_t len =
            std::min<std::size_t>(1 + r.uniform(5'000), model.size() - off);
        const byte_buffer data = random_bytes(r, len);
        std::copy(data.begin(), data.end(), model.begin() + off);
        ref = ref.patched(off, data);
        break;
      }
      case 1: {  // append
        const byte_buffer data = random_bytes(r, 1 + r.uniform(10'000));
        model.insert(model.end(), data.begin(), data.end());
        ref = ref.appended(data);
        break;
      }
      case 2: {  // slice down to a substring
        if (model.size() < 2) break;
        const std::size_t off = r.uniform(model.size() / 2);
        const std::size_t len = 1 + r.uniform(model.size() - off);
        model = byte_buffer(model.begin() + off, model.begin() + off + len);
        ref = ref.substr(off, len);
        break;
      }
      case 3: {  // erase a middle range (builder splice)
        if (model.size() < 2) break;
        const std::size_t off = r.uniform(model.size());
        const std::size_t len = 1 + r.uniform(model.size() - off);
        model.erase(model.begin() + off, model.begin() + off + len);
        content_ref::builder b;
        b.append(ref, 0, off);
        b.append(ref, off + len, ref.size() - off - len);
        ref = b.build();
        break;
      }
    }
    ASSERT_EQ(ref.size(), model.size()) << "seed " << seed << " step " << step;
    ASSERT_TRUE(ref.equal(byte_view{model}))
        << "seed " << seed << " step " << step;
    ASSERT_EQ(ref.hash64(), content_hash64(model));
    // Immutability: the version we started this step from is unchanged.
    ASSERT_EQ(history.back().flatten(), before);
  }
}

TEST(ContentRef, DifferentialAgainstVectorModelCow) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_differential(seed);
}

TEST(ContentStore, RefcountExactness) {
  content_store& store = content_store::global();
  ASSERT_TRUE(store.empty()) << "a previous test leaked chunk handles";
  {
    rng r(3);
    const byte_buffer data = random_bytes(r, 150'000);
    content_ref a = content_ref::from_bytes(data);
    content_ref dup = content_ref::from_bytes(data);  // interns to same chunks
    content_ref sub = a.substr(10, 100'000);
    content_ref patched = a.patched(500, to_buffer("xxx"));
    EXPECT_FALSE(store.empty());
    const auto st = store.stats();
    EXPECT_GT(st.chunks, 0u);
    EXPECT_GT(st.intern_hits, 0u);  // dup aliased a's chunks
    // Dropping some refs keeps shared chunks alive.
    dup = content_ref{};
    sub = content_ref{};
    EXPECT_FALSE(store.empty());
  }
  // Every handle is gone: the store must be empty — refcounting is exact,
  // not eventual.
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.stats().live_bytes, 0u);
}

TEST(ContentStore, InternAliasesEqualBytes) {
  ASSERT_TRUE(content_store::global().empty());
  {
    rng r(5);
    const byte_buffer data = random_bytes(r, 64 * 1024);
    const content_ref a = content_ref::from_bytes(data);
    const content_ref b = content_ref::from_bytes(data);
    const auto prof = content_store::global().profile_table();
    // One unique chunk, two handles on it.
    EXPECT_EQ(prof.unique_bytes, data.size());
    EXPECT_EQ(prof.logical_bytes, 2 * data.size());
  }
  EXPECT_TRUE(content_store::global().empty());
}

TEST(ContentStore, LazyMaterializesOnceOnFirstRead) {
  int calls = 0;
  content_ref ref = content_ref::lazy(5, [&calls] {
    ++calls;
    return to_buffer("lazy!");
  });
  EXPECT_EQ(ref.size(), 5u);
  EXPECT_EQ(calls, 0);  // size queries never materialize
  EXPECT_EQ(to_string(ref), "lazy!");
  EXPECT_EQ(ref.at(0), 'l');
  EXPECT_EQ(calls, 1);
}

TEST(ContentRef, PipelineDigestsMatchFlatAtEveryChunkBoundaryOffset) {
  // The rope read path feeds pipeline stages and the CDC cutter segment by
  // segment; any split must give bit-identical results to the flat
  // whole-buffer feed. Exercise every boundary shape: patches that start
  // exactly at, one before, and one after each intern-chunk boundary (which
  // fragment the rope there).
  rng r(17);
  const std::size_t kChunk = content_store::kInternChunkBytes;
  const byte_buffer base = random_bytes(r, 3 * kChunk + 123);
  content_request req;
  req.block_weak = 4096;
  req.entropy = true;

  std::vector<std::size_t> offsets = {0};
  for (std::size_t b = kChunk; b < base.size(); b += kChunk) {
    offsets.insert(offsets.end(), {b - 1, b, b + 1});
  }
  offsets.push_back(base.size() - 3);

  content_ref ref = content_ref::from_bytes(base);
  byte_buffer flat = base;
  for (const std::size_t off : offsets) {
    const byte_buffer patch = random_bytes(r, 3);
    ref = ref.patched(off, patch);
    std::copy(patch.begin(), patch.end(), flat.begin() + off);
    ASSERT_GT(ref.segment_count(), 1u);

    const content_report a = analyze_content(ref, req);
    const content_report b = analyze_content(flat, req);
    ASSERT_EQ(a.block_weak, b.block_weak) << "patch at " << off;
    ASSERT_EQ(a.entropy_bits_per_byte, b.entropy_bits_per_byte);
    ASSERT_EQ(a.total_bytes, b.total_bytes);
    const auto ca = content_defined_chunks(ref);
    const auto cb = content_defined_chunks(flat);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i].offset, cb[i].offset);
      ASSERT_EQ(ca[i].size, cb[i].size);
    }
  }
}

/// The common prefix and suffix of two flat byte strings, the suffix
/// counted past the prefix.
content_ref::affixes flat_affixes(const byte_buffer& a, const byte_buffer& b) {
  const std::size_t limit = std::min(a.size(), b.size());
  content_ref::affixes out;
  while (out.prefix < limit && a[out.prefix] == b[out.prefix]) ++out.prefix;
  while (out.suffix < limit - out.prefix &&
         a[a.size() - 1 - out.suffix] == b[b.size() - 1 - out.suffix]) {
    ++out.suffix;
  }
  return out;
}

/// A version of `base` that shares its chunks (patched, appended, a
/// substring, an insert) or holds the same kind of bytes in chunks of its
/// own (from_bytes interns them, adopt does not), or an empty one.
content_ref derived_version(const content_ref& base, rng& r) {
  const byte_buffer flat = base.flatten();
  const std::size_t n = base.size();
  const std::size_t off = n == 0 ? 0 : r.uniform(n);
  const byte_buffer bytes = r.chance(0.5) ? random_bytes(r, 1 + r.uniform(40))
                                          : byte_buffer(1 + r.uniform(9), 'a');
  switch (r.uniform(8)) {
    case 0:
      if (n == 0) return base.appended(bytes);
      return base.patched(off, byte_view(bytes).first(
                                   std::min(bytes.size(), n - off)));
    case 1: return base.appended(bytes);
    case 2: return base.substr(off, r.uniform(n - off + 1));
    case 3: {
      content_ref::builder b;
      b.append(base, 0, off);
      b.append_bytes(bytes);
      b.append(base, off, n - off);
      return b.build();
    }
    case 4: return content_ref::from_bytes(flat);
    case 5: {
      byte_buffer copy = flat;
      if (!copy.empty()) copy[off] ^= 1;
      return content_ref::adopt(std::move(copy));
    }
    case 6: return content_ref{};
    default: {
      // The same bytes cut at other points, each piece its own chunk.
      content_ref::builder b;
      for (std::size_t at = 0; at < n;) {
        const std::size_t len =
            std::min<std::size_t>(n - at, 1 + r.uniform(3000));
        b.append(content_ref::adopt(byte_buffer(flat.begin() + at,
                                                flat.begin() + at + len)));
        at += len;
      }
      return b.build();
    }
  }
}

TEST(ContentRef, CommonAffixesMatchFlatAnswer) {
  rng r(43);
  for (int round = 0; round < 60; ++round) {
    // Runs of one byte make the prefix and suffix compete for the middle.
    const std::size_t n = r.uniform(r.chance(0.2) ? 64 : 200'000);
    content_ref base = r.chance(0.3)
                           ? content_ref::from_bytes(byte_buffer(n, 'a'))
                           : content_ref::from_bytes(random_bytes(r, n));
    for (int depth = 0; depth < 6; ++depth) {
      const content_ref next = derived_version(base, r);
      const byte_buffer a = base.flatten(), b = next.flatten();
      const content_ref::affixes want = flat_affixes(a, b);
      const content_ref::affixes got = base.common_affixes(next);
      EXPECT_EQ(got.prefix, want.prefix) << round << "/" << depth;
      EXPECT_EQ(got.suffix, want.suffix) << round << "/" << depth;
      const content_ref::affixes back = next.common_affixes(base);
      EXPECT_EQ(back.prefix, want.prefix) << round << "/" << depth;
      EXPECT_EQ(back.suffix, want.suffix) << round << "/" << depth;
      base = next;
    }
  }
  const content_ref some = content_ref::from_bytes(to_buffer("abc"));
  EXPECT_EQ(some.common_affixes(some).prefix, 3u);
  EXPECT_EQ(some.common_affixes(some).suffix, 0u);
  EXPECT_EQ(some.common_affixes(content_ref{}).prefix, 0u);
  EXPECT_EQ(content_ref{}.common_affixes(content_ref{}).suffix, 0u);
}

TEST(ContentRef, BuilderMergesAdjacentRunsOfSameChunk) {
  rng r(23);
  const byte_buffer data = random_bytes(r, 10'000);
  const content_ref ref = content_ref::from_bytes(data);
  content_ref::builder b;
  b.append(ref, 0, 4'000);
  b.append(ref, 4'000, 6'000);  // contiguous in the same chunk → one segment
  const content_ref joined = b.build();
  EXPECT_EQ(joined.segment_count(), 1u);
  EXPECT_EQ(joined.flatten(), data);
}

TEST(ContentRef, UseAfterDetachGuardDocumentedBehaviour) {
  // The debug-build assertion fires on reading a chunk whose last handle
  // dropped; with live handles reads are always safe. This test pins the
  // safe side (the fatal side would abort the process).
  content_ref ref = content_ref::from_bytes(to_buffer("guarded"));
  const content_ref keep = ref.substr(0, 7);
  ref = content_ref{};  // `keep` still pins the chunk
  EXPECT_EQ(to_string(keep), "guarded");
}

}  // namespace
}  // namespace cloudsync
