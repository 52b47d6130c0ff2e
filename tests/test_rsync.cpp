// The rsync algorithm: signatures, delta computation, patching, wire format.
#include <gtest/gtest.h>

#include "chunking/rsync.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

byte_buffer patch_roundtrip(byte_view old_data, byte_view new_data,
                            std::size_t block) {
  const file_signature sig = compute_signature(old_data, block);
  const file_delta delta = compute_delta(sig, new_data);
  return apply_delta(old_data, delta);
}

TEST(Rsync, SignatureShape) {
  rng r(1);
  const byte_buffer data = random_bytes(r, 10'240);
  const file_signature sig = compute_signature(data, 1024);
  EXPECT_EQ(sig.blocks.size(), 10u);
  EXPECT_EQ(sig.file_size, 10'240u);
  EXPECT_EQ(sig.block_size, 1024u);
  EXPECT_EQ(sig.wire_size(), 16 + 10 * 20);
}

TEST(Rsync, SignatureShortTail) {
  rng r(2);
  const byte_buffer data = random_bytes(r, 2500);
  const file_signature sig = compute_signature(data, 1024);
  EXPECT_EQ(sig.blocks.size(), 3u);
}

TEST(Rsync, IdenticalFilesAllCopies) {
  rng r(3);
  const byte_buffer data = random_bytes(r, 50'000);
  const file_signature sig = compute_signature(data, 1024);
  const file_delta delta = compute_delta(sig, data);
  EXPECT_EQ(delta.literal_bytes(), 0u);
  EXPECT_EQ(apply_delta(data, delta), data);
  // Consecutive copies merge into a single run.
  EXPECT_EQ(delta.ops.size(), 1u);
}

TEST(Rsync, SingleByteChangeShipsOneBlock) {
  rng r(4);
  byte_buffer old_data = random_bytes(r, 100 * 1024);
  byte_buffer new_data = old_data;
  new_data[50'000] ^= 0xff;

  const file_signature sig = compute_signature(old_data, 10 * 1024);
  const file_delta delta = compute_delta(sig, new_data);
  // Exactly one 10 KB block of literals, the rest copied — the paper's
  // estimate C ≈ 10 KB for Dropbox's flat modification traffic.
  EXPECT_EQ(delta.literal_bytes(), 10 * 1024u);
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

TEST(Rsync, PrependShiftsAreResynchronised) {
  rng r(5);
  const byte_buffer old_data = random_bytes(r, 64 * 1024);
  byte_buffer new_data = random_bytes(r, 100);  // insertion at front
  append(new_data, old_data);

  const file_signature sig = compute_signature(old_data, 4096);
  const file_delta delta = compute_delta(sig, new_data);
  // The rolling match must recover alignment after the insertion: literals
  // stay near the insertion size, not the file size.
  EXPECT_LT(delta.literal_bytes(), 5000u);
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

TEST(Rsync, AppendShipsOnlyTail) {
  rng r(6);
  const byte_buffer old_data = random_bytes(r, 40'960);
  byte_buffer new_data = old_data;
  const byte_buffer tail = random_bytes(r, 2048);
  append(new_data, tail);

  const file_signature sig = compute_signature(old_data, 4096);
  const file_delta delta = compute_delta(sig, new_data);
  EXPECT_EQ(delta.literal_bytes(), 2048u);
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

TEST(Rsync, CompletelyDifferentFilesAreAllLiterals) {
  rng r(7);
  const byte_buffer old_data = random_bytes(r, 20'000);
  const byte_buffer new_data = random_bytes(r, 21'000);
  const file_signature sig = compute_signature(old_data, 2048);
  const file_delta delta = compute_delta(sig, new_data);
  EXPECT_EQ(delta.literal_bytes(), new_data.size());
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

TEST(Rsync, EmptyOldFile) {
  rng r(8);
  const byte_buffer new_data = random_bytes(r, 5000);
  const file_signature sig = compute_signature({}, 1024);
  const file_delta delta = compute_delta(sig, new_data);
  EXPECT_EQ(delta.literal_bytes(), 5000u);
  EXPECT_EQ(apply_delta({}, delta), new_data);
}

TEST(Rsync, EmptyNewFile) {
  rng r(9);
  const byte_buffer old_data = random_bytes(r, 5000);
  const file_signature sig = compute_signature(old_data, 1024);
  const file_delta delta = compute_delta(sig, {});
  EXPECT_EQ(delta.literal_bytes(), 0u);
  EXPECT_TRUE(apply_delta(old_data, delta).empty());
}

TEST(Rsync, ShortTailBlockMatches) {
  rng r(10);
  byte_buffer old_data = random_bytes(r, 10'000);  // tail of 10000-8192=1808
  byte_buffer new_data = old_data;
  new_data[0] ^= 1;  // change only the first block

  const file_signature sig = compute_signature(old_data, 8192);
  const file_delta delta = compute_delta(sig, new_data);
  // First 8192 shipped; final 1808-byte tail block matched by identity.
  EXPECT_EQ(delta.literal_bytes(), 8192u);
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

TEST(Rsync, TruncationProducesValidDelta) {
  rng r(11);
  const byte_buffer old_data = random_bytes(r, 30'000);
  const byte_buffer new_data(old_data.begin(), old_data.begin() + 12'288);
  const file_signature sig = compute_signature(old_data, 4096);
  const file_delta delta = compute_delta(sig, new_data);
  EXPECT_EQ(delta.literal_bytes(), 0u);
  EXPECT_EQ(apply_delta(old_data, delta), new_data);
}

class RsyncRandomEdits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsyncRandomEdits, RoundTripsUnderRandomEdits) {
  rng r(100 + GetParam());
  byte_buffer old_data = random_bytes(r, 60'000);
  byte_buffer new_data = old_data;
  // A handful of scattered edits: overwrite, insert, erase.
  for (int i = 0; i < 5; ++i) {
    const std::size_t pos = r.uniform(new_data.size());
    switch (r.uniform(3)) {
      case 0:
        new_data[pos] ^= 0x5a;
        break;
      case 1: {
        const byte_buffer ins = random_bytes(r, 1 + r.uniform(300));
        new_data.insert(new_data.begin() + static_cast<std::ptrdiff_t>(pos),
                        ins.begin(), ins.end());
        break;
      }
      default:
        new_data.erase(
            new_data.begin() + static_cast<std::ptrdiff_t>(pos),
            new_data.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(new_data.size(), pos + 200)));
        break;
    }
  }
  EXPECT_EQ(patch_roundtrip(old_data, new_data, GetParam() % 2 ? 2048 : 700),
            new_data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsyncRandomEdits,
                         ::testing::Range<std::size_t>(0, 12));

TEST(RsyncWire, SerializeParseRoundTrip) {
  rng r(12);
  const byte_buffer old_data = random_bytes(r, 30'000);
  byte_buffer new_data = old_data;
  new_data[15'000] ^= 0xff;
  const file_signature sig = compute_signature(old_data, 4096);
  const file_delta delta = compute_delta(sig, new_data);

  const byte_buffer wire = serialize_delta(delta);
  const file_delta parsed = parse_delta(wire);
  EXPECT_EQ(parsed.block_size, delta.block_size);
  EXPECT_EQ(parsed.new_file_size, delta.new_file_size);
  ASSERT_EQ(parsed.ops.size(), delta.ops.size());
  EXPECT_EQ(apply_delta(old_data, parsed), new_data);
}

TEST(RsyncWire, CorruptionDetected) {
  rng r(13);
  const byte_buffer old_data = random_bytes(r, 10'000);
  const file_signature sig = compute_signature(old_data, 1024);
  const file_delta delta = compute_delta(sig, old_data);
  byte_buffer wire = serialize_delta(delta);
  wire[wire.size() / 2] ^= 1;
  EXPECT_THROW(parse_delta(wire), std::runtime_error);
}

TEST(RsyncWire, TruncationDetected) {
  EXPECT_THROW(parse_delta(to_buffer("dl")), std::runtime_error);
  EXPECT_THROW(parse_delta({}), std::runtime_error);
}

TEST(RsyncWire, WireIsCompactForSmallDeltas) {
  rng r(14);
  const byte_buffer old_data = random_bytes(r, 1024 * 1024);
  byte_buffer new_data = old_data;
  new_data[500'000] ^= 1;
  const file_signature sig = compute_signature(old_data, 10 * 1024);
  const byte_buffer wire = serialize_delta(compute_delta(sig, new_data));
  // One literal block plus copy runs: ~10 KB, never the megabyte.
  EXPECT_LT(wire.size(), 12 * 1024u);
}

TEST(ApplyDelta, OutOfRangeBlockThrows) {
  file_delta delta;
  delta.block_size = 1024;
  delta.new_file_size = 1024;
  delta.ops.push_back({delta_op::kind::copy, 5, 1, {}, {}});
  rng r(15);
  const byte_buffer old_data = random_bytes(r, 2048);
  EXPECT_THROW(apply_delta(old_data, delta), std::runtime_error);
}

TEST(ApplyDelta, SizeMismatchThrows) {
  file_delta delta;
  delta.block_size = 1024;
  delta.new_file_size = 9999;  // lies about the size
  delta.ops.push_back({delta_op::kind::literal, 0, 0, to_buffer("abc"), {}});
  EXPECT_THROW(apply_delta({}, delta), std::runtime_error);
}

TEST(FileDelta, CopiedBytesAccounting) {
  rng r(16);
  const byte_buffer old_data = random_bytes(r, 2500);  // 2 full + 452 tail
  const file_signature sig = compute_signature(old_data, 1024);
  const file_delta delta = compute_delta(sig, old_data);
  EXPECT_EQ(delta.copied_bytes(old_data.size()), old_data.size());
}

TEST(Rsync, ZeroBlockSizeThrows) {
  // Regression: this used to be an assert that vanished under NDEBUG,
  // leaving release builds spinning forever in the signature loop.
  rng r(17);
  const byte_buffer data = random_bytes(r, 1000);
  EXPECT_THROW(compute_signature(data, 0), invalid_block_size);
  EXPECT_THROW(compute_signature_ref(content_ref::from_bytes(data), 0),
               invalid_block_size);
  EXPECT_THROW(sig_job(0), invalid_block_size);
  // invalid_block_size is a std::invalid_argument, so legacy catch sites
  // written against the standard hierarchy still work.
  EXPECT_THROW(compute_signature(data, 0), std::invalid_argument);
}

/// Build a rope with deliberately awkward segmentation so streaming jobs see
/// window boundaries that never line up with blocks.
content_ref chopped_rope(byte_view data, std::size_t first_seg) {
  content_ref::builder b;
  std::size_t off = 0;
  std::size_t seg = first_seg;
  while (off < data.size()) {
    const std::size_t len = std::min(seg, data.size() - off);
    b.append_bytes(data.subspan(off, len));
    off += len;
    seg = seg * 2 + 1;  // 7, 15, 31, ... : never a block multiple
  }
  return b.build();
}

/// Both legs of the pipeline on one (old, new, block_size) case: the
/// streaming signature/delta must equal the whole-buffer ones bit-for-bit —
/// same ops, same wire bytes, same streamed wire walk — and both patch
/// paths must reproduce the new file.
void expect_streaming_identity(const byte_buffer& old_data,
                               const byte_buffer& new_data,
                               std::size_t block_size) {
  const content_ref old_ref = chopped_rope(old_data, 7);
  const content_ref new_ref = chopped_rope(new_data, 7);

  const file_signature sig = compute_signature(old_data, block_size);
  const file_signature sig_ref = compute_signature_ref(old_ref, block_size);
  EXPECT_EQ(sig_ref.file_size, sig.file_size);
  EXPECT_EQ(sig_ref.block_size, sig.block_size);
  ASSERT_EQ(sig_ref.blocks.size(), sig.blocks.size());
  for (std::size_t i = 0; i < sig.blocks.size(); ++i) {
    EXPECT_EQ(sig_ref.blocks[i].weak, sig.blocks[i].weak) << i;
    EXPECT_EQ(sig_ref.blocks[i].strong, sig.blocks[i].strong) << i;
  }

  const file_delta delta = compute_delta(sig, new_data);
  const file_delta delta_ref = compute_delta_ref(sig_ref, new_ref, 1000);
  ASSERT_EQ(delta_ref.ops.size(), delta.ops.size());
  for (std::size_t i = 0; i < delta.ops.size(); ++i) {
    EXPECT_EQ(delta_ref.ops[i].op, delta.ops[i].op) << i;
    EXPECT_EQ(delta_ref.ops[i].block_index, delta.ops[i].block_index) << i;
    EXPECT_EQ(delta_ref.ops[i].block_count, delta.ops[i].block_count) << i;
    EXPECT_EQ(delta_ref.ops[i].literal_size(), delta.ops[i].literal_size())
        << i;
  }

  const byte_buffer wire = serialize_delta(delta);
  EXPECT_EQ(serialize_delta(delta_ref), wire);
  EXPECT_EQ(delta_wire_size(delta_ref), wire.size());
  byte_buffer walked;
  walk_delta_wire(delta_ref, [&](byte_view v) { append(walked, v); });
  EXPECT_EQ(walked, wire);

  EXPECT_EQ(apply_delta(old_data, delta_ref), new_data);
  const content_ref patched = apply_delta_ref(old_ref, delta_ref);
  EXPECT_TRUE(patched.equal(new_data));
}

TEST(RsyncStreaming, EdgeCasesMatchWholeBufferPath) {
  rng r(18);
  const byte_buffer base = random_bytes(r, 10'000);
  auto prefix = [&](std::size_t n) {
    return byte_buffer(base.begin(), base.begin() + n);
  };
  byte_buffer edited = base;
  edited[4'000] ^= 0xff;

  // Empty old, empty new, new smaller than one block, exact block multiple,
  // single short old block, and a plain edit — per the streaming rework's
  // boundary rules, each resolves in a different place (feed vs finish).
  expect_streaming_identity({}, base, 1024);           // empty old file
  expect_streaming_identity(base, {}, 1024);           // empty new file
  expect_streaming_identity(base, prefix(700), 1024);  // new < one block
  expect_streaming_identity(prefix(4096), edited, 1024);  // exact multiple
  expect_streaming_identity(prefix(300), base, 1024);  // one short old block
  expect_streaming_identity(base, edited, 1024);       // plain edit
  expect_streaming_identity(base, base, 1024);         // identical files
}

TEST(RsyncStreaming, RandomWindowSplitsDoNotChangeResults) {
  // Feed the same inputs through sig_job/delta_job with random window
  // splits: results must be independent of how the input is windowed.
  rng r(19);
  const byte_buffer old_data = random_bytes(r, 50'000);
  byte_buffer new_data = old_data;
  for (int i = 0; i < 4; ++i) new_data[r.uniform(new_data.size())] ^= 0x5a;
  const byte_buffer ins = random_bytes(r, 333);
  new_data.insert(new_data.begin() + 20'000, ins.begin(), ins.end());

  const file_signature want_sig = compute_signature(old_data, 4096);
  const file_delta want_delta = compute_delta(want_sig, new_data);
  const byte_buffer want_wire = serialize_delta(want_delta);

  for (int trial = 0; trial < 8; ++trial) {
    sig_job sj(4096);
    for (std::size_t off = 0; off < old_data.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + r.uniform(9000), old_data.size() - off);
      sj.feed(byte_view(old_data).subspan(off, len));
      off += len;
    }
    const file_signature sig = sj.finish();
    ASSERT_EQ(sig.blocks.size(), want_sig.blocks.size()) << trial;
    for (std::size_t i = 0; i < sig.blocks.size(); ++i) {
      EXPECT_EQ(sig.blocks[i].weak, want_sig.blocks[i].weak) << trial;
      EXPECT_EQ(sig.blocks[i].strong, want_sig.blocks[i].strong) << trial;
    }

    delta_job dj(sig);
    for (std::size_t off = 0; off < new_data.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + r.uniform(9000), new_data.size() - off);
      dj.feed(byte_view(new_data).subspan(off, len));
      off += len;
    }
    const file_delta delta = delta_from_events(
        4096, content_ref::from_bytes(new_data), dj.finish());
    EXPECT_EQ(serialize_delta(delta), want_wire) << trial;
  }
}

TEST(RsyncStreaming, PatchJobSharesOldChunks) {
  rng r(20);
  const byte_buffer old_data = random_bytes(r, 200'000);
  byte_buffer new_data = old_data;
  new_data[100'000] ^= 1;
  const content_ref old_ref = content_ref::from_bytes(old_data);
  const file_signature sig = compute_signature_ref(old_ref, 8192);
  const file_delta delta =
      compute_delta_ref(sig, content_ref::from_bytes(new_data));

  patch_job pj(old_ref, delta.block_size, delta.new_file_size);
  for (const delta_op& op : delta.ops) pj.feed(op);
  const content_ref rebuilt = pj.finish();
  EXPECT_TRUE(rebuilt.equal(new_data));
}

}  // namespace
}  // namespace cloudsync
