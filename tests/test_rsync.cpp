// The rsync algorithm: signatures, delta computation, patching, wire format.
#include <gtest/gtest.h>

#include <unordered_map>

#include "chunking/rsync.hpp"
#include "compress/varint.hpp"
#include "storage/cloud.hpp"
#include "util/crc32.hpp"
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

/// A delta wire: magic, `body` after it, then the CRC-32 of both.
byte_buffer framed_delta_wire(const byte_buffer& body) {
  byte_buffer wire = {'d', 'l'};
  append(wire, body);
  const std::uint32_t crc = crc32(wire);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return wire;
}

TEST(RsyncWire, HugeOpCountThrowsRuntimeError) {
  // A valid CRC over a header that declares more ops than the body could
  // hold: the typed error, not an allocation failure from reserving them.
  for (const std::uint64_t nops : {1ull << 50, 1ull << 63}) {
    byte_buffer body;
    put_varint(body, 1024);  // block size
    put_varint(body, 0);     // new file size
    put_varint(body, nops);
    EXPECT_THROW(parse_delta(framed_delta_wire(body)), std::runtime_error)
        << nops;
  }
}

TEST(RsyncWire, HugeLiteralLengthThrowsRuntimeError) {
  // A literal length that wraps the read position past the end.
  byte_buffer body;
  put_varint(body, 1024);
  put_varint(body, 0);
  put_varint(body, 1);  // one op
  body.push_back(1);    // literal tag
  put_varint(body, ~std::uint64_t{0});
  EXPECT_THROW(parse_delta(framed_delta_wire(body)), std::runtime_error);
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

TEST(ApplyDelta, OverflowingCopyRangeThrows) {
  // 2^63 + (2^63 + 1) wraps to 1, inside the 4-block old file, and the
  // index times the block size wraps to 0: a check on the sum took this for
  // old block 0.
  rng r(22);
  const byte_buffer old_data = random_bytes(r, 4096);
  for (const std::uint64_t new_size : {1024u, 0u}) {
    file_delta delta;
    delta.block_size = 1024;
    delta.new_file_size = new_size;
    delta.ops.push_back(
        {delta_op::kind::copy, 1ull << 63, (1ull << 63) + 1, {}, {}});
    const file_delta parsed = parse_delta(serialize_delta(delta));
    EXPECT_THROW(apply_delta(old_data, parsed), std::runtime_error)
        << new_size;
    EXPECT_THROW(apply_delta_ref(content_ref::from_bytes(old_data), parsed),
                 std::runtime_error)
        << new_size;

    // Both cloud substrates: whole objects patch through apply_delta_ref,
    // the chunk store rewrites its manifest in chunk_backend::apply_delta.
    for (const bool chunk_store : {false, true}) {
      cloud_config cfg;
      cfg.use_chunk_store = chunk_store;
      cfg.chunk_store_chunk_size = 1024;
      cloud cl(cfg);
      const device_id dev = cl.attach_device(1);
      cl.put_file(1, dev, "f", old_data, old_data.size(), sim_time{});
      EXPECT_THROW(cl.apply_file_delta(1, dev, "f", parsed,
                                       sim_time::from_sec(1)),
                   std::runtime_error)
          << new_size << (chunk_store ? " chunk store" : " whole objects");
      EXPECT_EQ(cl.manifest(1, "f")->version, 1u);
      EXPECT_EQ(*cl.file_content(1, "f"), old_data);
    }
  }
}

TEST(ApplyDelta, SizeMismatchThrows) {
  file_delta delta;
  delta.block_size = 1024;
  delta.new_file_size = 9999;  // lies about the size
  delta.ops.push_back({delta_op::kind::literal, 0, 0, to_buffer("abc"), {}});
  EXPECT_THROW(apply_delta({}, delta), std::runtime_error);
}

TEST(ApplyDelta, HugeDeclaredSizeThrowsRuntimeError) {
  // A parsed delta may declare any size. Reserving it before the ops were
  // checked threw std::bad_alloc instead of the size check's error.
  rng r(24);
  const byte_buffer old_data = random_bytes(r, 4096);
  for (const bool with_ops : {false, true}) {
    file_delta delta;
    delta.block_size = 1024;
    delta.new_file_size = std::uint64_t{1} << 62;
    if (with_ops) {
      delta.ops.push_back({delta_op::kind::copy, 0, 4, {}, {}});
      delta.ops.push_back(
          {delta_op::kind::literal, 0, 0, to_buffer("tail"), {}});
    }
    const file_delta parsed = parse_delta(serialize_delta(delta));
    EXPECT_THROW(apply_delta(old_data, parsed), std::runtime_error)
        << with_ops;
  }
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

// --- batched strong sums against a one-block-at-a-time reference ------------

/// The signature, one block at a time: weak_checksum and md5() per block.
file_signature reference_signature(byte_view data, std::size_t bs) {
  file_signature sig;
  sig.block_size = bs;
  sig.file_size = data.size();
  for (std::size_t off = 0; off < data.size(); off += bs) {
    const byte_view block = data.subspan(off, std::min(bs, data.size() - off));
    sig.blocks.push_back({weak_checksum(block), md5(block)});
  }
  return sig;
}

/// The delta events of a byte-by-byte scan that hashes the one window at a
/// weak hit with md5() and compares candidates in weak-index order. Runs
/// merge as delta_job merges them.
std::vector<delta_job::event> reference_events(const file_signature& sig,
                                               byte_view data) {
  std::vector<delta_job::event> events;
  const auto copy = [&](std::uint64_t block) {
    if (!events.empty() && events.back().copy &&
        events.back().block_index + events.back().block_count == block) {
      ++events.back().block_count;
    } else {
      events.push_back({true, block, 1, 0, 0});
    }
  };
  const auto literal = [&](std::uint64_t offset, std::uint64_t length) {
    if (length == 0) return;
    if (!events.empty() && !events.back().copy) {
      events.back().length += length;
    } else {
      events.push_back({false, 0, 0, offset, length});
    }
  };
  const std::size_t bs = sig.block_size;
  const std::uint64_t size = data.size();
  if (sig.blocks.empty() || size < bs) {
    if (sig.file_size == size && sig.blocks.size() == 1 && size > 0 &&
        sig.blocks[0].strong == md5(data)) {
      copy(0);
    } else {
      literal(0, size);
    }
    return events;
  }
  // Built as delta_job builds its index, so equal weak sums list their
  // blocks in the same order.
  const std::uint64_t full = sig.file_size / bs;
  std::unordered_multimap<std::uint32_t, std::uint64_t> index;
  index.reserve(sig.blocks.size());
  for (std::uint64_t i = 0; i < full; ++i) index.emplace(sig.blocks[i].weak, i);

  std::uint64_t pos = 0;
  rolling_checksum rc(bs);
  bool valid = false;
  while (pos + bs <= size) {
    if (!valid) {
      rc.reset(data.subspan(pos, bs));
      valid = true;
    }
    bool matched = false;
    auto [it, end] = index.equal_range(rc.value());
    if (it != end) {
      const md5_digest strong = md5(data.subspan(pos, bs));
      for (; it != end && !matched; ++it) {
        if (sig.blocks[it->second].strong == strong) {
          copy(it->second);
          pos += bs;
          valid = false;
          matched = true;
        }
      }
    }
    if (!matched) {
      literal(pos, 1);
      if (pos + bs < size) {
        rc.roll(data[pos], data[pos + bs]);
      } else {
        valid = false;
      }
      ++pos;
    }
  }
  const std::size_t tail = static_cast<std::size_t>(sig.file_size % bs);
  if (tail > 0 && size >= tail && size - tail >= pos) {
    const byte_view tail_view = data.subspan(size - tail, tail);
    if (sig.blocks[full].weak == weak_checksum(tail_view) &&
        sig.blocks[full].strong == md5(tail_view)) {
      literal(pos, size - tail - pos);
      copy(full);
      return events;
    }
  }
  literal(pos, size - pos);
  return events;
}

void expect_same_events(const std::vector<delta_job::event>& got,
                        const std::vector<delta_job::event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].copy, want[i].copy) << i;
    EXPECT_EQ(got[i].block_index, want[i].block_index) << i;
    EXPECT_EQ(got[i].block_count, want[i].block_count) << i;
    EXPECT_EQ(got[i].offset, want[i].offset) << i;
    EXPECT_EQ(got[i].length, want[i].length) << i;
  }
}

/// A rope over `data` cut at random points, so the jobs see windows that
/// split blocks anywhere.
content_ref randomly_cut_rope(byte_view data, rng& r, std::size_t max_seg) {
  content_ref::builder b;
  for (std::size_t off = 0; off < data.size();) {
    const std::size_t len =
        std::min<std::size_t>(1 + r.uniform(max_seg), data.size() - off);
    b.append_bytes(data.subspan(off, len));
    off += len;
  }
  return b.build();
}

/// `blocks` blocks drawn from a pool of three, so several blocks share both
/// sums, then a short random tail.
byte_buffer repetitive_file(rng& r, std::size_t bs, std::size_t blocks) {
  const byte_buffer pool[3] = {random_bytes(r, bs), random_bytes(r, bs),
                               random_bytes(r, bs)};
  byte_buffer out;
  for (std::size_t i = 0; i < blocks; ++i) append(out, pool[r.uniform(3)]);
  append(out, random_bytes(r, r.uniform(bs)));
  return out;
}

/// Adds +1, -1, -1, +1 at the first four bytes from `at` that take it
/// without wrapping: both weak sums of the block stay, the bytes change.
void collide_weak_sum(byte_buffer& data, std::size_t at) {
  for (std::size_t k = at; k + 4 <= data.size(); ++k) {
    if (data[k] < 255 && data[k + 1] > 0 && data[k + 2] > 0 &&
        data[k + 3] < 255) {
      ++data[k];
      --data[k + 1];
      --data[k + 2];
      ++data[k + 3];
      return;
    }
  }
}

class RsyncBatched : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsyncBatched, SignatureAndEventsEqualOneBlockAtATimeReference) {
  const std::size_t bs = GetParam();
  rng r(40 + bs);
  // File sizes in blocks, capped so the small block sizes stay quick: up to
  // 3 MiB at 128 KiB blocks.
  const std::size_t max_bytes =
      bs >= 128 * 1024 ? 3 * 1024 * 1024 : bs >= 700 ? 1024 * 1024 : 16 * 1024;
  std::vector<byte_buffer> olds = {
      {},
      random_bytes(r, bs / 2),
      random_bytes(r, bs),
      random_bytes(r, 2 * bs + 1),
      repetitive_file(r, bs, std::min<std::size_t>(40, max_bytes / bs)),
      random_bytes(r, max_bytes - r.uniform(bs)),
  };
  for (std::size_t c = 0; c < olds.size(); ++c) {
    const byte_buffer& old_data = olds[c];
    const file_signature want_sig = reference_signature(old_data, bs);
    const file_signature sig = compute_signature_ref(
        randomly_cut_rope(old_data, r, 1 + r.uniform(4 * bs)), bs);
    ASSERT_EQ(sig.file_size, want_sig.file_size) << c;
    ASSERT_EQ(sig.blocks.size(), want_sig.blocks.size()) << c;
    for (std::size_t i = 0; i < sig.blocks.size(); ++i) {
      ASSERT_EQ(sig.blocks[i].weak, want_sig.blocks[i].weak) << c << '/' << i;
      ASSERT_EQ(sig.blocks[i].strong, want_sig.blocks[i].strong)
          << c << '/' << i;
    }

    std::vector<byte_buffer> news = {old_data};
    if (!old_data.empty()) {
      byte_buffer changed = old_data;
      changed[r.uniform(changed.size())] ^= 0x01;
      news.push_back(std::move(changed));
      byte_buffer inserted = old_data;
      const byte_buffer ins = random_bytes(r, 1 + r.uniform(bs + 1));
      inserted.insert(
          inserted.begin() +
              static_cast<std::ptrdiff_t>(r.uniform(inserted.size() + 1)),
          ins.begin(), ins.end());
      news.push_back(std::move(inserted));
      news.emplace_back(old_data.begin(),
                        old_data.begin() + static_cast<std::ptrdiff_t>(
                                               r.uniform(old_data.size())));
      byte_buffer collided = old_data;
      collide_weak_sum(collided, r.uniform(collided.size()));
      news.push_back(std::move(collided));
    }
    byte_buffer appended = old_data;
    append(appended, random_bytes(r, 1 + r.uniform(2 * bs)));
    news.push_back(std::move(appended));
    byte_buffer doubled = old_data;  // every block matches twice in a row
    append(doubled, old_data);
    news.push_back(std::move(doubled));

    for (std::size_t e = 0; e < news.size(); ++e) {
      const std::vector<delta_job::event> want =
          reference_events(want_sig, news[e]);
      const std::vector<delta_job::event> got = compute_delta_events(
          sig, randomly_cut_rope(news[e], r, 1 + r.uniform(4 * bs)),
          1 + r.uniform(3 * bs));
      SCOPED_TRACE(testing::Message() << "old " << c << ", new " << e);
      expect_same_events(got, want);
    }
  }
}

TEST(RsyncLookAhead, DigestsAreDroppedAtAMismatch) {
  // Old blocks P, Q, R, S and T, where T straddles Q* and R: T = Q*[d..) +
  // R[..d), with Q* = Q after a weak-sum collision. The scan of
  // P Q* R S hashes all four aligned windows at once, finds Q*'s strong sum
  // wrong, and rolls to offset bs + d, where T matches. A digest of R kept
  // from the look-ahead would be compared there instead of T's.
  const std::size_t bs = 700, d = 300;
  rng r(41);
  const byte_buffer p = random_bytes(r, bs), q = random_bytes(r, bs),
                    rr = random_bytes(r, bs), s = random_bytes(r, bs);
  byte_buffer q_star = q;
  collide_weak_sum(q_star, bs / 2);
  ASSERT_EQ(weak_checksum(q_star), weak_checksum(q));
  ASSERT_NE(md5(q_star), md5(q));
  byte_buffer t(q_star.begin() + d, q_star.end());
  t.insert(t.end(), rr.begin(), rr.begin() + d);

  byte_buffer old_data, new_data;
  for (const byte_view block : {byte_view(p), byte_view(q), byte_view(rr),
                                byte_view(s), byte_view(t)}) {
    append(old_data, block);
  }
  for (const byte_view block :
       {byte_view(p), byte_view(q_star), byte_view(rr), byte_view(s)}) {
    append(new_data, block);
  }
  const file_signature sig = compute_signature(old_data, bs);
  const std::vector<delta_job::event> want = reference_events(sig, new_data);
  ASSERT_GE(want.size(), 3u);
  EXPECT_TRUE(want[2].copy && want[2].block_index == 4)
      << "the reference scan should copy T after the collision";
  expect_same_events(
      compute_delta_events(sig, content_ref::from_bytes(new_data)), want);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, RsyncBatched,
                         ::testing::Values(1, 63, 64, 700, 10 * 1024,
                                           128 * 1024));

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
