// Google-benchmark microbenchmarks for the from-scratch primitives that the
// simulation's fidelity (and speed) rests on: rolling checksums, LZSS,
// Huffman, rsync delta computation, dedup analysis and the memo lookups.
// The hash and CDC kernels are timed, and checked, by kernel_report.
#include <benchmark/benchmark.h>

#include "chunking/rsync.hpp"
#include "client/sync_engine.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "dedup/dedup_engine.hpp"
#include "util/adler32.hpp"
#include "util/content_cache.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace cloudsync;

byte_buffer payload(std::size_t n, bool text) {
  rng r(99);
  return text ? random_text(r, n) : random_bytes(r, n);
}

void BM_RollingChecksum(benchmark::State& state) {
  const byte_buffer data = payload(1 * MiB, false);
  constexpr std::size_t kWindow = 10 * 1024;
  for (auto _ : state) {
    rolling_checksum rc(kWindow);
    rc.reset(byte_view{data}.first(kWindow));
    std::uint32_t acc = 0;
    for (std::size_t pos = 1; pos + kWindow <= data.size(); ++pos) {
      rc.roll(data[pos - 1], data[pos + kWindow - 1]);
      acc ^= rc.value();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RollingChecksum);

void BM_LzssCompressText(benchmark::State& state) {
  const byte_buffer data = payload(1 * MiB, true);
  const int level = static_cast<int>(state.range(0));
  std::size_t out_size = 0;
  for (auto _ : state) {
    const byte_buffer c = lzss_compress(data, {.level = level});
    out_size = c.size();
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.counters["ratio"] =
      static_cast<double>(data.size()) / static_cast<double>(out_size);
}
BENCHMARK(BM_LzssCompressText)->Arg(1)->Arg(5)->Arg(9);

void BM_HuffmanEncode(benchmark::State& state) {
  const byte_buffer data = payload(1 * MiB, true);
  std::size_t out_size = 0;
  for (auto _ : state) {
    const byte_buffer c = huffman_encode(data);
    out_size = c.size();
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.counters["ratio"] =
      static_cast<double>(data.size()) / static_cast<double>(out_size);
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const byte_buffer frame = huffman_encode(payload(1 * MiB, true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman_decode(frame));
  }
}
BENCHMARK(BM_HuffmanDecode);

void BM_LzssDecompress(benchmark::State& state) {
  const byte_buffer frame = lzss_compress(payload(1 * MiB, true), {.level = 6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzss_decompress(frame));
  }
}
BENCHMARK(BM_LzssDecompress);

void BM_RsyncSignature(benchmark::State& state) {
  const byte_buffer data = payload(4 * MiB, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_signature(data, 10 * 1024));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RsyncSignature);

void BM_RsyncDeltaOneByteEdit(benchmark::State& state) {
  byte_buffer old_data = payload(4 * MiB, false);
  byte_buffer new_data = old_data;
  new_data[2 * MiB] ^= 0xff;
  const file_signature sig = compute_signature(old_data, 10 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_delta(sig, new_data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(new_data.size()));
}
BENCHMARK(BM_RsyncDeltaOneByteEdit);

void BM_DedupAnalyzeBlocks(benchmark::State& state) {
  dedup_engine eng({dedup_granularity::fixed_block, 4 * MiB, false});
  const content_ref data = content_ref::from_bytes(payload(16 * MiB, false));
  eng.commit(1, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.analyze(1, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_DedupAnalyzeBlocks);

// The hot-path cache primitives: the fast content hash that keys the cache,
// and the memoized wire-size lookup vs the full compressor run it replaces.
// The Cached/Uncached pair is the per-call before/after of
// shipped_content_size() on warm content (the cached leg still pays the
// content_hash64 of the key, as planning does).
void BM_ContentHash64(benchmark::State& state) {
  const byte_buffer data = payload(static_cast<std::size_t>(state.range(0)),
                                   false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(content_hash64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ContentHash64)->Arg(4 * 1024)->Arg(1 * MiB);

void BM_WirePayloadSizeUncached(benchmark::State& state) {
  const byte_buffer data = payload(1 * MiB, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire_payload_size(data, 6));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_WirePayloadSizeUncached);

void BM_WirePayloadSizeCached(benchmark::State& state) {
  const byte_buffer data = payload(1 * MiB, true);
  content_cache cache(64);
  const auto lookup = [&] {
    return cache.shipped_size_keyed(content_hash64(data), data.size(), 6,
                                    [&] { return wire_payload_size(data, 6); });
  };
  lookup();  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(lookup());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_WirePayloadSizeCached);

}  // namespace

BENCHMARK_MAIN();
