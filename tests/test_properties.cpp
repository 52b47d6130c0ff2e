// Cross-module property tests: invariants that must hold for ANY input,
// exercised over parameter grids and seeded random cases.
#include <gtest/gtest.h>

#include "chunking/rsync.hpp"
#include "client/defer_policy.hpp"
#include "compress/lzss.hpp"
#include "dedup/dedup_engine.hpp"
#include "net/tcp_model.hpp"
#include "storage/chunk_backend.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cloudsync {
namespace {

// --- LZSS: decompress(compress(x)) == x for any compressibility ------------

struct payload_case {
  std::size_t size;
  double ratio;
};

class LzssPayloadSweep : public ::testing::TestWithParam<payload_case> {};

TEST_P(LzssPayloadSweep, RoundTripsEveryPayloadShape) {
  rng r(GetParam().size ^ 0xbeef);
  const byte_buffer data =
      synthetic_payload(r, GetParam().size, GetParam().ratio);
  for (int level : {1, 5, 9}) {
    EXPECT_EQ(lzss_decompress(lzss_compress(data, {.level = level})), data)
        << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LzssPayloadSweep,
    ::testing::Values(payload_case{100, 1.0}, payload_case{100, 3.0},
                      payload_case{4096, 1.0}, payload_case{4096, 2.0},
                      payload_case{65536, 1.5}, payload_case{65536, 5.0},
                      payload_case{1 << 20, 1.2}, payload_case{1 << 20, 8.0}));

TEST(LzssProperty, NeverExpandsBeyondFrameOverhead) {
  rng r(7);
  for (std::size_t n : {0u, 1u, 100u, 5000u, 100'000u}) {
    const byte_buffer noise = random_bytes(r, n);
    EXPECT_LE(lzss_compress(noise, {.level = 9}).size(), n + 20);
  }
}

// --- rsync + chunk backend: two independent reconstructions agree ----------

class DeltaEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaEquivalence, PatchAndChunkStoreAgree) {
  rng r(GetParam());
  const std::size_t block = 1u << (10 + GetParam() % 3);  // 1K/2K/4K
  byte_buffer old_data = random_bytes(r, 30'000 + r.uniform(40'000));

  byte_buffer new_data = old_data;
  for (int edit = 0; edit < 4; ++edit) {
    const std::size_t pos = r.uniform(new_data.size());
    if (r.chance(0.5)) {
      new_data[pos] ^= 0x7f;
    } else {
      const byte_buffer ins = random_bytes(r, r.uniform(2000));
      new_data.insert(new_data.begin() + static_cast<std::ptrdiff_t>(pos),
                      ins.begin(), ins.end());
    }
  }

  const file_signature sig = compute_signature(old_data, block);
  const file_delta delta = compute_delta(sig, new_data);

  // Reconstruction 1: direct patch.
  EXPECT_EQ(apply_delta(old_data, delta), new_data);

  // Reconstruction 2: through the chunk store.
  object_store store;
  chunk_backend backend(store, block);
  backend.put_full("old", old_data);
  backend.apply_delta("old", "new", delta);
  EXPECT_EQ(backend.materialize("new"), new_data);

  // Reconstruction 3: after a wire round trip.
  EXPECT_EQ(apply_delta(old_data, parse_delta(serialize_delta(delta))),
            new_data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(RsyncProperty, DeltaNeverLargerThanFilePlusFraming) {
  rng r(42);
  for (int i = 0; i < 8; ++i) {
    const byte_buffer old_data = random_bytes(r, 10'000);
    const byte_buffer new_data = random_bytes(r, 10'000);
    const file_delta delta =
        compute_delta(compute_signature(old_data, 1024), new_data);
    EXPECT_LE(serialize_delta(delta).size(), new_data.size() + 64);
  }
}

// --- dedup: byte conservation across granularities --------------------------

class DedupConservation : public ::testing::TestWithParam<int> {};

TEST_P(DedupConservation, DuplicatePlusNewEqualsTotal) {
  rng r(100 + GetParam());
  dedup_policy policies[4];
  policies[0] = dedup_policy::disabled();
  policies[1] = {dedup_granularity::full_file, 4 * MiB, false, {}};
  policies[2] = {dedup_granularity::fixed_block, 4096, false, {}};
  policies[3].granularity = dedup_granularity::content_defined;
  policies[3].cdc = {512, 2048, 8192};

  const byte_buffer base = random_bytes(r, 1 + r.uniform(100'000));
  byte_buffer probe = base;
  if (r.chance(0.5)) probe[r.uniform(probe.size())] ^= 1;

  for (const dedup_policy& policy : policies) {
    dedup_engine eng(policy);
    eng.commit(1, content_ref::from_bytes(base));
    const dedup_result res = eng.analyze(1, probe);
    EXPECT_EQ(res.duplicate_bytes + res.new_bytes, probe.size());
    std::uint64_t chunk_sum = 0;
    for (const chunk_ref& c : res.new_chunks) chunk_sum += c.size;
    EXPECT_EQ(chunk_sum, res.new_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupConservation, ::testing::Range(0, 10));

// --- TCP model monotonicity ---------------------------------------------------

TEST(TcpProperty, DurationMonotoneInBytes) {
  const tcp_config cfg;
  sim_time prev{};
  for (std::uint64_t bytes = 1024; bytes <= 64 * MiB; bytes *= 4) {
    const transfer_cost c = one_way_cost(bytes, mbps_to_bytes_per_sec(10),
                                         sim_time::from_msec(80), cfg, 10);
    EXPECT_GE(c.duration, prev) << bytes;
    prev = c.duration;
  }
}

TEST(TcpProperty, WireBytesMonotoneInAppBytes) {
  const tcp_config cfg;
  std::uint64_t prev = 0;
  for (std::uint64_t bytes = 1; bytes <= 1 * MiB; bytes *= 8) {
    const transfer_cost c = one_way_cost(bytes, 1e6, sim_time::from_msec(50),
                                         cfg, 10);
    EXPECT_GT(c.fwd_wire, prev);
    EXPECT_GE(c.fwd_wire, bytes);
    prev = c.fwd_wire;
  }
}

// --- defer policies never fire in the past -----------------------------------

TEST(DeferProperty, FireTimeNeverBeforeUpdate) {
  rng r(55);
  no_defer none;
  fixed_defer fixed(sim_time::from_sec(5));
  adaptive_defer asd;
  byte_counter_defer uds;
  defer_policy* policies[] = {&none, &fixed, &asd, &uds};

  sim_time t{};
  for (int i = 0; i < 200; ++i) {
    t += sim_time::from_sec(r.uniform_real() * 30.0);
    const std::uint64_t pending = r.uniform(1'000'000);
    for (defer_policy* p : policies) {
      EXPECT_GE(p->next_fire(t, pending), t) << p->name();
    }
  }
}

// --- CDF self-consistency -----------------------------------------------------

TEST(CdfProperty, AtOfQuantileCoversQ) {
  rng r(66);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(r.lognormal(5, 2));
  empirical_cdf cdf(std::move(v));
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_GE(cdf.at(cdf.quantile(q)), q - 0.01);
  }
}

// --- signature wire size formula ----------------------------------------------

TEST(RsyncProperty, SignatureWireSizeTracksBlockCount) {
  rng r(77);
  for (std::size_t size : {0u, 1000u, 10'240u, 100'000u}) {
    const byte_buffer data = random_bytes(r, size);
    const file_signature sig = compute_signature(data, 1024);
    EXPECT_EQ(sig.wire_size(), 16 + sig.blocks.size() * 20);
    EXPECT_EQ(sig.blocks.size(), (size + 1023) / 1024);
  }
}

}  // namespace
}  // namespace cloudsync
