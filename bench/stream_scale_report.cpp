// Streaming sync kernels against the whole-buffer functions, and the
// post-cap scale leg.
//
// Two legs:
//   - kernel identity leg: signature / delta / wire bytes from the streaming
//     jobs must be byte-identical to the whole-buffer path on multi-MB
//     inputs. (Engine-level traffic is pinned by the StreamSync cells of
//     tests/test_golden_digests.)
//   - scale leg (full mode only): a 4 GiB incompressible file — a rope
//     tiling a 32 x 1 MiB segment pool, so unique bytes stay O(pool) — is
//     created and then delta-synced twice through a journaled client with
//     resumable sessions. The self-check requires convergence and a content
//     store peak under 64 MiB: the cap the streaming rework removed is now
//     the *memory* budget, not the file-size ceiling. ru_maxrss corroborates.
//
// Writes BENCH_stream.json (or argv[1]). `--small` runs a reduced kernel
// identity leg only — the ASan CI leg. Exit status is the self-check verdict.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "chunking/rsync.hpp"
#include "core/experiment.hpp"
#include "store/content_ref.hpp"
#include "store/content_store.hpp"
#include "util/content_cache.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::size_t kCats =
    static_cast<std::size_t>(traffic_category::kCount);

// ---------------------------------------------------------------------------
// Kernel identity: streaming jobs vs whole-buffer functions on one input.
// ---------------------------------------------------------------------------

bool kernel_identity(std::size_t base_bytes) {
  rng r(31);
  const byte_buffer base = synthetic_payload(r, base_bytes, 1.8);
  // An edited cousin: two interior patches plus an appended tail — copy runs,
  // literal runs, and a tail block all appear in the delta.
  byte_buffer edited = base;
  const byte_buffer patch1 = random_bytes(r, 9000);
  const byte_buffer patch2 = random_bytes(r, 513);
  std::memcpy(edited.data() + base_bytes / 5, patch1.data(), patch1.size());
  std::memcpy(edited.data() + (3 * base_bytes) / 4, patch2.data(),
              patch2.size());
  const byte_buffer tail = random_bytes(r, 70000);
  edited.insert(edited.end(), tail.begin(), tail.end());

  const std::size_t bs = 64 * KiB;
  // Whole-buffer path.
  const file_signature sig = compute_signature(base, bs);
  const file_delta delta = compute_delta(sig, edited);
  const byte_buffer wire = serialize_delta(delta);

  // Streaming path over ropes.
  const content_ref old_ref = content_ref::from_bytes(base);
  const content_ref new_ref = content_ref::from_bytes(edited);
  const file_signature sig2 = compute_signature_ref(old_ref, bs);
  const auto events = compute_delta_events(sig2, new_ref);
  const file_delta delta2 = delta_from_events(sig2.block_size, new_ref, events);

  bool ok = true;
  ok &= serialize_delta(delta2) == wire;
  ok &= delta_wire_size(delta2) == wire.size();
  content_hasher64 h;
  walk_delta_wire(delta2, [&](byte_view v) { h.update(v); });
  ok &= h.finish() == content_hash64(wire);
  ok &= apply_delta_ref(old_ref, delta2).equal(edited);
  ok &= new_ref.equal(apply_delta(base, parse_delta(wire)));
  return ok;
}

// ---------------------------------------------------------------------------
// Scale leg: one 4 GiB file through a journaled streaming client.
// ---------------------------------------------------------------------------

struct scale_run {
  double create_ms = 0;
  double update_ms = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_up = 0;
  std::uint64_t total_traffic = 0;
  std::uint64_t commits = 0;
  std::uint64_t peak_store_bytes = 0;
  std::uint64_t maxrss_kb = 0;
  bool converged = false;
  bool ok = false;
};

constexpr std::uint64_t kScaleFileBytes = 4ull * GiB;
constexpr std::uint64_t kPeakBudget = 64 * MiB;

/// The big file: a rope tiling a pool of 32 seeded 1 MiB incompressible
/// segments (the same shape core/fleet gives uncapped trace files). Unique
/// bytes are O(pool); the logical file is as large as we like.
content_ref make_pooled_file(std::uint64_t size) {
  constexpr std::size_t kSegments = 32;
  constexpr std::size_t kSegBytes = 1 * MiB;
  rng r(99);
  std::vector<content_ref> pool;
  pool.reserve(kSegments);
  for (std::size_t i = 0; i < kSegments; ++i) {
    pool.push_back(content_ref::from_buffer(random_bytes(r, kSegBytes)));
  }
  content_ref::builder b;
  std::uint64_t j = 0;
  for (std::uint64_t left = size; left > 0; ++j) {
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kSegBytes));
    b.append(pool[mix64(0x5eedull ^ j) % kSegments], 0, len);
    left -= len;
  }
  return b.build();
}

scale_run run_scale_leg() {
  int fd[2];
  if (pipe(fd) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    close(fd[0]);
    content_store::global().reset_peak();

    // Dropbox-shaped client with the knobs that matter at this size: IDS on,
    // delta blocks widened to 4 MiB (1024 signature blocks for 4 GiB), dedup
    // off (the tiled pool would self-dedup and dodge the transfer under
    // test), compression level kept so the incompressible probe fast path is
    // what prices the payload.
    service_profile prof = dropbox();
    prof.name = "stream_scale";
    prof.delta_chunk_size = 4 * MiB;
    prof.dedup = dedup_policy::disabled();
    for (const access_method m : all_access_methods) {
      prof.method(m).dedup_enabled = false;
    }

    experiment_config cfg{prof};
    cfg.method = access_method::pc_client;
    cfg.journal = true;                     // resumable sessions at 4 GiB
    cfg.recovery.chunk_bytes = 4 * MiB;     // 1024 session ranges

    experiment_env env(cfg);
    station& st = env.primary();

    scale_run s;
    const content_ref big = make_pooled_file(kScaleFileBytes);
    s.file_bytes = big.size();

    const auto t0 = std::chrono::steady_clock::now();
    st.fs.create("big.bin", big, env.clock().now());
    env.settle();
    const auto t1 = std::chrono::steady_clock::now();
    s.create_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    for (int i = 0; i < 2; ++i) {
      env.clock().advance_to(env.clock().now() + sim_time::from_sec(120));
      modify_random_byte(st.fs, "big.bin", env.random(), env.clock().now());
      env.settle();
    }
    s.update_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t1)
                      .count();

    const traffic_meter& m = env.primary().client->meter();
    s.payload_up = m.get(direction::up, traffic_category::payload);
    for (int d = 0; d < 2; ++d) {
      for (std::size_t c = 0; c < kCats; ++c) {
        s.total_traffic += m.get(static_cast<direction>(d),
                                 static_cast<traffic_category>(c));
      }
    }
    s.commits = env.primary().client->counters().commits;
    s.converged =
        env.the_cloud().file_content(0, "big.bin")->equal(st.fs.read("big.bin"));
    s.peak_store_bytes = content_store::global().stats().peak_live_bytes;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    s.maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    s.ok = true;
    std::size_t off = 0;
    const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
    while (off < sizeof s) {
      const ssize_t n = write(fd[1], p + off, sizeof(s) - off);
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fd[1]);
  scale_run s;
  std::size_t off = 0;
  auto* p = reinterpret_cast<std::uint8_t*>(&s);
  while (off < sizeof s) {
    const ssize_t n = read(fd[0], p + off, sizeof(s) - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (off != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return {};
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* out_path = "BENCH_stream.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      out_path = argv[i];
    }
  }

  print_section(small ? "Streaming sync report (small kernel identity leg)"
                      : "Streaming sync report: identity + 4 GiB scale leg");

  // Kernel identity: the streaming jobs against the whole-buffer functions.
  const std::size_t kernel_bytes = small ? 1 * MiB : 8 * MiB;
  const bool kernel_ok = kernel_identity(kernel_bytes);
  std::printf("kernel identity (%s base): %s\n",
              human(static_cast<double>(kernel_bytes)).c_str(),
              kernel_ok ? "byte-identical" : "DIVERGED");

  // Scale leg (full mode): the file the 64 MiB cap used to forbid.
  scale_run sc;
  bool scale_ok = true;  // vacuously true for --small
  if (!small) {
    std::printf("scale leg: %s pooled file, journaled streaming client\n",
                human(static_cast<double>(kScaleFileBytes)).c_str());
    sc = run_scale_leg();
    scale_ok = sc.ok && sc.converged && sc.file_bytes >= kScaleFileBytes &&
               sc.peak_store_bytes <= kPeakBudget;
    std::printf("  create %8.0f ms   updates %8.0f ms   payload up %10s\n",
                sc.create_ms, sc.update_ms,
                human(static_cast<double>(sc.payload_up)).c_str());
    std::printf("  peak store %10s (budget %s): %s   maxrss %10s   "
                "converged: %s\n",
                human(static_cast<double>(sc.peak_store_bytes)).c_str(),
                human(static_cast<double>(kPeakBudget)).c_str(),
                sc.peak_store_bytes <= kPeakBudget ? "yes" : "OVER",
                human(static_cast<double>(sc.maxrss_kb) * 1024.0).c_str(),
                sc.converged ? "yes" : "NO");
  }

  const bool passed = kernel_ok && scale_ok;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"stream_scale\",\n"
      << "  \"small\": " << (small ? "true" : "false") << ",\n"
      << "  \"kernel_identity\": {\"base_bytes\": " << kernel_bytes
      << ", \"identical\": " << (kernel_ok ? "true" : "false") << "},\n";
  if (!small) {
    out << "  \"scale_leg\": {\n"
        << "    \"file_bytes\": " << sc.file_bytes
        << ", \"create_ms\": " << sc.create_ms
        << ", \"update_ms\": " << sc.update_ms << ",\n"
        << "    \"payload_up\": " << sc.payload_up
        << ", \"total_traffic\": " << sc.total_traffic
        << ", \"commits\": " << sc.commits << ",\n"
        << "    \"peak_store_bytes\": " << sc.peak_store_bytes
        << ", \"peak_budget_bytes\": " << kPeakBudget
        << ", \"maxrss_kb\": " << sc.maxrss_kb << ",\n"
        << "    \"converged\": " << (sc.converged ? "true" : "false")
        << ", \"within_budget\": "
        << (sc.peak_store_bytes <= kPeakBudget ? "true" : "false")
        << "\n  },\n";
  }
  out << "  \"self_check_passed\": " << (passed ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("wrote %s\n", out_path);

  if (!passed) {
    std::printf("SELF-CHECK FAILED\n");
    return 1;
  }
  return 0;
}
