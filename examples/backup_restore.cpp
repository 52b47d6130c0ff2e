// Backup & restore scenario: "fake deletion" (paper §4.2) in action. Deleting
// a synced file costs almost no traffic because the cloud only flips an
// attribute — which is also exactly what makes restore possible.
//
//   $ ./backup_restore
#include <cstdio>

#include "cloudsync.hpp"

using namespace cloudsync;

int main() {
  experiment_config cfg{google_drive()};
  experiment_env env(cfg);
  station& pc = env.primary();
  cloud& cl = env.the_cloud();

  // Work on a document through several versions.
  pc.fs.create("thesis.tex", to_buffer("v1: introduction"), env.clock().now());
  env.settle();
  pc.fs.write("thesis.tex", to_buffer("v2: introduction + evaluation"),
              env.clock().now());
  env.settle();
  pc.fs.write("thesis.tex",
              to_buffer("v3: introduction + evaluation + conclusion"),
              env.clock().now());
  env.settle();

  const file_manifest* man = cl.manifest(0, "thesis.tex");
  std::printf("synced 3 versions; cloud is at v%llu, object '%s'\n",
              static_cast<unsigned long long>(man->version),
              man->object_key.c_str());
  std::printf("version history retained in the object store: %zu copies\n",
              [&] {
                std::size_t total = 0;
                for (std::uint64_t v = 1; v <= man->version; ++v) {
                  const std::string key =
                      "u0/thesis.tex/v" + std::to_string(v);
                  total += cl.store().version_count(key);
                }
                return total;
              }());

  // Accidental deletion.
  const auto before_delete = pc.client->meter().snap();
  pc.fs.remove("thesis.tex", env.clock().now());
  env.settle();
  std::printf(
      "\ndeleted locally -> cloud marks it deleted; traffic: %s "
      "(fake deletion, §4.2)\n",
      format_bytes(static_cast<double>(
                       pc.client->meter().total_since(before_delete)))
          .c_str());
  std::printf("cloud live view: %s\n",
              cl.file_content(0, "thesis.tex") ? "still present (bug!)"
                                               : "gone (tombstoned)");

  // Restore: the content never left the object store. Undelete the backing
  // object and re-download it.
  const std::string latest_key = man->object_key;
  cl.store().undelete(latest_key);
  const auto restored = cl.store().get(latest_key);
  pc.fs.create("thesis_restored.tex", *restored, env.clock().now());
  env.settle();
  std::printf("\nrestored from retained version: \"%s\"\n",
              to_string(*restored).c_str());

  // Roll back to an earlier version, too.
  const auto v1 = cl.store().get_version("u0/thesis.tex/v1", 0);
  if (v1) {
    std::printf("rollback candidate (v1): \"%s\"\n", to_string(*v1).c_str());
  }
  return 0;
}
