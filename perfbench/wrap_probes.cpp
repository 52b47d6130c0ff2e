// Output probes, linked into both binaries with -Wl,--wrap=<symbol>: every
// WRAP(<mangled>) below is turned into a --wrap option by CMakeLists.txt.
// A wrapper takes the member function's `this` as its first argument, which
// is how the Itanium C++ ABI passes it.
#include "wrap.hpp"

#include "storage/metadata_service.hpp"

using namespace cloudsync;

namespace perfbench::wraps {

// --- output probe: bytes per (direction, category) -------------------------
void real_meter_record(traffic_meter*, direction, traffic_category,
                       std::uint64_t)
    REAL(_ZN9cloudsync13traffic_meter6recordENS_9directionENS_16traffic_categoryEm);
void wrap_meter_record(traffic_meter*, direction, traffic_category,
                       std::uint64_t)
    WRAP(_ZN9cloudsync13traffic_meter6recordENS_9directionENS_16traffic_categoryEm);
void wrap_meter_record(traffic_meter* self, direction dir,
                       traffic_category cat, std::uint64_t bytes) {
  note_meter(dir, cat, bytes);
  real_meter_record(self, dir, cat, bytes);
}

// --- storage.commit (and the commit-gap probe) -----------------------------
void real_meta_commit(metadata_service*, user_id, device_id,
                      const std::string&, file_manifest)
    REAL(_ZN9cloudsync16metadata_service6commitEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_13file_manifestE);
void wrap_meta_commit(metadata_service*, user_id, device_id,
                      const std::string&, file_manifest)
    WRAP(_ZN9cloudsync16metadata_service6commitEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_13file_manifestE);
void wrap_meta_commit(metadata_service* self, user_id user, device_id source,
                      const std::string& path, file_manifest man) {
  {
    const span s(layer::storage_commit, man.logical_size);
    real_meta_commit(self, user, source, path, std::move(man));
  }
  note_commit();
}

void real_meta_commit_batch(metadata_service*, user_id, device_id,
                            std::vector<manifest_commit>)
    REAL(_ZN9cloudsync16metadata_service12commit_batchEjjSt6vectorINS_15manifest_commitESaIS2_EE);
void wrap_meta_commit_batch(metadata_service*, user_id, device_id,
                            std::vector<manifest_commit>)
    WRAP(_ZN9cloudsync16metadata_service12commit_batchEjjSt6vectorINS_15manifest_commitESaIS2_EE);
void wrap_meta_commit_batch(metadata_service* self, user_id user,
                            device_id source,
                            std::vector<manifest_commit> batch) {
  {
    const span s(layer::storage_commit, 0);
    real_meta_commit_batch(self, user, source, std::move(batch));
  }
  note_commit();
}

}  // namespace perfbench::wraps
