#include "storage/object_store.hpp"

#include <algorithm>

namespace cloudsync {

void object_store::put(const std::string& key, const content_ref& data) {
  ++stats_.puts;
  stats_.bytes_written += data.size();
  record& rec = objects_[key];
  if (!rec.deleted && !rec.versions.empty()) {
    stats_.live_bytes -= rec.versions.back().size();
  } else {
    // The key joins the live set (fresh create or un-delete).
    live_keys_.invalidate();
  }
  rec.versions.push_back(data);
  rec.deleted = false;
  stats_.retained_bytes += data.size();
  stats_.live_bytes += data.size();
}

std::optional<content_ref> object_store::get(std::string_view key) const {
  ++stats_.gets;
  const auto it = objects_.find(key);
  if (it == objects_.end() || it->second.deleted ||
      it->second.versions.empty()) {
    return std::nullopt;
  }
  const content_ref& latest = it->second.versions.back();
  stats_.bytes_read += latest.size();
  return latest;
}

bool object_store::head(std::string_view key) const {
  ++stats_.heads;
  const auto it = objects_.find(key);
  return it != objects_.end() && !it->second.deleted;
}

bool object_store::remove(std::string_view key) {
  ++stats_.deletes;
  const auto it = objects_.find(key);
  if (it == objects_.end() || it->second.deleted) return false;
  it->second.deleted = true;
  live_keys_.invalidate();
  if (!it->second.versions.empty()) {
    stats_.live_bytes -= it->second.versions.back().size();
  }
  return true;
}

std::vector<std::string> object_store::list(std::string_view prefix) const {
  ++stats_.lists;
  const std::vector<std::string>& live =
      live_keys_.get([this](std::vector<std::string>& out) {
        out.reserve(objects_.size());
        for (const auto& [key, rec] : objects_) {
          if (!rec.deleted) out.push_back(key);
        }
      });
  // The snapshot is sorted, so the prefix's matches are one contiguous run.
  auto first = std::lower_bound(live.begin(), live.end(), prefix,
                                [](const std::string& key, std::string_view p) {
                                  return std::string_view{key} < p;
                                });
  std::vector<std::string> out;
  for (auto it = first; it != live.end(); ++it) {
    if (std::string_view{*it}.substr(0, prefix.size()) != prefix) break;
    out.push_back(*it);
  }
  return out;
}

std::size_t object_store::version_count(std::string_view key) const {
  const auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.versions.size();
}

std::optional<content_ref> object_store::get_version(
    std::string_view key, std::size_t version) const {
  const auto it = objects_.find(key);
  if (it == objects_.end() || version >= it->second.versions.size()) {
    return std::nullopt;
  }
  return it->second.versions[version];
}

bool object_store::undelete(std::string_view key) {
  const auto it = objects_.find(key);
  if (it == objects_.end() || !it->second.deleted) return false;
  it->second.deleted = false;
  live_keys_.invalidate();
  if (!it->second.versions.empty()) {
    stats_.live_bytes += it->second.versions.back().size();
  }
  return true;
}

std::uint64_t object_store::compact_history() {
  std::uint64_t freed = 0;
  for (auto& [_, rec] : objects_) {
    while (rec.versions.size() > 1) {
      freed += rec.versions.front().size();
      rec.versions.erase(rec.versions.begin());
    }
  }
  stats_.retained_bytes -= freed;
  return freed;
}

std::uint64_t object_store::live_bytes() const {
  std::uint64_t t = 0;
  for (const auto& [_, rec] : objects_) {
    if (!rec.deleted && !rec.versions.empty()) {
      t += rec.versions.back().size();
    }
  }
  return t;
}

std::uint64_t object_store::retained_bytes() const {
  std::uint64_t t = 0;
  for (const auto& [_, rec] : objects_) {
    for (const content_ref& v : rec.versions) t += v.size();
  }
  return t;
}

}  // namespace cloudsync
