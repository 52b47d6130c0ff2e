#include "storage/chunk_backend.hpp"

#include <algorithm>
#include <stdexcept>

namespace cloudsync {

chunk_backend::chunk_backend(object_store& store, std::size_t chunk_size)
    : store_(store), chunk_size_(chunk_size) {
  if (chunk_size_ == 0) {
    throw std::invalid_argument("chunk_backend: chunk_size must be > 0");
  }
}

std::string chunk_backend::store_chunk(const content_ref& data) {
  const std::string key = "chunk/" + std::to_string(next_chunk_id_++);
  store_.put(key, data);
  return key;
}

void chunk_backend::ref_extents(const chunk_manifest& m) {
  for (const chunk_extent& e : m.extents) ++refs_[e.object_key];
}

void chunk_backend::put_full(const std::string& manifest_key,
                             const content_ref& content) {
  chunk_manifest m;
  m.logical_size = content.size();
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t len = std::min(chunk_size_, content.size() - pos);
    m.extents.push_back({store_chunk(content.substr(pos, len)), 0, len});
    pos += len;
  }
  ref_extents(m);
  manifests_[manifest_key] = std::move(m);
}

void chunk_backend::put_ranges(const std::string& manifest_key,
                               const content_ref& content,
                               const std::vector<std::uint64_t>& range_bytes) {
  chunk_manifest m;
  m.logical_size = content.size();
  std::uint64_t pos = 0;
  for (const std::uint64_t len : range_bytes) {
    if (len == 0 || pos + len > content.size()) {
      throw std::invalid_argument("chunk_backend: bad range split");
    }
    m.extents.push_back(
        {store_chunk(content.substr(pos, len)), 0, len});
    pos += len;
  }
  if (pos != content.size()) {
    throw std::invalid_argument("chunk_backend: ranges do not cover content");
  }
  ref_extents(m);
  manifests_[manifest_key] = std::move(m);
}

void chunk_backend::append_old_range(chunk_manifest& out,
                                     const chunk_manifest& old,
                                     std::uint64_t offset,
                                     std::uint64_t length) {
  // Walk the old extents and emit sub-extents covering [offset, offset+len).
  std::uint64_t pos = 0;
  for (const chunk_extent& e : old.extents) {
    if (length == 0) break;
    const std::uint64_t ext_end = pos + e.length;
    if (ext_end > offset) {
      const std::uint64_t skip = offset > pos ? offset - pos : 0;
      const std::uint64_t take = std::min(e.length - skip, length);
      // Merge with a preceding extent over the same object when contiguous.
      if (!out.extents.empty()) {
        chunk_extent& last = out.extents.back();
        if (last.object_key == e.object_key &&
            last.offset + last.length == e.offset + skip) {
          last.length += take;
          offset += take;
          length -= take;
          pos = ext_end;
          continue;
        }
      }
      out.extents.push_back({e.object_key, e.offset + skip, take});
      offset += take;
      length -= take;
    }
    pos = ext_end;
  }
  if (length != 0) {
    throw std::runtime_error("chunk_backend: copy range beyond old file");
  }
}

void chunk_backend::apply_delta(const std::string& old_key,
                                const std::string& new_key,
                                const file_delta& delta) {
  const auto it = manifests_.find(old_key);
  if (it == manifests_.end()) {
    throw std::runtime_error("chunk_backend: unknown manifest " + old_key);
  }
  const chunk_manifest& old = it->second;
  const std::uint64_t bs = delta.block_size;
  const std::uint64_t old_blocks =
      bs > 0 ? (old.logical_size + bs - 1) / bs : 0;

  chunk_manifest next;
  next.logical_size = delta.new_file_size;
  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::copy) {
      const std::uint64_t start = op.block_index * bs;
      const std::uint64_t end = std::min<std::uint64_t>(
          old.logical_size, (op.block_index + op.block_count) * bs);
      if (!copy_in_range(op, old_blocks) || start > end) {
        throw std::runtime_error("chunk_backend: copy past end of old file");
      }
      append_old_range(next, old, start, end - start);
    } else {
      // Fresh bytes: split into chunk-sized objects. A by-reference literal
      // already is a rope — share it instead of re-interning the bytes.
      const content_ref lit =
          op.ref.empty() ? content_ref::from_bytes(op.bytes) : op.ref;
      std::size_t pos = 0;
      while (pos < lit.size()) {
        const std::size_t len = std::min(chunk_size_, lit.size() - pos);
        next.extents.push_back({store_chunk(lit.substr(pos, len)), 0, len});
        pos += len;
      }
    }
  }

  std::uint64_t assembled = 0;
  for (const chunk_extent& e : next.extents) assembled += e.length;
  if (assembled != next.logical_size) {
    throw std::runtime_error("chunk_backend: manifest size mismatch");
  }

  ref_extents(next);
  manifests_[new_key] = std::move(next);
}

content_ref chunk_backend::materialize(const std::string& manifest_key) const {
  const auto it = manifests_.find(manifest_key);
  if (it == manifests_.end()) {
    throw std::runtime_error("chunk_backend: unknown manifest " +
                             manifest_key);
  }
  content_ref::builder out;
  for (const chunk_extent& e : it->second.extents) {
    const auto chunk = store_.get(e.object_key);
    if (!chunk || e.offset + e.length > chunk->size()) {
      throw std::runtime_error("chunk_backend: missing or short chunk " +
                               e.object_key);
    }
    out.append(*chunk, e.offset, e.length);
  }
  return out.build();
}

void chunk_backend::release(const std::string& manifest_key) {
  const auto it = manifests_.find(manifest_key);
  if (it == manifests_.end()) return;
  for (const chunk_extent& e : it->second.extents) {
    const auto rit = refs_.find(e.object_key);
    if (rit == refs_.end()) continue;
    if (--rit->second == 0) {
      store_.remove(e.object_key);
      refs_.erase(rit);
    }
  }
  manifests_.erase(it);
}

const chunk_manifest* chunk_backend::find(
    const std::string& manifest_key) const {
  const auto it = manifests_.find(manifest_key);
  return it == manifests_.end() ? nullptr : &it->second;
}

}  // namespace cloudsync
