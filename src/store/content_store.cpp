#include "store/content_store.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/content_cache.hpp"

namespace cloudsync {

content_store& content_store::global() {
  static content_store store;
  return store;
}

store_chunk::~store_chunk() {
  if (owner_ != nullptr) owner_->on_chunk_destroyed(*this);
  alive_ = 0;
#ifndef NDEBUG
  // Poison freed content so a dangling byte_view into a detached chunk reads
  // deterministic garbage (and trips asan's heap-use-after-free cleanly).
  // A lazy chunk that was never read has no buffer (null data()), and
  // memset's pointer must not be null even for a zero length.
  if (!data_.empty()) std::memset(data_.data(), 0xDD, data_.size());
#endif
}

byte_view store_chunk::bytes() const {
  assert(alive_ == kAliveMagic &&
         "store_chunk read after its last handle dropped (use-after-detach)");
  // `filled_` is the only cross-thread fast-path guard; `fill_` is touched
  // solely inside the call_once region, so concurrent readers of a shared
  // lazy chunk never race on the generator slot.
  if (!filled_.load(std::memory_order_acquire)) {
    std::call_once(once_, [this] {
      byte_buffer b = fill_();
      if (b.size() != size_) {
        throw std::logic_error("store_chunk: lazy fill produced wrong size");
      }
      data_ = std::move(b);
      fill_ = nullptr;
      if (owner_ != nullptr) owner_->note_materialized(size_);
      filled_.store(true, std::memory_order_release);
    });
  }
  return byte_view{data_};
}

bool store_chunk::materialized() const {
  return filled_.load(std::memory_order_acquire);
}

chunk_handle content_store::finish_chunk(std::unique_ptr<store_chunk> c) {
  c->owner_ = this;
  // Eager chunks are born materialized; filled_==false implies fill_ is set.
  if (!c->fill_) c->filled_.store(true, std::memory_order_release);
  chunks_.fetch_add(1, std::memory_order_relaxed);
  if (c->materialized()) note_materialized(c->size_);
  return chunk_handle(c.release());
}

void content_store::note_materialized(std::size_t bytes) const {
  const std::uint64_t now =
      live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = peak_live_bytes_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_live_bytes_.compare_exchange_weak(peak, now,
                                                 std::memory_order_relaxed)) {
  }
}

void content_store::on_chunk_destroyed(const store_chunk& c) {
  if (c.interned_) {
    shard& s = shard_for(c.hash_);
    std::lock_guard<std::mutex> lock(s.mu);
    auto [it, end] = s.entries.equal_range(c.hash_);
    for (; it != end; ++it) {
      if (it->second.raw == &c) {
        s.entries.erase(it);
        break;
      }
    }
    interned_chunks_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (c.materialized()) {
    live_bytes_.fetch_sub(c.size_, std::memory_order_relaxed);
  }
  chunks_.fetch_sub(1, std::memory_order_relaxed);
}

chunk_handle content_store::intern(byte_view data) {
  const std::uint64_t hash = content_hash64(data);
  shard& s = shard_for(hash);
  // Candidate handles must outlive the lock: releasing the last reference to
  // a chunk runs its destructor, which re-enters this shard's mutex.
  std::vector<chunk_handle> hold;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto [it, end] = s.entries.equal_range(hash);
    for (; it != end; ++it) {
      chunk_handle cand = it->second.weak.lock();
      if (!cand) continue;  // dying concurrently; its destructor will erase it
      if (cand->size() == data.size() &&
          (data.empty() ||
           std::memcmp(cand->bytes().data(), data.data(), data.size()) == 0)) {
        intern_hits_.fetch_add(1, std::memory_order_relaxed);
        return cand;
      }
      hold.push_back(std::move(cand));
    }
    intern_misses_.fetch_add(1, std::memory_order_relaxed);
    auto c = std::unique_ptr<store_chunk>(new store_chunk());
    c->data_.assign(data.begin(), data.end());
    c->size_ = data.size();
    c->hash_ = hash;
    c->interned_ = true;
    chunk_handle made = finish_chunk(std::move(c));
    s.entries.emplace(hash, table_entry{made.get(), made});
    interned_chunks_.fetch_add(1, std::memory_order_relaxed);
    return made;
  }
}

chunk_handle content_store::adopt(byte_buffer&& data) {
  auto c = std::unique_ptr<store_chunk>(new store_chunk());
  c->size_ = data.size();
  c->data_ = std::move(data);
  return finish_chunk(std::move(c));
}

chunk_handle content_store::lazy(std::size_t size,
                                 std::function<byte_buffer()> fill) {
  auto c = std::unique_ptr<store_chunk>(new store_chunk());
  c->size_ = size;
  c->fill_ = std::move(fill);
  return finish_chunk(std::move(c));
}

content_store::stats_snapshot content_store::stats() const {
  stats_snapshot s;
  s.chunks = chunks_.load();
  s.live_bytes = live_bytes_.load();
  s.peak_live_bytes = peak_live_bytes_.load();
  s.interned_chunks = interned_chunks_.load();
  s.intern_hits = intern_hits_.load();
  s.intern_misses = intern_misses_.load();
  return s;
}

void content_store::reset_peak() {
  peak_live_bytes_.store(live_bytes_.load());
}

content_store::table_profile content_store::profile_table() const {
  table_profile p;
  for (std::size_t i = 0; i < kShards; ++i) {
    shard& s = shards_[i];
    std::vector<chunk_handle> hold;  // release handles outside the lock
    {
      std::lock_guard<std::mutex> lock(s.mu);
      for (const auto& [hash, entry] : s.entries) {
        chunk_handle c = entry.weak.lock();
        if (!c) continue;
        // use_count includes the handle we just took.
        const std::size_t refs =
            static_cast<std::size_t>(c.use_count()) - 1;
        ++p.refcount_histogram[refs];
        p.unique_bytes += c->size();
        p.logical_bytes += static_cast<std::uint64_t>(c->size()) * refs;
        hold.push_back(std::move(c));
      }
    }
  }
  return p;
}

}  // namespace cloudsync
