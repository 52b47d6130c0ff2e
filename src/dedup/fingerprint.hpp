// Content fingerprints for deduplication.
//
// SHA-256 is collision-resistant enough that the engine treats fingerprint
// equality as content equality (the same assumption commercial services and
// the paper's Algorithm-1 probe rely on).
#pragma once

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace cloudsync {

using fingerprint = sha256_digest;

inline fingerprint fingerprint_of(byte_view data) { return sha256(data); }

}  // namespace cloudsync
