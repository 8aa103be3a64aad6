#include "fl/sync_tracker.h"

#include <algorithm>

#include "ckpt/io.h"
#include "common/check.h"

namespace gluefl {

SyncTracker::SyncTracker(int64_t num_clients, size_t dim, size_t window)
    : num_clients_(num_clients), dim_(dim), window_(window) {
  GLUEFL_CHECK(num_clients > 0 && dim > 0 && window > 0);
}

void SyncTracker::record_round_changes(int round, const BitMask& changed) {
  GLUEFL_CHECK_MSG(round == next_round_,
                   "rounds must be recorded consecutively");
  GLUEFL_CHECK(changed.size() == dim_);
  changes_.push_back(changed);
  ++next_round_;
  while (changes_.size() > window_) {
    changes_.pop_front();
    ++first_round_;
  }
}

int SyncTracker::last_sync_of(int client) const {
  GLUEFL_CHECK(client >= 0 && client < num_clients_);
  const auto it = last_sync_.find(client);
  return it == last_sync_.end() ? -1 : it->second;
}

size_t SyncTracker::stale_positions(int client, int round) const {
  GLUEFL_CHECK_MSG(round <= next_round_,
                   "cannot query a round whose predecessors are unrecorded");
  const int ls = last_sync_of(client);
  if (ls < 0 || ls < first_round_) return dim_;  // never synced / off-window
  if (ls >= round) return 0;
  BitMask u(dim_);
  for (int r = ls; r < round; ++r) {
    u |= changes_[static_cast<size_t>(r - first_round_)];
  }
  return u.count();
}

BitMask SyncTracker::stale_mask(int client, int round) const {
  GLUEFL_CHECK_MSG(round <= next_round_,
                   "cannot query a round whose predecessors are unrecorded");
  BitMask u(dim_);
  const int ls = last_sync_of(client);
  if (ls < 0 || ls < first_round_) {
    u.set_all();  // never synced / off-window: full-model download
    return u;
  }
  for (int r = ls; r < round; ++r) {
    u |= changes_[static_cast<size_t>(r - first_round_)];
  }
  return u;
}

size_t SyncTracker::sync_bytes(int client, int round,
                               PositionEncoding enc) const {
  const size_t nnz = stale_positions(client, round);
  if (nnz == 0) return 0;
  if (nnz == dim_) return dense_bytes(dim_);  // full model, positions implicit
  return sparse_update_bytes(nnz, dim_, enc);
}

size_t SyncTracker::changed_union(int from, int to) const {
  GLUEFL_CHECK(from >= first_round_ && to <= next_round_ && from <= to);
  BitMask u(dim_);
  for (int r = from; r < to; ++r) {
    u |= changes_[static_cast<size_t>(r - first_round_)];
  }
  return u.count();
}

int SyncTracker::staleness(int client, int round) const {
  const int ls = last_sync_of(client);
  if (ls < 0) return -1;
  return round - ls;
}

void SyncTracker::mark_synced(int client, int round) {
  GLUEFL_CHECK(client >= 0 && client < num_clients_);
  last_sync_[client] = round;
}

int SyncTracker::last_synced_round(int client) const {
  return last_sync_of(client);
}

size_t SyncTracker::resident_bytes() const {
  // Hash node overhead dominates the 8-byte payload; ~48 bytes/entry.
  return last_sync_.size() * 48 +
         changes_.size() * ((dim_ + 7) / 8 + sizeof(BitMask));
}

void SyncTracker::save_state(ckpt::Writer& w) const {
  w.varint(static_cast<uint64_t>(num_clients_));
  w.varint(dim_);
  // Sparse map as id-sorted (id, last_sync + 1) pairs; sorting makes the
  // byte stream independent of hash-map iteration order, which the
  // resume byte-identity contract requires.
  std::vector<std::pair<int, int>> entries(last_sync_.begin(),
                                           last_sync_.end());
  std::sort(entries.begin(), entries.end());
  w.varint(entries.size());
  for (const auto& [id, ls] : entries) {
    w.varint(static_cast<uint64_t>(id));
    // last_sync entries live in [-1, next_round); +1 keeps them varintable.
    w.varint(static_cast<uint64_t>(ls + 1));
  }
  w.varint(static_cast<uint64_t>(first_round_));
  w.varint(static_cast<uint64_t>(next_round_));
  w.varint(changes_.size());
  for (const BitMask& m : changes_) w.mask(m);
}

void SyncTracker::restore_state(ckpt::Reader& r) {
  const uint64_t n = r.varint();
  const uint64_t dim = r.varint();
  if (n != static_cast<uint64_t>(num_clients_) || dim != dim_) {
    throw ckpt::CkptError(
        "checkpoint sync-tracker shape mismatch (clients " +
        std::to_string(n) + "/" + std::to_string(num_clients_) + ", dim " +
        std::to_string(dim) + "/" + std::to_string(dim_) + ")");
  }
  const uint64_t entries =
      r.varint_max(static_cast<uint64_t>(num_clients_), "sync-map size");
  last_sync_.clear();
  last_sync_.reserve(static_cast<size_t>(entries));
  int64_t prev_id = -1;
  for (uint64_t i = 0; i < entries; ++i) {
    const int64_t id = static_cast<int64_t>(
        r.varint_max(static_cast<uint64_t>(num_clients_) - 1, "sync client"));
    if (id <= prev_id) {
      throw ckpt::CkptError("checkpoint sync-map ids are not sorted");
    }
    prev_id = id;
    const int ls =
        static_cast<int>(r.varint_max(ckpt::kIntCap, "sync round")) - 1;
    last_sync_.emplace(static_cast<int>(id), ls);
  }
  first_round_ = static_cast<int>(r.varint_max(ckpt::kIntCap, "round"));
  next_round_ = static_cast<int>(r.varint_max(ckpt::kIntCap, "round"));
  const uint64_t nmasks = r.varint_max(window_, "mask-window size");
  if (first_round_ + static_cast<int>(nmasks) != next_round_) {
    throw ckpt::CkptError("checkpoint sync-tracker window is inconsistent");
  }
  changes_.clear();
  for (uint64_t i = 0; i < nmasks; ++i) {
    changes_.push_back(r.mask(dim_, "changed-mask"));
  }
}

}  // namespace gluefl
