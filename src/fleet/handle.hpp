#pragma once
// Opaque session identity (mvs::fleet).
//
// A SessionHandle names a hosted session: the id is a slot in the fleet's
// handle table and the generation counts how many tenants have occupied
// that slot. Releasing an evicted session recycles its slot under a bumped
// generation, so a caller holding the OLD handle gets a typed
// kStaleHandle error instead of silently addressing the slot's new tenant
// (the classic reused-id bug the raw-int API could not detect).

#include <cstdint>
#include <vector>

namespace mvs::fleet {

struct SessionHandle {
  std::uint64_t id = 0;   ///< slot in the issuing fleet's handle table
  std::uint32_t gen = 0;  ///< slot generation; 0 = never issued (invalid)

  /// Handles from admit() always carry gen >= 1.
  bool valid() const { return gen != 0; }

  friend bool operator==(const SessionHandle& a, const SessionHandle& b) {
    return a.id == b.id && a.gen == b.gen;
  }
  friend bool operator!=(const SessionHandle& a, const SessionHandle& b) {
    return !(a == b);
  }
};

/// Typed outcome of a handle-addressed lifecycle call.
enum class FleetStatus {
  kOk,
  /// The slot exists but the generation does not match: the session this
  /// handle named was released and the slot reused (or never issued).
  kStaleHandle,
  /// The id is outside the table entirely (never a valid handle).
  kUnknownSession,
  /// The handle is live but the session is in the wrong state for the
  /// operation (e.g. pausing an evicted session, releasing an active one).
  kInvalidState,
};

const char* to_string(FleetStatus status);

struct SessionRecord;

/// Slot table mapping live handles to their session records, so every
/// handle-addressed call is one indexed load. Slots are allocated in
/// admission order and recycled LIFO through a free list; every reuse bumps
/// the generation so retired handles stay detectably stale forever (gen
/// wraps after 2^32 - 1 tenants of one slot, far beyond any serving
/// horizon).
class HandleTable {
 public:
  /// Allocate a slot for `session` (reusing the most recently released one
  /// first) and return its handle.
  SessionHandle issue(SessionRecord* session) {
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = entries_.size();
      entries_.emplace_back();
    }
    Entry& e = entries_[slot];
    ++e.gen;
    e.session = session;
    return {static_cast<std::uint64_t>(slot), e.gen};
  }

  /// The session `h` names, or nullptr with *status set to the typed error.
  SessionRecord* find(SessionHandle h, FleetStatus* status = nullptr) const {
    if (h.id >= entries_.size()) {
      if (status) *status = FleetStatus::kUnknownSession;
      return nullptr;
    }
    const Entry& e = entries_[static_cast<std::size_t>(h.id)];
    if (!e.session || e.gen != h.gen) {
      if (status) *status = FleetStatus::kStaleHandle;
      return nullptr;
    }
    if (status) *status = FleetStatus::kOk;
    return e.session;
  }

  /// Retire a live handle's slot into the free list; the next issue() from
  /// this slot carries gen + 1, making `h` permanently stale.
  void release(SessionHandle h) {
    if (!find(h)) return;
    entries_[static_cast<std::size_t>(h.id)].session = nullptr;
    free_.push_back(static_cast<std::size_t>(h.id));
  }

 private:
  struct Entry {
    std::uint32_t gen = 0;
    SessionRecord* session = nullptr;  ///< null once released
  };
  std::vector<Entry> entries_;
  std::vector<std::size_t> free_;
};

}  // namespace mvs::fleet
