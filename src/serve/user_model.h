// sbx/serve/user_model.h
//
// Per-user training state for the multi-tenant serving layer: a
// copy-on-write delta overlay on a shared immutable base TokenDatabase.
//
// Every user starts with a null overlay — classification then runs
// directly against the base through the frontend's one ScoreTable, so an
// idle fleet of a million users costs one database and one table per
// process, zero per-user bytes beyond the slot itself. The first
// train/untrain materializes a private delta database holding only
// that user's feedback; classification then sums it with the base on
// ScoreEngine's fresh source, which is bit-identical to a standalone
// filter trained on base + overlay messages and never touches the base's
// table. A train that would wrap a uint32 count throws from prepare(), so
// the copy is discarded before anything is logged or published.
//
// What a copy costs: TokenDatabase keeps its counts in shared leaves of
// 256 ids behind a spine (token_db.h), so prepare()'s copy is the spine
// alone, one 8-byte pointer per 256 ids of the range the user has
// trained, and the train then clones only the leaves its message's ids
// fall in. Every other leaf stays shared with the published snapshot. A
// user's ids are scattered thinly over the id range, so most of their
// leaves are sparse: a leaf counting n <= 32 ids occupies 48 bytes plus
// room for n entries of 8 bytes, and only a leaf past 32 ids takes the
// dense 2 KiB form. An ordinary user's overlay thus costs about 28 bytes
// per counted token, and a train clones a few dozen small leaves. A user
// whose overlay a dictionary-attack email widened to ~100k ids (386
// dense leaves) pays ~400 refcount increments per later train plus a few
// dozen leaf clones, not a copy of every count up to the highest id they
// ever trained.
//
// Publication protocol (the lock-free read contract): mutations never
// modify a published overlay. They copy it, mutate the copy, and publish
// the copy with a release store into an atomic shared_ptr; readers
// acquire-load a snapshot and score against it for as long as they like —
// the snapshot is immutable and refcount-kept. TokenDatabase's
// process-globally monotonic generation stamp (PR 4) then proves snapshot
// consistency: a copy keeps the stamp, the first mutation of the copy
// draws a strictly larger one, so successive published overlays carry
// strictly increasing generations and `generation() == cached` still
// proves bit-identical contents to any reader's cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "spambayes/interner.h"
#include "spambayes/token_db.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

/// An immutable published overlay state. Null = empty overlay (the user
/// has no feedback of their own; classify against the base directly).
using OverlaySnapshot = std::shared_ptr<const spambayes::TokenDatabase>;

/// One user's slot: the published overlay plus relaxed usage counters.
/// Reads (snapshot, counters) are safe from any thread at any time;
/// mutations must be serialized externally — the owning ModelShard applies
/// them single-threaded under its mutation lock.
class UserModel {
 public:
  UserModel() = default;
  UserModel(const UserModel&) = delete;
  UserModel& operator=(const UserModel&) = delete;

  /// The last published overlay (acquire). Scoring against the returned
  /// snapshot is race-free regardless of concurrent mutations: a mutation
  /// publishes a new database, it never touches this one.
  OverlaySnapshot snapshot() const {
    return overlay_.load(std::memory_order_acquire);
  }

  // Mutations take the owning shard's mutation mutex as an explicit
  // capability parameter: "caller holds the shard mutation lock" is not a
  // comment here, it is SBX_REQUIRES(mu) — a clang build refuses call
  // sites that do not provably hold the lock they pass.

  /// The prepare half of a mutation: builds (but does not publish) the
  /// next overlay state. Splitting prepare from publish is what lets the
  /// shard write-ahead-log the mutation in between — a prepare failure
  /// (bad untrain) leaves both the log and the published overlay
  /// untouched. Caller holds `mu`, the shard mutation lock.
  OverlaySnapshot prepare(const spambayes::TokenIdSet& ids, bool as_spam,
                          std::uint32_t copies, bool is_train,
                          util::Mutex& mu) SBX_REQUIRES(mu);

  /// The publish half: release-stores a prepared overlay and counts the
  /// mutation. Caller holds `mu`, the shard mutation lock.
  void publish(OverlaySnapshot next, util::Mutex& mu) SBX_REQUIRES(mu);

  /// Recovery-only: installs an overlay verbatim (no mutation counting —
  /// restored state is not new feedback).
  void install(OverlaySnapshot snapshot) {
    overlay_.store(std::move(snapshot), std::memory_order_release);
  }

  /// Relaxed counters, exported through the stats endpoint.
  void record_classified(std::uint64_t messages) {
    classified_.fetch_add(messages, std::memory_order_relaxed);
  }
  std::uint64_t classified() const {
    return classified_.load(std::memory_order_relaxed);
  }
  std::uint64_t mutations() const {
    return mutations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<OverlaySnapshot> overlay_{nullptr};
  std::atomic<std::uint64_t> classified_{0};
  std::atomic<std::uint64_t> mutations_{0};
};

}  // namespace sbx::serve
