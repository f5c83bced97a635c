#include "serve/shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "serve/recovery.h"
#include "serve/replication.h"
#include "serve/wal.h"
#include "util/error.h"

namespace sbx::serve {

ModelShard::ModelShard(std::size_t user_count)
    : user_count_(user_count),
      users_(std::make_unique<UserModel[]>(user_count)),
      uid_of_local_(user_count, 0),
      dedup_(user_count),
      dirty_(user_count, 0) {
  if (user_count == 0) {
    throw InvalidArgument("ModelShard: user_count must be greater than 0");
  }
}

void ModelShard::configure_dedup(std::size_t dedup_window) {
  const util::MutexLock lock(mutation_mutex_);
  dedup_window_ = dedup_window;
}

void ModelShard::attach_durability(Durability* durability,
                                   std::size_t shard_index) {
  const util::MutexLock lock(mutation_mutex_);
  durability_ = durability;
  shard_index_ = shard_index;
}

void ModelShard::attach_replicator(Replicator* replicator) {
  const util::MutexLock lock(mutation_mutex_);
  if (replicator != nullptr && durability_ == nullptr) {
    throw InvalidArgument(
        "ModelShard: attach_replicator requires an attached Durability "
        "(replication ships WAL records)");
  }
  replicator_ = replicator;
}

void ModelShard::set_uid_of_local(std::size_t local, std::uint64_t uid) {
  user(local);  // range check
  const util::MutexLock lock(mutation_mutex_);
  uid_of_local_[local] = uid;
}

UserModel& ModelShard::user(std::size_t local) {
  if (local >= user_count_) {
    throw InvalidArgument("ModelShard: user slot " + std::to_string(local) +
                          " out of range (shard owns " +
                          std::to_string(user_count_) + ")");
  }
  return users_[local];
}

const UserModel& ModelShard::user(std::size_t local) const {
  return const_cast<ModelShard*>(this)->user(local);
}

OverlaySnapshot ModelShard::overlay(std::size_t local) const {
  return user(local).snapshot();
}

const DedupEntry* ModelShard::find_dedup(std::size_t local,
                                         std::uint64_t request_id) const {
  if (request_id == 0) return nullptr;
  for (const DedupEntry& e : dedup_[local]) {
    if (e.request_id == request_id) return &e;
  }
  return nullptr;
}

void ModelShard::remember_dedup(std::size_t local, DedupEntry entry) {
  if (dedup_window_ == 0 || entry.request_id == 0) return;
  std::deque<DedupEntry>& window = dedup_[local];
  window.push_back(entry);
  while (window.size() > dedup_window_) window.pop_front();
}

MutationResult ModelShard::apply_mutation(std::size_t local,
                                          const MutationRequest& req,
                                          const spambayes::TokenIdSet& ids) {
  UserModel& model = user(local);
  const util::MutexLock lock(mutation_mutex_);

  if (const DedupEntry* hit = find_dedup(local, req.request_id)) {
    deduped_.fetch_add(1, std::memory_order_relaxed);
    const OverlaySnapshot now = model.snapshot();
    MutationResult replayed{now ? now->generation() : 0, hit->spam, hit->ham,
                            true};
    if (durability_ != nullptr) {
      // The retried original may still sit in an open commit window, so
      // the replayed ack draws a fresh ticket: awaiting it flushes every
      // record appended so far, the original included.
      replayed.commit_ticket = durability_->note_append();
    }
    return replayed;
  }

  // Prepare first: a mutation that cannot apply (bad untrain) must fail
  // before anything reaches the log.
  OverlaySnapshot next = model.prepare(ids, req.as_spam, req.copies,
                                       req.op == kWalOpTrain, mutation_mutex_);

  MutationResult result{0, 0, 0, false};
  if (durability_ != nullptr) {
    WalRecord record;
    record.op = req.op;
    record.seqno = durability_->draw_seqno();
    record.user_id = req.user_id;
    record.request_id = req.request_id;
    record.as_spam = req.as_spam;
    record.copies = req.copies;
    record.message = *req.message;
    durability_->wal(shard_index_).append(record);
    result.commit_ticket = durability_->note_append();
    last_seqno_ = record.seqno;
    dirty_[local] = 1;
    if (replicator_ != nullptr) {
      // Enqueued under the shard lock, right after the append: the ship
      // queue sees each shard's records in seqno order, which is what
      // lets the standby dedup resends by per-shard seqno alone.
      result.repl_ticket = replicator_->enqueue(
          static_cast<std::uint32_t>(shard_index_), record);
    }
  }

  result.generation = next->generation();
  result.spam = next->spam_count();
  result.ham = next->ham_count();
  model.publish(std::move(next), mutation_mutex_);
  remember_dedup(local, DedupEntry{req.request_id, req.op, result.spam,
                                   result.ham});
  if (durability_ != nullptr) maybe_snapshot();
  return result;
}

LoggedApplyResult ModelShard::apply_logged(std::size_t local,
                                           const WalRecord& record,
                                           const spambayes::TokenIdSet& ids) {
  UserModel& model = user(local);
  const util::MutexLock lock(mutation_mutex_);
  // A resent, replayed or checkpointed record: it already counts here.
  if (record.seqno <= last_seqno_) return {};

  OverlaySnapshot next = model.prepare(ids, record.as_spam, record.copies,
                                       record.op == kWalOpTrain,
                                       mutation_mutex_);
  LoggedApplyResult result;
  if (durability_ != nullptr) {
    // Keep the record's seqno: this node's log must replay to the same
    // watermark the ack names.
    durability_->wal(shard_index_).append(record);
    result.commit_ticket = durability_->note_append();
  }
  const std::uint32_t spam = next->spam_count();
  const std::uint32_t ham = next->ham_count();
  model.publish(std::move(next), mutation_mutex_);
  remember_dedup(local, DedupEntry{record.request_id, record.op, spam, ham});
  last_seqno_ = record.seqno;
  dirty_[local] = 1;
  result.applied = true;
  if (durability_ != nullptr) maybe_snapshot();
  return result;
}

std::uint64_t ModelShard::last_seqno() const {
  const util::MutexLock lock(mutation_mutex_);
  return last_seqno_;
}

void ModelShard::replay_install(std::size_t local, OverlaySnapshot overlay,
                                std::vector<DedupEntry> dedup) {
  user(local);  // range check
  const util::MutexLock lock(mutation_mutex_);
  users_[local].install(std::move(overlay));
  std::deque<DedupEntry>& window = dedup_[local];
  window.assign(dedup.begin(), dedup.end());
  while (dedup_window_ != 0 && window.size() > dedup_window_) {
    window.pop_front();
  }
}

void ModelShard::note_checkpoint(std::uint64_t seqno) {
  const util::MutexLock lock(mutation_mutex_);
  last_seqno_ = std::max(last_seqno_, seqno);
}

void ModelShard::maybe_snapshot() {
  const std::uint64_t every = durability_->snapshot_every();
  if (every == 0) return;
  if (durability_->wal(shard_index_).records_since_truncate() < every) return;

  // A root holds every user with state, any other checkpoint the users
  // dirtied since the last one.
  const bool root = durability_->checkpoint_wants_root(shard_index_);
  std::vector<UserSnapshotState> users;
  for (std::size_t i = 0; i < user_count_; ++i) {
    if (!root && dirty_[i] == 0) continue;
    UserSnapshotState u;
    u.uid = uid_of_local_[i];
    u.overlay = users_[i].snapshot();
    u.dedup.assign(dedup_[i].begin(), dedup_[i].end());
    if (u.overlay == nullptr && u.dedup.empty()) continue;  // nothing to keep
    users.push_back(std::move(u));
  }
  durability_->checkpoint(shard_index_, last_seqno_, std::move(users));
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

void ModelShard::record_classified(std::size_t local, std::uint64_t messages) {
  user(local).record_classified(messages);
}

ShardStats ModelShard::stats() const {
  ShardStats out;
  out.users = user_count_;
  for (std::size_t i = 0; i < user_count_; ++i) {
    const UserModel& model = users_[i];
    if (model.snapshot() != nullptr) ++out.overlay_users;
    out.classified_messages += model.classified();
    out.mutations += model.mutations();
  }
  out.deduped = deduped_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sbx::serve
