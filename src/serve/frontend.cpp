#include "serve/frontend.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "email/rfc2822.h"
#include "serve/replication.h"
#include "spambayes/scoring_math.h"
#include "util/error.h"
#include "util/sharding.h"

namespace sbx::serve {

ServeFrontend::ServeFrontend(spambayes::Filter base, FrontendConfig config,
                             std::unique_ptr<Durability> durability)
    : base_(std::move(base)), durability_(std::move(durability)) {
  if (config.shard_count == 0) {
    throw InvalidArgument("ServeFrontend: shard_count must be greater than 0");
  }
  if (config.user_count == 0) {
    throw InvalidArgument("ServeFrontend: user_count must be greater than 0");
  }
  if (durability_ != nullptr &&
      durability_->shard_count() != config.shard_count) {
    throw InvalidArgument(
        "ServeFrontend: durability shard count does not match config");
  }
  // Classify drops tokens the interner has never seen. That is exact only
  // if a zero-count token can never enter delta(E), so check it with the
  // scorers' own arithmetic. For counts {0,0} Eq. 1-2 does not depend on
  // the class totals, so the base's totals stand for every overlay's.
  const spambayes::ClassifierOptions& scoring = base_.options().classifier;
  const double unseen_distance = spambayes::detail::distance_from_neutral(
      spambayes::detail::score_from_counts(
          {}, base_.database().spam_count(), base_.database().ham_count(),
          scoring));
  if (spambayes::detail::admits(unseen_distance, scoring)) {
    throw InvalidArgument(
        "ServeFrontend: classifier options make an unseen token a "
        "discriminator (unknown_word_prob too far from 0.5 for "
        "minimum_prob_strength); lookup-only classify would change scores");
  }
  base_table_ = std::make_shared<const spambayes::ScoreTable>(
      base_.database(), scoring);
  // Route every user id up front: shard by splitmix64 hash, then assign
  // dense local slots per shard so each ModelShard only allocates the
  // users it actually owns.
  route_.resize(config.user_count);
  std::vector<std::uint32_t> next_local(config.shard_count, 0);
  for (std::uint64_t uid = 0; uid < config.user_count; ++uid) {
    const std::size_t shard = util::shard_of(uid, config.shard_count);
    route_[uid] = {static_cast<std::uint32_t>(shard), next_local[shard]++};
  }
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    // A hash-unlucky shard may own zero users; give it one slot so the
    // shard array stays dense and addressable.
    const std::size_t owned = next_local[s] > 0 ? next_local[s] : 1;
    shards_.push_back(std::make_unique<ModelShard>(owned));
    shards_.back()->configure_dedup(config.dedup_window);
  }
  for (std::uint64_t uid = 0; uid < config.user_count; ++uid) {
    shards_[route_[uid].shard]->set_uid_of_local(route_[uid].local, uid);
  }
  if (durability_ != nullptr) {
    // Replay first, attach after: a replayed record must not reach the log
    // it was read from.
    recovery_stats_ = recover_from(durability_->config().data_dir);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->attach_durability(durability_.get(), s);
    }
    durability_->note_recovered_seqno(applied_watermark());
  }
}

ServeFrontend::~ServeFrontend() = default;

ServeFrontend::RouteEntry ServeFrontend::route(std::uint64_t user_id) const {
  return route_checked(user_id);
}

OverlaySnapshot ServeFrontend::overlay(std::uint64_t user_id) const {
  const RouteEntry& at = route_checked(user_id);
  return shards_[at.shard]->overlay(at.local);
}

const ServeFrontend::RouteEntry& ServeFrontend::route_checked(
    std::uint64_t user_id) const {
  if (user_id >= route_.size()) {
    throw InvalidArgument("serve: unknown user " + std::to_string(user_id) +
                          " (serving " + std::to_string(route_.size()) +
                          " users)");
  }
  return route_[user_id];
}

ClassifyBatchResponse ServeFrontend::classify_batch(
    const ClassifyBatchRequest& request) {
  const RouteEntry at = route_checked(request.user_id);
  ModelShard& shard = *shards_[at.shard];

  // One snapshot for the whole batch: mutations landing mid-batch are
  // seen by the next request, never by a half-scored batch. It is taken
  // BEFORE tokenizing: every token with counts in it is then already
  // interned, so the lookup-only tokenize below drops only zero-count
  // tokens (TokenInterner::probe). Tokenizing first would let a concurrent
  // train intern and publish a token this batch had already dropped.
  const OverlaySnapshot overlay = shard.overlay(at.local);

  // Lookup-only: classify never writes the interner, so traffic full of
  // fresh tokens grows nothing indexed by TokenId.
  std::vector<spambayes::TokenIdList> ids;
  ids.reserve(request.messages.size());
  for (const std::string& raw : request.messages) {
    ids.push_back(base_.message_known_token_ids(email::parse_message(raw)));
  }

  // One engine batch per request, on the calling thread's scratch. A null
  // overlay means the base filter IS this user's model: the batch reads
  // the frontend's shared base table and builds no per-thread table.
  // Otherwise the engine scores base + overlay counts fresh.
  ClassifyBatchResponse response;
  response.results.resize(ids.size());
  const auto ids_of = [&](std::size_t i) -> const spambayes::TokenIdList& {
    return ids[i];
  };
  const auto sink = [&](std::size_t i, const spambayes::BatchScore& s) {
    response.results[i] = {s.score, verdict_to_byte(s.verdict)};
  };
  spambayes::ScoreEngine& engine =
      spambayes::ScoreEngine::for_current_thread(base_.options().classifier);
  if (overlay == nullptr) {
    engine.score_batch(*base_table_, ids.size(), ids_of, sink);
  } else {
    engine.score_batch(base_.database(), overlay.get(), ids.size(), ids_of,
                       sink);
  }
  shard.record_classified(at.local, ids.size());
  classify_requests_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

MutationResult ServeFrontend::apply(std::uint8_t op, std::uint64_t user_id,
                                    std::uint64_t request_id, bool as_spam,
                                    std::uint32_t copies,
                                    const std::string& message) {
  if (copies == 0) {
    throw InvalidArgument("serve: mutation copies must be greater than 0");
  }
  const RouteEntry at = route_checked(user_id);
  const spambayes::TokenIdSet ids =
      base_.message_token_ids(email::parse_message(message));
  MutationRequest req;
  req.op = op;
  req.user_id = user_id;
  req.request_id = request_id;
  req.as_spam = as_spam;
  req.copies = copies;
  req.message = &message;
  const MutationResult result =
      shards_[at.shard]->apply_mutation(at.local, req, ids);
  // Both waits run after the shard lock is released: group commit and
  // quorum acks gate THIS request's response, never another user's
  // mutation throughput.
  if (durability_ != nullptr) durability_->await_durable(result.commit_ticket);
  if (replicator_ != nullptr) replicator_->wait_acked(result.repl_ticket);
  return result;
}

TrainResponse ServeFrontend::train(const TrainRequest& request) {
  const MutationResult r =
      apply(kWalOpTrain, request.user_id, request.request_id, request.as_spam,
            request.copies, request.message);
  train_requests_.fetch_add(1, std::memory_order_relaxed);
  return {r.generation, r.spam, r.ham};
}

UntrainResponse ServeFrontend::untrain(const UntrainRequest& request) {
  const MutationResult r = apply(kWalOpUntrain, request.user_id,
                                 request.request_id, request.as_spam,
                                 request.copies, request.message);
  untrain_requests_.fetch_add(1, std::memory_order_relaxed);
  return {r.generation, r.spam, r.ham};
}

void ServeFrontend::set_standby(std::string redirect_hint) {
  redirect_hint_ = std::move(redirect_hint);
  role_.store(Role::kStandby, std::memory_order_release);
}

std::uint64_t ServeFrontend::applied_watermark() const {
  std::uint64_t watermark = 0;
  for (const auto& shard : shards_) {
    watermark = std::max(watermark, shard->last_seqno());
  }
  return watermark;
}

PromoteResponse ServeFrontend::promote() {
  const std::uint64_t watermark = applied_watermark();
  if (durability_ != nullptr) {
    // Seqnos drawn as a primary must land strictly above everything
    // replicated in — otherwise the promoted node's first mutation would
    // collide with an applied record and be skipped on the next failover.
    durability_->note_recovered_seqno(watermark);
  }
  role_.store(Role::kPrimary, std::memory_order_release);
  return PromoteResponse{watermark};
}

ReplicateAckResponse ServeFrontend::replicate_batch(
    const ReplicateBatchRequest& request) {
  std::uint64_t max_ticket = 0;
  std::uint64_t max_seqno = 0;
  std::uint64_t applied = 0;
  for (const ReplicatedRecord& entry : request.records) {
    const LoggedApplyResult r = apply_logged_record(entry.shard, entry.record);
    if (r.applied) {
      ++applied;
      max_ticket = std::max(max_ticket, r.commit_ticket);
    }
    max_seqno = std::max(max_seqno, entry.record.seqno);
  }
  // The ack promises durability: every applied record is fsync-covered
  // (per this node's own policy) before the primary hears the watermark.
  if (durability_ != nullptr) durability_->await_durable(max_ticket);
  standby_applied_records_.fetch_add(applied, std::memory_order_relaxed);
  ReplicateAckResponse ack;
  ack.acked_seqno = max_seqno;
  ack.applied_records =
      standby_applied_records_.load(std::memory_order_relaxed);
  return ack;
}

void ServeFrontend::attach_replicator(std::unique_ptr<Replicator> replicator) {
  replicator_ = std::move(replicator);
  for (const auto& shard : shards_) {
    shard->attach_replicator(replicator_.get());
  }
}

void ServeFrontend::sync_durability() {
  if (replicator_ != nullptr) {
    replicator_->flush(2'000);
    replicator_->stop();
  }
  if (durability_ != nullptr) durability_->sync_all();
}

LoggedApplyResult ServeFrontend::apply_logged_record(
    std::uint32_t shard, const WalRecord& record) {
  const RouteEntry at = route_checked(record.user_id);
  if (at.shard != shard) {
    // Primary and standby, and a log and the process replaying it, derive
    // routing from the same manifest; a disagreement means they are not
    // one topology.
    throw InvalidArgument("serve: logged record routes user " +
                          std::to_string(record.user_id) + " to shard " +
                          std::to_string(at.shard) + " here, shard " +
                          std::to_string(shard) +
                          " where it was logged (topology mismatch)");
  }
  const spambayes::TokenIdSet ids =
      base_.message_token_ids(email::parse_message(record.message));
  return shards_[at.shard]->apply_logged(at.local, record, ids);
}

RecoveryStats ServeFrontend::recover_from(const std::string& data_dir) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryStats stats;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    SnapshotChainScan scan = scan_snapshot_chain(data_dir, s);
    const auto install = [&](std::vector<UserSnapshotState>& users) {
      for (UserSnapshotState& u : users) {
        const RouteEntry at = route_checked(u.uid);
        shards_[at.shard]->replay_install(at.local, std::move(u.overlay),
                                          std::move(u.dedup));
        ++stats.snapshot_users;
      }
    };
    if (scan.full.has_value()) install(scan.full->users);
    // Later segments override earlier state for the same user: each
    // segment stores a dirtied user's complete overlay, not a delta.
    for (IncrementalSnapshot& segment : scan.segments) {
      install(segment.users);
      ++stats.snapshot_segments;
    }
    shards_[s]->note_checkpoint(scan.snapshot_seqno);
    stats.max_seqno = std::max(stats.max_seqno, scan.snapshot_seqno);

    const WalReadStats rs =
        read_wal(wal_path_in(data_dir, s), [&](const WalRecord& record) {
          stats.max_seqno = std::max(stats.max_seqno, record.seqno);
          if (apply_logged_record(s, record).applied) ++stats.replayed_records;
        });
    stats.torn_dropped += rs.dropped_torn + rs.dropped_corrupt;
    if (durability_ != nullptr) {
      durability_->adopt_chain(s, scan);
      // Cut the torn tail so future appends land where the scan stops;
      // otherwise every record after the tear stays unreadable.
      if (rs.bytes_used < rs.bytes_total) {
        durability_->wal(s).truncate(rs.bytes_used);
      }
      for (const std::string& stale : scan.stale_paths) {
        std::error_code ignored;  // best effort: the next scan skips it too
        std::filesystem::remove(stale, ignored);
      }
    }
  }
  stats.duration_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return stats;
}

StatsResponse ServeFrontend::stats() const {
  StatsResponse out;
  out.users = route_.size();
  out.shards = shards_.size();
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    out.overlay_users += s.overlay_users;
    out.classified_messages += s.classified_messages;
    out.deduped_mutations += s.deduped;
  }
  out.classify_requests = classify_requests_.load(std::memory_order_relaxed);
  out.train_requests = train_requests_.load(std::memory_order_relaxed);
  out.untrain_requests = untrain_requests_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.base_spam_count = base_.database().spam_count();
  out.base_ham_count = base_.database().ham_count();
  out.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (durability_ != nullptr) {
    out.wal_records = durability_->total_records();
    out.wal_bytes = durability_->total_bytes();
    out.wal_snapshots = durability_->snapshots_taken();
    out.group_commit_windows = durability_->group_commit_windows();
    out.incremental_snapshot_bytes = durability_->incremental_snapshot_bytes();
  }
  if (replicator_ != nullptr) {
    const ReplicationStats repl = replicator_->stats();
    out.repl_shipped_seqno = repl.shipped_seqno;
    out.repl_acked_seqno = repl.acked_seqno;
    out.repl_lag_records = repl.lag_records;
  }
  out.standby_applied_records =
      standby_applied_records_.load(std::memory_order_relaxed);
  out.recovery_replayed_records = recovery_stats_.replayed_records;
  out.recovery_torn_dropped = recovery_stats_.torn_dropped;
  out.recovery_ms = recovery_stats_.duration_ms;
  out.recovery_snapshot_users = recovery_stats_.snapshot_users;
  if (const ServerCounters* counters =
          server_counters_.load(std::memory_order_acquire)) {
    out.shed_connections = counters->shed.load(std::memory_order_relaxed);
    out.active_connections = counters->active.load(std::memory_order_relaxed);
  }
  return out;
}

ErrorResponse ServeFrontend::not_primary(const char* what) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  ErrorResponse out;
  out.message = std::string("serve: standby refuses ") + what +
                (redirect_hint_.empty() ? "" : "; primary is at " +
                                                   redirect_hint_);
  out.code = static_cast<std::uint8_t>(ErrorCode::kNotPrimary);
  out.redirect = redirect_hint_;
  return out;
}

Response ServeFrontend::dispatch(const Request& request) {
  try {
    const bool standby = role() == Role::kStandby;
    if (const auto* c = std::get_if<ClassifyBatchRequest>(&request)) {
      // Classify is refused too: a standby's models trail the primary by
      // the ship lag, and "reads may be stale by an unbounded amount" is
      // not a contract any caller opted into.
      if (standby) return not_primary("classify");
      return classify_batch(*c);
    }
    if (const auto* t = std::get_if<TrainRequest>(&request)) {
      if (standby) return not_primary("train");
      return train(*t);
    }
    if (const auto* u = std::get_if<UntrainRequest>(&request)) {
      if (standby) return not_primary("untrain");
      return untrain(*u);
    }
    if (const auto* r = std::get_if<ReplicateBatchRequest>(&request)) {
      if (!standby) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return ErrorResponse{
            "serve: this node is a primary; it does not accept replicated "
            "records (two primaries shipping at each other is a split "
            "brain, not a topology)",
            static_cast<std::uint8_t>(ErrorCode::kGeneric)};
      }
      return replicate_batch(*r);
    }
    if (std::holds_alternative<PromoteRequest>(request)) {
      return promote();
    }
    if (std::holds_alternative<StatsRequest>(request)) {
      return stats();
    }
    return ShutdownResponse{};
  } catch (const Error& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse{e.what()};
  }
}

}  // namespace sbx::serve
