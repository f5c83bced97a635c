// ModelShard / UserModel / routing-layer unit tests, including the
// concurrent classify-during-mutation test the TSan build exercises.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/dictionary_attack.h"
#include "corpus/generator.h"
#include "corpus/vocabulary.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "spambayes/tokenizer.h"
#include "util/error.h"
#include "util/random.h"
#include "util/sharding.h"

namespace sbx::serve {
namespace {

spambayes::TokenIdSet ids_for(std::initializer_list<spambayes::TokenId> ids) {
  return spambayes::TokenIdSet(ids);
}

/// One live train/untrain on an in-memory shard: no WAL is attached, so
/// nothing is logged and the request carries no message text.
void mutate(ModelShard& shard, std::size_t local, std::uint8_t op,
            const spambayes::TokenIdSet& ids, bool as_spam,
            std::uint32_t copies) {
  MutationRequest req;
  req.op = op;
  req.as_spam = as_spam;
  req.copies = copies;
  shard.apply_mutation(local, req, ids);
}

void train(ModelShard& shard, std::size_t local,
           const spambayes::TokenIdSet& ids, bool as_spam,
           std::uint32_t copies = 1) {
  mutate(shard, local, kWalOpTrain, ids, as_spam, copies);
}

void untrain(ModelShard& shard, std::size_t local,
             const spambayes::TokenIdSet& ids, bool as_spam,
             std::uint32_t copies = 1) {
  mutate(shard, local, kWalOpUntrain, ids, as_spam, copies);
}

TEST(Sharding, Mix64SpreadsSequentialKeys) {
  // Sequential user ids must not land on sequential shards; check the
  // splitmix64 route covers all shards for a small population.
  std::vector<int> hits(4, 0);
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    ++hits[util::shard_of(uid, 4)];
  }
  for (int h : hits) EXPECT_GT(h, 0);
  EXPECT_THROW(util::shard_of(1, 0), InvalidArgument);
}

TEST(ModelShard, RejectsZeroUsersAndOutOfRangeSlots) {
  EXPECT_THROW(ModelShard(0), InvalidArgument);
  ModelShard shard(2);
  EXPECT_THROW(shard.overlay(2), InvalidArgument);
}

TEST(ModelShard, TrainPublishesAndUntrainReverses) {
  ModelShard shard(3);
  EXPECT_EQ(shard.overlay(1), nullptr);

  train(shard, 1, ids_for({1, 2, 3}), /*as_spam=*/true, /*copies=*/2);
  const OverlaySnapshot snap = shard.overlay(1);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->spam_count(), 2u);
  EXPECT_EQ(snap->counts(2).spam, 2u);
  EXPECT_EQ(shard.overlay(0), nullptr);  // neighbors untouched

  untrain(shard, 1, ids_for({1, 2, 3}), /*as_spam=*/true, /*copies=*/2);
  const OverlaySnapshot after = shard.overlay(1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->spam_count(), 0u);
  // The snapshot taken before the untrain is immutable: it still shows
  // the trained counts (this is what makes mid-batch reads safe).
  EXPECT_EQ(snap->spam_count(), 2u);
}

TEST(ModelShard, UntrainOfUntrainedUserThrowsAndChangesNothing) {
  ModelShard shard(1);
  EXPECT_THROW(untrain(shard, 0, ids_for({5}), true, 1), Error);
  EXPECT_EQ(shard.overlay(0), nullptr);

  train(shard, 0, ids_for({5}), /*as_spam=*/false, 1);
  const OverlaySnapshot published = shard.overlay(0);
  // Reversing a *different* message fails loudly and leaves the published
  // overlay exactly as it was.
  EXPECT_THROW(untrain(shard, 0, ids_for({6}), false, 1), Error);
  EXPECT_EQ(shard.overlay(0), published);
}

TEST(ModelShard, StatsAggregateUsersAndCounters) {
  ModelShard shard(4);
  train(shard, 0, ids_for({1}), true, 1);
  train(shard, 2, ids_for({2}), false, 1);
  train(shard, 2, ids_for({3}), false, 1);
  shard.record_classified(1, 10);
  const ShardStats s = shard.stats();
  EXPECT_EQ(s.users, 4u);
  EXPECT_EQ(s.overlay_users, 2u);
  EXPECT_EQ(s.classified_messages, 10u);
  EXPECT_EQ(s.mutations, 3u);
}

TEST(ModelShard, GenerationsStrictlyIncreaseAcrossPublishes) {
  ModelShard shard(1);
  std::uint64_t last = 0;
  for (int i = 0; i < 10; ++i) {
    train(shard, 0, ids_for({static_cast<spambayes::TokenId>(i)}), true, 1);
    const std::uint64_t gen = shard.overlay(0)->generation();
    EXPECT_GT(gen, last);
    last = gen;
  }
}

// The TSan target: lock-free snapshot reads racing copy-mutate-publish
// writers. Readers continuously acquire snapshots and walk their counts
// while two writer threads train/untrain through the shard lock.
TEST(ModelShard, ConcurrentSnapshotReadsDuringMutation) {
  ModelShard shard(2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const OverlaySnapshot snap = shard.overlay(0);
        if (snap) {
          // Touch the snapshot's data; TSan flags any write racing this.
          volatile std::uint32_t sink = snap->spam_count() + snap->counts(1).spam;
          (void)sink;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        train(shard, 0, ids_for({1, 2}), /*as_spam=*/w == 0, 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  const OverlaySnapshot final_snap = shard.overlay(0);
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->spam_count() + final_snap->ham_count(), 400u);
}

// What the leaves holding `counted` (leaf -> ids with counts) occupy: a
// leaf that counts more than kSparseMax ids is dense, any other is sparse
// with room for its ids. Exact for an overlay that was only ever trained.
std::size_t leaf_bytes_of(
    const std::map<std::size_t, std::set<spambayes::TokenId>>& counted,
    const std::set<std::size_t>& leaves) {
  using spambayes::TokenDatabase;
  std::size_t bytes = 0;
  for (std::size_t l : leaves) {
    const std::size_t n = counted.at(l).size();
    bytes += n > TokenDatabase::kSparseMax
                 ? TokenDatabase::kLeafBytes
                 : TokenDatabase::sparse_leaf_bytes(n);
  }
  return bytes;
}

// The paper's dictionary attack through the served feedback channel: one
// Aspell-sized email interns ~100k ids into a user's overlay. Each later
// ordinary train must copy only the leaves its own ids fall in, not the
// whole id range the attack widened.
TEST(ModelShard, TrainsAfterADictionaryAttackCopyOnlyTheLeavesTheyTouch) {
  using spambayes::TokenDatabase;
  const corpus::Lexicons lexicons;
  const core::DictionaryAttack attack =
      core::DictionaryAttack::aspell(lexicons);
  const spambayes::Tokenizer tokenizer;
  const corpus::TrecLikeGenerator generator;
  util::Rng rng(11);

  ModelShard shard(1);
  const spambayes::TokenIdSet attack_ids = spambayes::unique_token_ids(
      tokenizer.tokenize_ids(attack.attack_message()));
  train(shard, 0, attack_ids, /*as_spam=*/true);

  OverlaySnapshot prev = shard.overlay(0);
  std::map<std::size_t, std::set<spambayes::TokenId>> counted;
  std::set<std::size_t> held;  // leaves the overlay has counts in
  for (spambayes::TokenId id : attack_ids) {
    counted[id / TokenDatabase::kLeafEntries].insert(id);
    held.insert(id / TokenDatabase::kLeafEntries);
  }
  ASSERT_GE(held.size(),
            attack.dictionary_size() / TokenDatabase::kLeafEntries);
  ASSERT_EQ(prev->leaf_bytes().held_leaves, held.size());
  ASSERT_EQ(prev->leaf_bytes().held, leaf_bytes_of(counted, held));

  for (int m = 0; m < 100; ++m) {
    const bool as_spam = m % 2 == 1;
    const spambayes::TokenIdSet ids =
        spambayes::unique_token_ids(tokenizer.tokenize_ids(
            as_spam ? generator.generate_spam(rng)
                    : generator.generate_ham(rng)));
    std::set<std::size_t> touched;
    for (spambayes::TokenId id : ids) {
      counted[id / TokenDatabase::kLeafEntries].insert(id);
      touched.insert(id / TokenDatabase::kLeafEntries);
    }
    held.insert(touched.begin(), touched.end());
    train(shard, 0, ids, as_spam);

    const OverlaySnapshot next = shard.overlay(0);
    ASSERT_NE(next, prev);
    const TokenDatabase::LeafBytes bytes = next->leaf_bytes();
    EXPECT_EQ(bytes.held_leaves, held.size()) << "message " << m;
    EXPECT_EQ(bytes.held, leaf_bytes_of(counted, held)) << "message " << m;
    // `prev` still holds every leaf it had, so the leaves `next` holds
    // alone are exactly the ones this train cloned or created: one per
    // leaf the message's ids fall in. Every other leaf is shared.
    EXPECT_EQ(bytes.unshared_leaves, touched.size()) << "message " << m;
    EXPECT_EQ(bytes.unshared, leaf_bytes_of(counted, touched))
        << "message " << m;
    prev = next;
  }
}

// A served user's overlay costs about the tokens it counts. Other users'
// mail interns the ids between a user's own, so ordinary mail scatters a
// user's ids thinly over the id range and most leaves it touches count a
// few ids each. Those must not cost a dense leaf apiece (with 2 KiB leaves
// this overlay reads 130-200 bytes per token, by test order).
TEST(ModelShard, AnOverlayCostsAboutTheTokensItCounts) {
  const spambayes::Tokenizer tokenizer;
  const corpus::TrecLikeGenerator generator;
  const auto message = [&](util::Rng& rng, bool spam) {
    return spam ? generator.generate_spam(rng) : generator.generate_ham(rng);
  };
  util::Rng others(5);
  util::Rng rng(23);
  ModelShard shard(1);
  for (int m = 0; m < 30; ++m) {
    for (int k = 0; k < 60; ++k) {  // mail of other users, interned only
      tokenizer.tokenize_ids(message(others, k % 2 == 1));
    }
    const bool as_spam = m % 2 == 1;
    train(shard, 0,
          spambayes::unique_token_ids(
              tokenizer.tokenize_ids(message(rng, as_spam))),
          as_spam);
  }
  const OverlaySnapshot overlay = shard.overlay(0);
  ASSERT_NE(overlay, nullptr);
  const std::size_t tokens = overlay->vocabulary_size();
  ASSERT_GT(tokens, 0u);
  EXPECT_LE(overlay->leaf_bytes().held, 64 * tokens)
      << overlay->leaf_bytes().held_leaves << " leaves for " << tokens
      << " tokens";
}

// The TSan target for the leaves' copy-on-write. A writer trains its own
// database in place and publishes a copy, which shares every leaf. Readers
// take the published copy, read through it and drop it. The writer clears
// the slot before its next train, so a reader's drop can release a leaf's
// last other reference just before the writer, seeing use_count() == 1,
// writes that leaf in place. The acquire next to that check in
// TokenDatabase::writable_leaf orders the reader's reads before those
// writes; without it TSan reports the race here.
TEST(ModelShard, ReadersDroppingSnapshotsRaceInPlaceLeafWrites) {
  using spambayes::TokenDatabase;
  constexpr int kLeaves = 4;
  constexpr int kTrains = 2'000;
  std::atomic<std::shared_ptr<const TokenDatabase>> slot;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> taken{0};
  std::atomic<std::uint64_t> torn{0};

  // Every train counts id 0, so a snapshot is consistent iff id 0's spam
  // count equals its spam email count and no other id exceeds it.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const TokenDatabase> snap =
            slot.load(std::memory_order_acquire);
        if (snap == nullptr) continue;
        taken.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t emails = snap->spam_count();
        if (snap->counts(0).spam != emails) torn.fetch_add(1);
        for (int l = 1; l < kLeaves; ++l) {
          const auto id =
              static_cast<spambayes::TokenId>(l * TokenDatabase::kLeafEntries);
          if (snap->counts(id).spam > emails) torn.fetch_add(1);
        }
        snap.reset();  // may be the last reference to this copy's leaves
      }
    });
  }

  TokenDatabase db;
  for (int i = 0; i < kTrains; ++i) {
    if (i % 2 == 0) {
      const std::uint64_t before = taken.load(std::memory_order_relaxed);
      slot.store(std::make_shared<const TokenDatabase>(db),
                 std::memory_order_release);
      // Hold the copy out until a reader has it in hand.
      while (taken.load(std::memory_order_relaxed) == before) {
        std::this_thread::yield();
      }
      slot.store(nullptr, std::memory_order_release);
    }
    spambayes::TokenIdSet ids = {0};
    for (int l = 1; l < kLeaves; ++l) {
      ids.push_back(static_cast<spambayes::TokenId>(
          l * TokenDatabase::kLeafEntries + i % 7));
    }
    db.train_spam_ids(ids);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GE(taken.load(), static_cast<std::uint64_t>(kTrains / 2));
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(db.spam_count(), static_cast<std::uint32_t>(kTrains));
  EXPECT_EQ(db.counts(0).spam, static_cast<std::uint32_t>(kTrains));
}

}  // namespace
}  // namespace sbx::serve
