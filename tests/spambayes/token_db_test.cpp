// Tests for spambayes/token_db: counting, batching, exact untraining,
// merging and serialization.
#include "spambayes/token_db.h"

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/token_ids.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

using test::ids;
using test::token_id;

TEST(TokenDatabase, CountsPresencePerEmail) {
  TokenDatabase db;
  db.train_spam_ids(ids({"buy", "now"}));
  db.train_spam_ids(ids({"buy"}));
  db.train_ham_ids(ids({"meeting", "now"}));
  EXPECT_EQ(db.spam_count(), 2u);
  EXPECT_EQ(db.ham_count(), 1u);
  EXPECT_EQ(db.counts(token_id("buy")).spam, 2u);
  EXPECT_EQ(db.counts(token_id("buy")).ham, 0u);
  EXPECT_EQ(db.counts(token_id("now")).spam, 1u);
  EXPECT_EQ(db.counts(token_id("now")).ham, 1u);
  EXPECT_EQ(db.counts(token_id("unseen")).spam, 0u);
  EXPECT_EQ(db.counts(token_id("unseen")).ham, 0u);
  EXPECT_EQ(db.vocabulary_size(), 3u);
}

TEST(TokenDatabase, BatchTrainEqualsRepeatedTrain) {
  const TokenIdSet tokens = ids({"alpha", "beta", "gamma"});
  TokenDatabase repeated;
  for (int i = 0; i < 57; ++i) repeated.train_spam_ids(tokens);
  TokenDatabase batched;
  batched.train_spam_ids(tokens, 57);
  EXPECT_EQ(batched.spam_count(), repeated.spam_count());
  for (TokenId t : tokens) {
    EXPECT_EQ(batched.counts(t).spam, repeated.counts(t).spam);
  }
}

TEST(TokenDatabase, ZeroCopiesIsNoop) {
  TokenDatabase db;
  db.train_spam_ids(ids({"x"}), 0);
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

TEST(TokenDatabase, UntrainExactlyReversesTrain) {
  TokenDatabase db;
  db.train_ham_ids(ids({"keep", "shared"}));
  db.train_spam_ids(ids({"shared", "junk"}));

  TokenDatabase snapshot = db;
  db.train_spam_ids(ids({"poison", "shared"}), 5);
  db.untrain_spam_ids(ids({"poison", "shared"}), 5);

  EXPECT_EQ(db.spam_count(), snapshot.spam_count());
  EXPECT_EQ(db.ham_count(), snapshot.ham_count());
  EXPECT_EQ(db.vocabulary_size(), snapshot.vocabulary_size());
  for (const auto& [token, counts] : snapshot.tokens()) {
    EXPECT_EQ(db.counts(token_id(token)).spam, counts.spam) << token;
    EXPECT_EQ(db.counts(token_id(token)).ham, counts.ham) << token;
  }
  // "poison" was fully removed, not left at zero.
  EXPECT_EQ(db.counts(token_id("poison")).spam, 0u);
}

TEST(TokenDatabase, UntrainUnknownThrows) {
  TokenDatabase db;
  db.train_spam_ids(ids({"known"}));
  EXPECT_THROW(db.untrain_spam_ids(ids({"unknown"})), InvalidArgument);
  EXPECT_THROW(db.untrain_spam_ids(ids({"known"}), 2), InvalidArgument);
  EXPECT_THROW(db.untrain_ham_ids(ids({"known"})), InvalidArgument);
  TokenDatabase empty;
  EXPECT_THROW(empty.untrain_spam_ids(ids({"x"})), InvalidArgument);
}

TEST(TokenDatabase, TrainThatWouldWrapACountThrowsAndChangesNothing) {
  // copies reaches add() straight from a client's TrainRequest: a count
  // that would pass 2^32 - 1 must be refused before anything moves.
  TokenDatabase db;
  db.train_ham_ids(ids({"alpha", "beta"}), UINT32_MAX - 1);
  const std::uint64_t gen = db.generation();
  const auto before = db.tokens();
  EXPECT_THROW(db.train_ham_ids(ids({"alpha", "gamma"}), 2), InvalidArgument);
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.tokens(), before);
  EXPECT_EQ(db.ham_count(), UINT32_MAX - 1);
  EXPECT_EQ(db.vocabulary_size(), 2u);
  // Exactly to the limit is fine.
  db.train_ham_ids(ids({"alpha"}), 1);
  EXPECT_EQ(db.counts(token_id("alpha")).ham, UINT32_MAX);
  EXPECT_EQ(db.ham_count(), UINT32_MAX);

  // A per-token count can exceed its class total in a loaded database;
  // that count is checked on its own.
  std::istringstream in("SBXDB 1\n0 0\n4294967295 0 alpha\n");
  TokenDatabase loaded = TokenDatabase::load(in);
  const std::uint64_t loaded_gen = loaded.generation();
  EXPECT_THROW(loaded.train_spam_ids(ids({"alpha", "beta"})), InvalidArgument);
  EXPECT_EQ(loaded.generation(), loaded_gen);
  EXPECT_EQ(loaded.spam_count(), 0u);
  EXPECT_EQ(loaded.counts(token_id("beta")).spam, 0u);
  EXPECT_EQ(loaded.vocabulary_size(), 1u);
}

TEST(TokenDatabase, TrainAfterAnUntrainChecksEveryTokenCount) {
  // Untraining lowers the class total but only the untrained tokens'
  // counts, so a count can exceed its class total in a database that was
  // only ever trained: here nspam = 0 while beta.spam = 1. A train that
  // passes the class-total check must still refuse to wrap beta.
  TokenDatabase db;
  db.train_spam_ids(ids({"alpha", "beta"}));
  db.untrain_spam_ids(ids({"alpha"}));
  ASSERT_EQ(db.spam_count(), 0u);
  ASSERT_EQ(db.counts(token_id("beta")).spam, 1u);
  const std::uint64_t gen = db.generation();
  const auto before = db.tokens();
  EXPECT_THROW(db.train_spam_ids(ids({"beta"}), UINT32_MAX), InvalidArgument);
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.tokens(), before);
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 1u);
}

TEST(TokenDatabase, AFailedTrainOrUntrainUndoesTheCountsItAlreadyChanged) {
  // Fresh spellings get ascending ids, so `last` is checked after `first`
  // and `middle` were already written; the throw must undo both, on a
  // database that writes its leaves in place and on one whose leaves are
  // shared with a copy (and so cloned on the way).
  TokenInterner& interner = global_interner();
  const TokenId first = interner.intern("undo-test-first");
  const TokenId middle = interner.intern("undo-test-middle");
  const TokenId last = interner.intern("undo-test-last");
  ASSERT_LT(first, middle);
  ASSERT_LT(middle, last);
  const auto build = [&] {
    TokenDatabase db;
    db.train_spam_ids({middle, last}, UINT32_MAX);
    db.untrain_spam_ids({middle}, UINT32_MAX);  // nspam = 0, last at max
    db.train_ham_ids({first, middle});
    return db;
  };
  for (const bool copied : {false, true}) {
    SCOPED_TRACE(copied ? "leaves shared with a copy" : "leaves held alone");
    TokenDatabase db = build();
    TokenDatabase copy;
    if (copied) copy = db;
    const std::uint64_t gen = db.generation();
    const auto before = db.tokens();
    EXPECT_THROW(db.train_spam_ids({first, middle, last}), InvalidArgument);
    EXPECT_THROW(db.untrain_ham_ids({first, middle, last}), InvalidArgument);
    EXPECT_EQ(db.generation(), gen);
    EXPECT_EQ(db.tokens(), before);
    EXPECT_EQ(db.spam_count(), 0u);
    EXPECT_EQ(db.ham_count(), 1u);
    EXPECT_EQ(db.vocabulary_size(), 3u);
    if (copied) {
      EXPECT_EQ(copy.tokens(), before);
    }
  }
}

TEST(TokenDatabase, MergeThatWouldWrapACountThrowsAndChangesNothing) {
  // merge() gets the same check-then-change pass as training: class totals
  // first, then every token count; a wrap anywhere changes nothing.
  TokenDatabase db;
  db.train_ham_ids(ids({"alpha", "beta"}), UINT32_MAX - 1);
  const auto unchanged = [&db, gen = db.generation(), before = db.tokens()] {
    EXPECT_EQ(db.generation(), gen);
    EXPECT_EQ(db.tokens(), before);
    EXPECT_EQ(db.ham_count(), UINT32_MAX - 1);
    EXPECT_EQ(db.spam_count(), 0u);
    EXPECT_EQ(db.vocabulary_size(), 2u);
  };

  TokenDatabase class_total;  // wraps nham only
  class_total.train_ham_ids(ids({"gamma"}), 2);
  EXPECT_THROW(db.merge(class_total), InvalidArgument);
  unchanged();

  // Wraps one token's count (beta) while the class totals fit: a loaded
  // database can hold a token count above its class total. gamma, a
  // token db has never seen, must not be added either.
  std::istringstream in("SBXDB 1\n0 1\n0 1 alpha\n0 2 beta\n7 0 gamma\n");
  const TokenDatabase token_count = TokenDatabase::load(in);
  EXPECT_THROW(db.merge(token_count), InvalidArgument);
  unchanged();
  EXPECT_EQ(db.counts(token_id("gamma")).spam, 0u);

  // Exactly to the limit is fine.
  TokenDatabase fits;
  fits.train_ham_ids(ids({"alpha", "gamma"}), 1);
  db.merge(fits);
  EXPECT_EQ(db.counts(token_id("alpha")).ham, UINT32_MAX);
  EXPECT_EQ(db.counts(token_id("gamma")).ham, 1u);
  EXPECT_EQ(db.ham_count(), UINT32_MAX);
  EXPECT_EQ(db.vocabulary_size(), 3u);
}

TEST(TokenDatabase, MergeAddsCounts) {
  TokenDatabase a, b;
  a.train_spam_ids(ids({"x", "y"}));
  b.train_spam_ids(ids({"y", "z"}), 2);
  b.train_ham_ids(ids({"x"}));
  a.merge(b);
  EXPECT_EQ(a.spam_count(), 3u);
  EXPECT_EQ(a.ham_count(), 1u);
  EXPECT_EQ(a.counts(token_id("y")).spam, 3u);
  EXPECT_EQ(a.counts(token_id("x")).spam, 1u);
  EXPECT_EQ(a.counts(token_id("x")).ham, 1u);
  EXPECT_EQ(a.counts(token_id("z")).spam, 2u);
}

TEST(TokenDatabase, SerializationRoundTrip) {
  TokenDatabase db;
  db.train_spam_ids(ids({"buy", "skip:x 20", "url:pills"}));
  db.train_ham_ids(ids({"meeting", "skip:x 20"}), 3);

  std::stringstream ss;
  db.save(ss);
  TokenDatabase loaded = TokenDatabase::load(ss);

  EXPECT_EQ(loaded.spam_count(), db.spam_count());
  EXPECT_EQ(loaded.ham_count(), db.ham_count());
  EXPECT_EQ(loaded.vocabulary_size(), db.vocabulary_size());
  // Tokens containing spaces survive (skip tokens embed a space).
  EXPECT_EQ(loaded.counts(token_id("skip:x 20")).ham, 3u);
  EXPECT_EQ(loaded.counts(token_id("skip:x 20")).spam, 1u);
  EXPECT_EQ(loaded.counts(token_id("url:pills")).spam, 1u);
}

TEST(TokenDatabase, LoadRejectsMalformedInput) {
  auto load_str = [](const std::string& s) {
    std::stringstream ss(s);
    return TokenDatabase::load(ss);
  };
  EXPECT_THROW(load_str(""), ParseError);
  EXPECT_THROW(load_str("WRONG 1\n0 0\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 2\n0 0\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\nx y\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\n1 1\nnot_numbers here\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\n1 1\n1 0\n"), ParseError);     // no token
  EXPECT_THROW(load_str("SBXDB 1\n1 1\n0 0 token\n"), ParseError);  // zeroed
}

TEST(TokenDatabase, LoadRejectsADuplicateTokenLine) {
  // A later line used to overwrite an earlier one silently (this loaded
  // spam = 1). save() writes each spelling once, and recovery snapshots are
  // parsed through load(), so a repeat means a corrupt file.
  std::stringstream ss("SBXDB 1\n3 0\n2 0 viagra\n1 0 viagra\n");
  EXPECT_THROW(TokenDatabase::load(ss), ParseError);
}

// Raw ids far apart, so they fall in different leaves. None of these tests
// reaches a path that prints a spelling, so the ids need not be interned.
constexpr TokenId kLeaf = TokenDatabase::kLeafEntries;
constexpr std::size_t kSparseMax = TokenDatabase::kSparseMax;
constexpr std::size_t kDense = TokenDatabase::kLeafBytes;
constexpr std::size_t sparse(std::size_t ids) {
  return TokenDatabase::sparse_leaf_bytes(ids);
}

TEST(TokenDatabase, ACopySharesLeavesAndATrainClonesOnlyTheLeavesItWrites) {
  TokenDatabase a;
  a.train_spam_ids({1, kLeaf + 1, 5 * kLeaf + 3});
  EXPECT_EQ(a.leaf_bytes().held_leaves, 3u);
  EXPECT_EQ(a.leaf_bytes().unshared_leaves, 3u);
  EXPECT_EQ(a.leaf_bytes().held, 3 * sparse(1));
  EXPECT_EQ(a.leaf_bytes().unshared, 3 * sparse(1));

  TokenDatabase b = a;
  EXPECT_EQ(b.leaf_bytes().held_leaves, 3u);
  EXPECT_EQ(b.leaf_bytes().unshared_leaves, 0u);
  EXPECT_EQ(b.leaf_bytes().held, 3 * sparse(1));
  EXPECT_EQ(b.leaf_bytes().unshared, 0u);

  // Leaf 0 is shared, so it is cloned; leaf 7 is new; leaves 1 and 5 stay
  // shared with `a`.
  b.train_ham_ids({2, 7 * kLeaf});
  EXPECT_EQ(b.leaf_bytes().held_leaves, 4u);
  EXPECT_EQ(b.leaf_bytes().unshared_leaves, 2u);
  EXPECT_EQ(a.leaf_bytes().unshared_leaves, 1u);  // its own leaf 0
  EXPECT_EQ(b.leaf_bytes().held, sparse(2) + 3 * sparse(1));
  EXPECT_EQ(b.leaf_bytes().unshared, sparse(2) + sparse(1));
  EXPECT_EQ(a.leaf_bytes().unshared, sparse(1));
  EXPECT_EQ(a.counts(2).ham, 0u);
  EXPECT_EQ(a.counts(7 * kLeaf).ham, 0u);
  EXPECT_EQ(b.counts(1).spam, 1u);  // the clone kept the rest of leaf 0
  EXPECT_EQ(b.counts(2).ham, 1u);
  EXPECT_EQ(b.counts(5 * kLeaf + 3).spam, 1u);

  // A copy's source clones too: training `a` leaves `b` as it was.
  a.train_spam_ids({kLeaf + 2});
  EXPECT_EQ(a.counts(kLeaf + 2).spam, 1u);
  EXPECT_EQ(b.counts(kLeaf + 2).spam, 0u);

  // Once `a` is gone, b's leaves are its own and a train writes in place.
  a = TokenDatabase();
  EXPECT_EQ(b.leaf_bytes().unshared_leaves, 4u);
  EXPECT_EQ(b.leaf_bytes().unshared, sparse(2) + 3 * sparse(1));
  b.untrain_ham_ids({2, 7 * kLeaf});
  EXPECT_EQ(b.leaf_bytes().held_leaves, 4u);
  EXPECT_EQ(b.leaf_bytes().held, sparse(2) + 3 * sparse(1));
  EXPECT_EQ(b.vocabulary_size(), 3u);
}

TEST(TokenDatabase, ForEachCountedVisitsNonzeroIdsInAscendingOrder) {
  TokenDatabase db;
  db.train_spam_ids({3, kLeaf + 9, 4 * kLeaf});
  db.train_ham_ids({3});
  db.untrain_spam_ids({3, kLeaf + 9, 4 * kLeaf});
  db.train_ham_ids({2 * kLeaf});
  std::vector<std::pair<TokenId, TokenCounts>> seen;
  db.for_each_counted(
      [&](TokenId id, const TokenCounts& c) { seen.emplace_back(id, c); });
  const std::vector<std::pair<TokenId, TokenCounts>> want = {
      {3, {0, 1}}, {2 * kLeaf, {0, 1}}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(db.vocabulary_size(), 2u);
}

TEST(TokenDatabase, MergeSharesLeavesItHasNoCountsInAndSelfMergeDoubles) {
  TokenDatabase a;
  a.train_spam_ids({1});
  TokenDatabase b;
  b.train_ham_ids({1, 3 * kLeaf, 3 * kLeaf + 1});
  a.merge(b);
  EXPECT_EQ(a.counts(1), (TokenCounts{1, 1}));
  EXPECT_EQ(a.counts(3 * kLeaf + 1), (TokenCounts{0, 1}));
  EXPECT_EQ(a.vocabulary_size(), 3u);
  // Leaf 3 was taken from `b` as is; leaf 0 had to be added into.
  EXPECT_EQ(a.leaf_bytes().held_leaves, 2u);
  EXPECT_EQ(a.leaf_bytes().unshared_leaves, 1u);
  EXPECT_EQ(a.leaf_bytes().held, sparse(1) + sparse(2));
  EXPECT_EQ(a.leaf_bytes().unshared, sparse(1));
  // Training the shared leaf clones it first.
  a.train_spam_ids({3 * kLeaf + 1});
  EXPECT_EQ(a.counts(3 * kLeaf + 1), (TokenCounts{1, 1}));
  EXPECT_EQ(b.counts(3 * kLeaf + 1), (TokenCounts{0, 1}));

  a.merge(a);
  EXPECT_EQ(a.counts(1), (TokenCounts{2, 2}));
  EXPECT_EQ(a.counts(3 * kLeaf), (TokenCounts{0, 2}));
  EXPECT_EQ(a.counts(3 * kLeaf + 1), (TokenCounts{2, 2}));
  EXPECT_EQ(a.spam_count(), 4u);
  EXPECT_EQ(a.ham_count(), 2u);
  EXPECT_EQ(a.vocabulary_size(), 3u);
  EXPECT_EQ(b.counts(3 * kLeaf), (TokenCounts{0, 1}));  // b untouched
  EXPECT_EQ(b.counts(3 * kLeaf + 1), (TokenCounts{0, 1}));
}

// The sparse leaf form, each test checked against a plain map of what the
// database should count.
using Reference = std::map<TokenId, TokenCounts>;

void train(TokenDatabase& db, Reference& ref, const TokenIdSet& set,
           bool spam, std::uint32_t copies = 1) {
  if (spam) {
    db.train_spam_ids(set, copies);
  } else {
    db.train_ham_ids(set, copies);
  }
  for (TokenId id : set) (spam ? ref[id].spam : ref[id].ham) += copies;
}

void untrain(TokenDatabase& db, Reference& ref, const TokenIdSet& set,
             bool spam, std::uint32_t copies = 1) {
  if (spam) {
    db.untrain_spam_ids(set, copies);
  } else {
    db.untrain_ham_ids(set, copies);
  }
  for (TokenId id : set) {
    (spam ? ref[id].spam : ref[id].ham) -= copies;
    if (ref[id] == TokenCounts{}) ref.erase(id);
  }
}

// Every id in leaves [0, leaves) reads what `ref` says, for_each_counted
// visits exactly `ref` in ascending order, and the vocabulary agrees.
void expect_matches(const TokenDatabase& db, const Reference& ref,
                    std::size_t leaves) {
  for (TokenId id = 0; id < leaves * kLeaf; ++id) {
    const auto it = ref.find(id);
    ASSERT_EQ(db.counts(id), it == ref.end() ? TokenCounts{} : it->second)
        << "id " << id;
  }
  std::vector<std::pair<TokenId, TokenCounts>> seen;
  db.for_each_counted(
      [&](TokenId id, const TokenCounts& c) { seen.emplace_back(id, c); });
  EXPECT_EQ(seen, (std::vector<std::pair<TokenId, TokenCounts>>(ref.begin(),
                                                                ref.end())));
  EXPECT_EQ(db.vocabulary_size(), ref.size());
}

// `n` ids of leaf `l`, spread over it and ascending.
TokenIdSet spread(std::size_t l, std::size_t n, std::size_t step = 7) {
  TokenIdSet out;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(static_cast<TokenId>(l * kLeaf + (k * step) % kLeaf));
  }
  return unique_token_ids(std::move(out));
}

TEST(TokenDatabase, ASparseLeafPromotesToDenseAtOneMoreThanSparseMax) {
  // One id at a time, in descending offset order so every insert shifts.
  const TokenIdSet all = spread(2, kSparseMax + 1);
  ASSERT_EQ(all.size(), kSparseMax + 1);
  TokenDatabase db;
  Reference ref;
  for (std::size_t k = kSparseMax; k > 0; --k) {
    train(db, ref, {all[k]}, k % 2 == 0, static_cast<std::uint32_t>(k));
  }
  expect_matches(db, ref, 3);
  EXPECT_EQ(db.leaf_bytes().held, sparse(kSparseMax));

  // The promotion happens in the copy-on-write step: the copy taken just
  // before keeps its sparse leaf and its counts.
  const TokenDatabase before = db;
  const Reference before_ref = ref;
  train(db, ref, {all[0]}, true);
  expect_matches(db, ref, 3);
  EXPECT_EQ(db.leaf_bytes().held, kDense);
  EXPECT_EQ(db.leaf_bytes().unshared_leaves, 1u);
  expect_matches(before, before_ref, 3);
  EXPECT_EQ(before.leaf_bytes().held, sparse(kSparseMax));

  // kSparseMax + 1 ids in one train promote too.
  TokenDatabase at_once;
  Reference at_once_ref;
  train(at_once, at_once_ref, all, false, 3);
  expect_matches(at_once, at_once_ref, 3);
  EXPECT_EQ(at_once.leaf_bytes().held, kDense);

  // Untraining a dense leaf back to a few ids keeps it dense.
  const TokenIdSet most(all.begin() + 2, all.end());
  untrain(at_once, at_once_ref, most, false, 3);
  expect_matches(at_once, at_once_ref, 3);
  EXPECT_EQ(at_once.leaf_bytes().held, kDense);
}

TEST(TokenDatabase, ACloneOfASharedSparseLeafLeavesItsSourceIntact) {
  TokenDatabase a;
  Reference a_ref;
  train(a, a_ref, spread(0, 5), true);
  train(a, a_ref, spread(0, 3, 11), false, 2);
  const std::size_t stored = a_ref.size();
  ASSERT_LE(stored, kSparseMax);
  EXPECT_EQ(a.leaf_bytes().held, sparse(stored));

  TokenDatabase b = a;
  Reference b_ref = a_ref;
  // An id the leaf already has, and one it gets.
  train(b, b_ref, {0, 200}, false);
  expect_matches(b, b_ref, 1);
  EXPECT_EQ(b.leaf_bytes().unshared, sparse(stored + 1));
  expect_matches(a, a_ref, 1);
  EXPECT_EQ(a.leaf_bytes().held, sparse(stored));
  EXPECT_EQ(a.leaf_bytes().unshared, sparse(stored));

  // And the other way round: the source writes, the copy keeps its leaf.
  train(a, a_ref, {1}, true);
  expect_matches(a, a_ref, 1);
  expect_matches(b, b_ref, 1);
}

TEST(TokenDatabase, UntrainToZeroInsideASparseLeaf) {
  TokenDatabase db;
  Reference ref;
  // Email totals for the untrains below to draw on, from another leaf.
  constexpr TokenId kPad = 5 * kLeaf;
  train(db, ref, {kPad}, true, 5);
  train(db, ref, {kPad}, false, 5);
  const TokenIdSet five = spread(1, 5, 13);
  train(db, ref, five, true);
  train(db, ref, {five[1], five[3]}, false);
  EXPECT_EQ(db.leaf_bytes().held, sparse(1) + sparse(5));

  untrain(db, ref, {five[0], five[1], five[3]}, true);  // five[0] to zero
  untrain(db, ref, {five[1]}, false);                   // five[1] to zero
  expect_matches(db, ref, 2);
  EXPECT_EQ(db.vocabulary_size(), 4u);  // three in leaf 1, and kPad
  // A zeroed id can be trained again, and untrained to nothing.
  train(db, ref, {five[0]}, false);
  expect_matches(db, ref, 2);
  untrain(db, ref, {five[0]}, false);
  expect_matches(db, ref, 2);

  // A clone keeps only the counted entries: the three left, plus the one
  // the train writes.
  TokenDatabase copy = db;
  Reference copy_ref = ref;
  train(copy, copy_ref, {five[3]}, true);
  expect_matches(copy, copy_ref, 2);
  EXPECT_EQ(copy.leaf_bytes().unshared, sparse(3));
  untrain(copy, copy_ref, {five[2], five[3], five[4]}, true);
  untrain(copy, copy_ref, {five[3]}, false);
  expect_matches(copy, copy_ref, 2);
  EXPECT_EQ(copy.vocabulary_size(), 1u);  // kPad
  expect_matches(db, ref, 2);

  // Untraining an id a sparse leaf does not count changes nothing. The
  // error names the token, so this id is interned.
  const TokenId word = token_id("sparse-leaf-never-counted");
  TokenDatabase one;
  Reference one_ref;
  train(one, one_ref, {word ^ 1}, true);
  const std::uint64_t generation = one.generation();
  EXPECT_THROW(one.untrain_spam_ids({word}), InvalidArgument);
  EXPECT_EQ(one.generation(), generation);
  expect_matches(one, one_ref, word / kLeaf + 1);
}

TEST(TokenDatabase, MergeSparseIntoDenseAndDenseIntoSparse) {
  // Leaf 0 dense and leaf 1 sparse in `dense_first`; the other way round in
  // `sparse_first`, with ids overlapping and new on both sides.
  TokenDatabase dense_first;
  Reference dense_ref;
  train(dense_first, dense_ref, spread(0, 40), true);
  train(dense_first, dense_ref, spread(1, 3, 5), false, 4);
  TokenDatabase sparse_first;
  Reference sparse_ref;
  train(sparse_first, sparse_ref, spread(0, 6, 3), false, 2);
  train(sparse_first, sparse_ref, spread(1, 50, 3), true, 5);
  EXPECT_EQ(dense_first.leaf_bytes().held, kDense + sparse(3));
  EXPECT_EQ(sparse_first.leaf_bytes().held, sparse(6) + kDense);

  Reference sum = dense_ref;
  for (const auto& [id, c] : sparse_ref) {
    sum[id].spam += c.spam;
    sum[id].ham += c.ham;
  }
  TokenDatabase one = dense_first;
  one.merge(sparse_first);
  expect_matches(one, sum, 2);
  EXPECT_EQ(one.spam_count(), 6u);
  EXPECT_EQ(one.ham_count(), 6u);
  TokenDatabase other = sparse_first;
  other.merge(dense_first);
  expect_matches(other, sum, 2);
  // Both sides of each merge are as they were.
  expect_matches(dense_first, dense_ref, 2);
  expect_matches(sparse_first, sparse_ref, 2);

  // Sparse into sparse stays sparse.
  TokenDatabase small;
  Reference small_ref;
  train(small, small_ref, spread(1, 2, 9), true);
  TokenDatabase merged = small;
  merged.merge(dense_first);  // leaf 1: 3 + 2 ids, leaf 0 shared as is
  Reference merged_ref = small_ref;
  for (const auto& [id, c] : dense_ref) {
    merged_ref[id].spam += c.spam;
    merged_ref[id].ham += c.ham;
  }
  expect_matches(merged, merged_ref, 2);
  // Leaf 1 counts {256, 261, 265, 266}; leaf 0 is dense_first's, shared.
  EXPECT_EQ(merged.leaf_bytes().held, kDense + sparse(4));
  EXPECT_EQ(merged.leaf_bytes().unshared_leaves, 1u);
}

TEST(TokenDatabase, RandomTrainsUntrainsAndCopiesMatchAReferenceMap) {
  // Ids over four leaves, dense enough that some promote and some stay
  // sparse; copies taken along the way must keep what they had.
  util::Rng rng(7);
  TokenDatabase db;
  Reference ref;
  std::vector<std::pair<TokenDatabase, Reference>> copies;
  std::vector<std::tuple<TokenIdSet, std::uint32_t, bool>> trained;
  for (int step = 0; step < 600; ++step) {
    if (step % 50 == 0) copies.emplace_back(db, ref);
    if (!trained.empty() && rng.bernoulli(0.3)) {
      const std::size_t k = rng.index(trained.size());
      const auto [set, n, spam] = trained[k];
      trained.erase(trained.begin() + static_cast<std::ptrdiff_t>(k));
      untrain(db, ref, set, spam, n);
      continue;
    }
    TokenIdList raw;
    const std::size_t l = rng.index(4);
    const std::size_t width = l == 0 ? kLeaf : 48;  // leaf 0 fills up
    for (std::size_t j = 1 + rng.index(6); j > 0; --j) {
      raw.push_back(static_cast<TokenId>(l * kLeaf + rng.index(width)));
    }
    const TokenIdSet set = unique_token_ids(std::move(raw));
    const auto n = static_cast<std::uint32_t>(1 + rng.index(3));
    const bool spam = rng.bernoulli(0.5);
    train(db, ref, set, spam, n);
    trained.emplace_back(set, n, spam);
  }
  expect_matches(db, ref, 4);
  for (const auto& [copy, copy_ref] : copies) expect_matches(copy, copy_ref, 4);
}

TEST(TokenDatabase, FileRoundTrip) {
  TokenDatabase db;
  db.train_spam_ids(ids({"persisted"}));
  auto path = std::filesystem::temp_directory_path() / "sbx_tokendb_test.db";
  db.save_file(path.string());
  TokenDatabase loaded = TokenDatabase::load_file(path.string());
  EXPECT_EQ(loaded.counts(token_id("persisted")).spam, 1u);
  std::filesystem::remove(path);
  EXPECT_THROW(TokenDatabase::load_file("/nonexistent/db"), IoError);
}

TEST(TokenDatabase, RandomizedTrainUntrainInverse) {
  // Property: any interleaving of train operations followed by their exact
  // reversal restores the empty database.
  util::Rng rng(99);
  TokenDatabase db;
  std::vector<std::tuple<TokenIdSet, std::uint32_t, bool>> ops;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> words;
    std::size_t n = 1 + rng.index(5);
    for (std::size_t j = 0; j < n; ++j) {
      words.push_back("tok" + std::to_string(rng.index(30)));
    }
    TokenIdSet tokens = ids(words);
    auto copies = static_cast<std::uint32_t>(1 + rng.index(4));
    bool spam = rng.bernoulli(0.5);
    if (spam) {
      db.train_spam_ids(tokens, copies);
    } else {
      db.train_ham_ids(tokens, copies);
    }
    ops.emplace_back(std::move(tokens), copies, spam);
  }
  // Reverse in random order (counts are commutative).
  rng.shuffle(ops);
  for (const auto& [tokens, copies, spam] : ops) {
    if (spam) {
      db.untrain_spam_ids(tokens, copies);
    } else {
      db.untrain_ham_ids(tokens, copies);
    }
  }
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.ham_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

}  // namespace
}  // namespace sbx::spambayes
