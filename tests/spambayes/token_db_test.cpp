// Tests for spambayes/token_db: counting, batching, exact untraining,
// merging and serialization.
#include "spambayes/token_db.h"

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

TEST(TokenDatabase, CountsPresencePerEmail) {
  TokenDatabase db;
  db.train_spam({"buy", "now"});
  db.train_spam({"buy"});
  db.train_ham({"meeting", "now"});
  EXPECT_EQ(db.spam_count(), 2u);
  EXPECT_EQ(db.ham_count(), 1u);
  EXPECT_EQ(db.counts("buy").spam, 2u);
  EXPECT_EQ(db.counts("buy").ham, 0u);
  EXPECT_EQ(db.counts("now").spam, 1u);
  EXPECT_EQ(db.counts("now").ham, 1u);
  EXPECT_EQ(db.counts("unseen").spam, 0u);
  EXPECT_EQ(db.counts("unseen").ham, 0u);
  EXPECT_EQ(db.vocabulary_size(), 3u);
}

TEST(TokenDatabase, BatchTrainEqualsRepeatedTrain) {
  TokenSet tokens = {"alpha", "beta", "gamma"};
  TokenDatabase repeated;
  for (int i = 0; i < 57; ++i) repeated.train_spam(tokens);
  TokenDatabase batched;
  batched.train_spam(tokens, 57);
  EXPECT_EQ(batched.spam_count(), repeated.spam_count());
  for (const auto& t : tokens) {
    EXPECT_EQ(batched.counts(t).spam, repeated.counts(t).spam);
  }
}

TEST(TokenDatabase, ZeroCopiesIsNoop) {
  TokenDatabase db;
  db.train_spam({"x"}, 0);
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

TEST(TokenDatabase, UntrainExactlyReversesTrain) {
  TokenDatabase db;
  db.train_ham({"keep", "shared"});
  db.train_spam({"shared", "junk"});

  TokenDatabase snapshot = db;
  db.train_spam({"poison", "shared"}, 5);
  db.untrain_spam({"poison", "shared"}, 5);

  EXPECT_EQ(db.spam_count(), snapshot.spam_count());
  EXPECT_EQ(db.ham_count(), snapshot.ham_count());
  EXPECT_EQ(db.vocabulary_size(), snapshot.vocabulary_size());
  for (const auto& [token, counts] : snapshot.tokens()) {
    EXPECT_EQ(db.counts(token).spam, counts.spam) << token;
    EXPECT_EQ(db.counts(token).ham, counts.ham) << token;
  }
  // "poison" was fully removed, not left at zero.
  EXPECT_EQ(db.counts("poison").spam, 0u);
}

TEST(TokenDatabase, UntrainUnknownThrows) {
  TokenDatabase db;
  db.train_spam({"known"});
  EXPECT_THROW(db.untrain_spam({"unknown"}), InvalidArgument);
  EXPECT_THROW(db.untrain_spam({"known"}, 2), InvalidArgument);
  EXPECT_THROW(db.untrain_ham({"known"}), InvalidArgument);
  TokenDatabase empty;
  EXPECT_THROW(empty.untrain_spam({"x"}), InvalidArgument);
}

TEST(TokenDatabase, TrainThatWouldWrapACountThrowsAndChangesNothing) {
  // copies reaches add() straight from a client's TrainRequest: a count
  // that would pass 2^32 - 1 must be refused before anything moves.
  TokenDatabase db;
  db.train_ham({"alpha", "beta"}, UINT32_MAX - 1);
  const std::uint64_t gen = db.generation();
  const auto before = db.tokens();
  EXPECT_THROW(db.train_ham({"alpha", "gamma"}, 2), InvalidArgument);
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.tokens(), before);
  EXPECT_EQ(db.ham_count(), UINT32_MAX - 1);
  EXPECT_EQ(db.vocabulary_size(), 2u);
  // Exactly to the limit is fine.
  db.train_ham({"alpha"}, 1);
  EXPECT_EQ(db.counts("alpha").ham, UINT32_MAX);
  EXPECT_EQ(db.ham_count(), UINT32_MAX);

  // A per-token count can exceed its class total in a loaded database;
  // that count is checked on its own.
  std::istringstream in("SBXDB 1\n0 0\n4294967295 0 alpha\n");
  TokenDatabase loaded = TokenDatabase::load(in);
  const std::uint64_t loaded_gen = loaded.generation();
  EXPECT_THROW(loaded.train_spam({"alpha", "beta"}), InvalidArgument);
  EXPECT_EQ(loaded.generation(), loaded_gen);
  EXPECT_EQ(loaded.spam_count(), 0u);
  EXPECT_EQ(loaded.counts("beta").spam, 0u);
  EXPECT_EQ(loaded.vocabulary_size(), 1u);
}

TEST(TokenDatabase, MergeThatWouldWrapACountThrowsAndChangesNothing) {
  // merge() gets the same check-then-change pass as training: class totals
  // first, then every token count; a wrap anywhere changes nothing.
  TokenDatabase db;
  db.train_ham({"alpha", "beta"}, UINT32_MAX - 1);
  const auto unchanged = [&db, gen = db.generation(), before = db.tokens()] {
    EXPECT_EQ(db.generation(), gen);
    EXPECT_EQ(db.tokens(), before);
    EXPECT_EQ(db.ham_count(), UINT32_MAX - 1);
    EXPECT_EQ(db.spam_count(), 0u);
    EXPECT_EQ(db.vocabulary_size(), 2u);
  };

  TokenDatabase class_total;  // wraps nham only
  class_total.train_ham({"gamma"}, 2);
  EXPECT_THROW(db.merge(class_total), InvalidArgument);
  unchanged();

  // Wraps one token's count (beta) while the class totals fit: a loaded
  // database can hold a token count above its class total. gamma, a
  // token db has never seen, must not be added either.
  std::istringstream in("SBXDB 1\n0 1\n0 1 alpha\n0 2 beta\n7 0 gamma\n");
  const TokenDatabase token_count = TokenDatabase::load(in);
  EXPECT_THROW(db.merge(token_count), InvalidArgument);
  unchanged();
  EXPECT_EQ(db.counts("gamma").spam, 0u);

  // Exactly to the limit is fine.
  TokenDatabase fits;
  fits.train_ham({"alpha", "gamma"}, 1);
  db.merge(fits);
  EXPECT_EQ(db.counts("alpha").ham, UINT32_MAX);
  EXPECT_EQ(db.counts("gamma").ham, 1u);
  EXPECT_EQ(db.ham_count(), UINT32_MAX);
  EXPECT_EQ(db.vocabulary_size(), 3u);
}

TEST(TokenDatabase, MergeAddsCounts) {
  TokenDatabase a, b;
  a.train_spam({"x", "y"});
  b.train_spam({"y", "z"}, 2);
  b.train_ham({"x"});
  a.merge(b);
  EXPECT_EQ(a.spam_count(), 3u);
  EXPECT_EQ(a.ham_count(), 1u);
  EXPECT_EQ(a.counts("y").spam, 3u);
  EXPECT_EQ(a.counts("x").spam, 1u);
  EXPECT_EQ(a.counts("x").ham, 1u);
  EXPECT_EQ(a.counts("z").spam, 2u);
}

TEST(TokenDatabase, SerializationRoundTrip) {
  TokenDatabase db;
  db.train_spam({"buy", "skip:x 20", "url:pills"});
  db.train_ham({"meeting", "skip:x 20"}, 3);

  std::stringstream ss;
  db.save(ss);
  TokenDatabase loaded = TokenDatabase::load(ss);

  EXPECT_EQ(loaded.spam_count(), db.spam_count());
  EXPECT_EQ(loaded.ham_count(), db.ham_count());
  EXPECT_EQ(loaded.vocabulary_size(), db.vocabulary_size());
  // Tokens containing spaces survive (skip tokens embed a space).
  EXPECT_EQ(loaded.counts("skip:x 20").ham, 3u);
  EXPECT_EQ(loaded.counts("skip:x 20").spam, 1u);
  EXPECT_EQ(loaded.counts("url:pills").spam, 1u);
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

TEST(TokenDatabase, FileRoundTrip) {
  TokenDatabase db;
  db.train_spam({"persisted"});
  auto path = std::filesystem::temp_directory_path() / "sbx_tokendb_test.db";
  db.save_file(path.string());
  TokenDatabase loaded = TokenDatabase::load_file(path.string());
  EXPECT_EQ(loaded.counts("persisted").spam, 1u);
  std::filesystem::remove(path);
  EXPECT_THROW(TokenDatabase::load_file("/nonexistent/db"), IoError);
}

TEST(TokenDatabase, RandomizedTrainUntrainInverse) {
  // Property: any interleaving of train operations followed by their exact
  // reversal restores the empty database.
  util::Rng rng(99);
  TokenDatabase db;
  std::vector<std::tuple<TokenSet, std::uint32_t, bool>> ops;
  for (int i = 0; i < 200; ++i) {
    TokenSet tokens;
    std::size_t n = 1 + rng.index(5);
    for (std::size_t j = 0; j < n; ++j) {
      tokens.push_back("tok" + std::to_string(rng.index(30)));
    }
    tokens = unique_tokens(tokens);
    auto copies = static_cast<std::uint32_t>(1 + rng.index(4));
    bool spam = rng.bernoulli(0.5);
    if (spam) {
      db.train_spam(tokens, copies);
    } else {
      db.train_ham(tokens, copies);
    }
    ops.emplace_back(std::move(tokens), copies, spam);
  }
  // Reverse in random order (counts are commutative).
  rng.shuffle(ops);
  for (const auto& [tokens, copies, spam] : ops) {
    if (spam) {
      db.untrain_spam(tokens, copies);
    } else {
      db.untrain_ham(tokens, copies);
    }
  }
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.ham_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

}  // namespace
}  // namespace sbx::spambayes
