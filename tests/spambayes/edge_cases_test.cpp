// Edge-case tests across the SpamBayes stack: discriminator cap at the
// paper's 150, degenerate messages, tie handling in threshold utilities,
// and boundary tokenizer inputs.
#include <gtest/gtest.h>

#include "core/dynamic_threshold.h"
#include "email/builder.h"
#include "spambayes/filter.h"
#include "support/token_ids.h"

namespace sbx::spambayes {
namespace {

using test::ids;
using test::spellings;
using test::token_id;

TEST(EdgeCases, DefaultDiscriminatorCapIs150) {
  // A message with 400 strongly scored tokens uses exactly 150 of them,
  // per footnote 3 of the paper.
  TokenDatabase db;
  TokenIdSet msg;
  for (int i = 0; i < 400; ++i) {
    const TokenId t = token_id("token" + std::to_string(i));
    db.train_spam_ids({t}, 3);
    msg.push_back(t);
  }
  Classifier c;
  ScoreIdResult r = c.score_ids(db, msg);
  EXPECT_EQ(r.tokens_used, 150u);
  EXPECT_EQ(r.evidence.size(), 400u);
}

TEST(EdgeCases, MessageOfOnlyUnknownTokensIsUnsure) {
  TokenDatabase db;
  db.train_spam_ids(ids({"seen"}), 10);
  db.train_ham_ids(ids({"also-seen"}), 10);
  Classifier c;
  ScoreIdResult r = c.score_ids(db, ids({"novel1", "novel2", "novel3"}));
  EXPECT_EQ(r.tokens_used, 0u);
  EXPECT_DOUBLE_EQ(r.score, 0.5);
  EXPECT_EQ(r.verdict, Verdict::unsure);
}

TEST(EdgeCases, SingleTokenMessage) {
  TokenDatabase db;
  db.train_spam_ids(ids({"alone"}), 30);
  Classifier c;
  ScoreIdResult r = c.score_ids(db, ids({"alone"}));
  EXPECT_EQ(r.tokens_used, 1u);
  EXPECT_GT(r.score, 0.9);
  EXPECT_EQ(r.verdict, Verdict::spam);
}

TEST(EdgeCases, FilterHandlesMessageWithOnlyHeaders) {
  Filter filter;
  email::Message headers_only =
      email::MessageBuilder().from("a@b.example").subject("topic").build();
  filter.train_ham(headers_only);
  EXPECT_EQ(filter.database().ham_count(), 1u);
  EXPECT_GT(filter.database().vocabulary_size(), 0u);
  // Classifying it back is at worst unsure, never a crash.
  (void)filter.classify(headers_only);
}

TEST(EdgeCases, FilterHandlesEmptyMessage) {
  Filter filter;
  email::Message empty;
  filter.train_spam(empty);  // counts the email even with zero tokens
  EXPECT_EQ(filter.database().spam_count(), 1u);
  ScoreIdResult r = filter.classify(empty);
  EXPECT_EQ(r.verdict, Verdict::unsure);
  filter.untrain_spam(empty);
  EXPECT_EQ(filter.database().spam_count(), 0u);
}

TEST(EdgeCases, TokenizerHandlesPathologicalWhitespaceAndPunctuation) {
  Tokenizer tok;
  EXPECT_TRUE(tok.tokenize_text_ids(std::string(10'000, ' ')).empty());
  EXPECT_TRUE(tok.tokenize_text_ids(std::string(10'000, '.')).empty());
  auto tokens = spellings(tok.tokenize_text_ids(std::string(5'000, 'a')));
  // One giant word: a single skip token (the pieces filter to nothing).
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "skip:a 5000");
}

TEST(EdgeCases, ThresholdUtilityTiesAtExactScores) {
  // Scores exactly equal to t are in neither NS<(t) nor NH>(t) (strict
  // inequalities, as defined in §5.2).
  std::vector<core::ScoredExample> scored = {
      {0.5, corpus::TrueLabel::spam},
      {0.5, corpus::TrueLabel::ham},
  };
  // Both at exactly t: no spam below, no ham above -> perfect separator.
  EXPECT_DOUBLE_EQ(core::threshold_utility(scored, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(core::threshold_utility(scored, 0.4), 0.0);  // ham above
  EXPECT_DOUBLE_EQ(core::threshold_utility(scored, 0.6), 1.0);  // spam below
}

TEST(EdgeCases, BatchTrainingHugeCopyCountsDoNotOverflow) {
  TokenDatabase db;
  db.train_spam_ids(ids({"w"}), 2'000'000);
  db.train_spam_ids(ids({"w"}), 2'000'000);
  EXPECT_EQ(db.spam_count(), 4'000'000u);
  EXPECT_EQ(db.counts(token_id("w")).spam, 4'000'000u);
  Classifier c;
  double f = c.token_score(db, token_id("w"));
  EXPECT_GT(f, 0.99);
  EXPECT_LT(f, 1.0);
}

TEST(EdgeCases, ScoresAreMidpointSymmetricForMirroredEvidence) {
  // k spammy + k hammy tokens of equal strength: I(E) = 0.5 exactly by the
  // symmetry of Eq. 3.
  TokenDatabase db;
  for (int i = 0; i < 5; ++i) {
    db.train_spam_ids(ids({"s" + std::to_string(i)}), 10);
    db.train_ham_ids(ids({"h" + std::to_string(i)}), 10);
  }
  Classifier c;
  std::vector<std::string> msg;
  for (int i = 0; i < 5; ++i) {
    msg.push_back("s" + std::to_string(i));
    msg.push_back("h" + std::to_string(i));
  }
  EXPECT_NEAR(c.score_ids(db, ids(msg)).score, 0.5, 1e-9);
}

}  // namespace
}  // namespace sbx::spambayes
