// Tests for spambayes/filter: end-to-end train/classify on real messages,
// batch equivalence, untraining, cutoff swapping.
#include "spambayes/filter.h"

#include <gtest/gtest.h>

#include "email/builder.h"
#include "support/token_ids.h"
#include "util/error.h"

namespace sbx::spambayes {
namespace {

using test::token_id;

email::Message spam_message(int i) {
  return email::MessageBuilder()
      .from("deals@offers.example")
      .subject("amazing offer " + std::to_string(i))
      .body("buy cheap pills viagra casino winner cash prize\n")
      .build();
}

email::Message ham_message(int i) {
  return email::MessageBuilder()
      .from("colleague@corp.example")
      .subject("meeting notes " + std::to_string(i))
      .body("agenda budget review quarterly forecast projections\n")
      .build();
}

TEST(Filter, EndToEndClassification) {
  Filter filter;
  for (int i = 0; i < 20; ++i) {
    filter.train_spam(spam_message(i));
    filter.train_ham(ham_message(i));
  }
  EXPECT_EQ(filter.classify(spam_message(99)).verdict, Verdict::spam);
  EXPECT_EQ(filter.classify(ham_message(99)).verdict, Verdict::ham);
  EXPECT_EQ(filter.database().spam_count(), 20u);
  EXPECT_EQ(filter.database().ham_count(), 20u);
}

TEST(Filter, UntrainedFilterSaysUnsure) {
  Filter filter;
  EXPECT_EQ(filter.classify(ham_message(0)).verdict, Verdict::unsure);
}

TEST(Filter, TrainSpamCopiesEqualsLoop) {
  email::Message msg = spam_message(0);
  Filter loop, batch;
  for (int i = 0; i < 33; ++i) loop.train_spam(msg);
  batch.train_spam_copies(msg, 33);
  EXPECT_EQ(loop.database().spam_count(), batch.database().spam_count());
  for (const auto& [token, counts] : loop.database().tokens()) {
    EXPECT_EQ(batch.database().counts(token_id(token)).spam, counts.spam)
        << token;
  }
  // And classification agrees exactly.
  EXPECT_DOUBLE_EQ(loop.classify(ham_message(1)).score,
                   batch.classify(ham_message(1)).score);
}

TEST(Filter, UntrainRestoresClassification) {
  Filter filter;
  for (int i = 0; i < 10; ++i) {
    filter.train_spam(spam_message(i));
    filter.train_ham(ham_message(i));
  }
  const double before = filter.classify(ham_message(42)).score;

  email::Message poison =
      email::MessageBuilder()
          .body("agenda budget review quarterly forecast projections\n")
          .build();
  filter.train_spam_copies(poison, 25);
  EXPECT_GT(filter.classify(ham_message(42)).score, before);
  filter.untrain_spam(poison);  // remove one copy...
  for (int i = 0; i < 24; ++i) filter.untrain_spam(poison);  // ...and rest
  EXPECT_DOUBLE_EQ(filter.classify(ham_message(42)).score, before);
}

TEST(Filter, TokensViewMatchesTrainAndClassify) {
  Filter filter;
  email::Message msg = ham_message(7);
  const TokenIdSet tokens = filter.message_token_ids(msg);
  Filter other;
  other.train_ham_ids(tokens);
  filter.train_ham(msg);
  EXPECT_EQ(filter.database().ham_count(), other.database().ham_count());
  EXPECT_EQ(filter.database().tokens(), other.database().tokens());
  EXPECT_EQ(filter.classify(msg).score, other.classify_ids(tokens).score);
}

TEST(Filter, SetCutoffsChangesVerdictsOnly) {
  Filter filter;
  for (int i = 0; i < 10; ++i) {
    filter.train_spam(spam_message(i));
    filter.train_ham(ham_message(i));
  }
  email::Message probe = ham_message(3);
  const double score = filter.classify(probe).score;
  filter.set_cutoffs(0.0, 1.0);  // everything scores strictly inside -> unsure
  EXPECT_DOUBLE_EQ(filter.classify(probe).score, score);
  if (score > 0.0 && score < 1.0) {
    EXPECT_EQ(filter.classify(probe).verdict, Verdict::unsure);
  }
  // A rejected call changes nothing: verdicts keep the previous cutoffs.
  ASSERT_GT(score, 0.0);
  ASSERT_LT(score, 0.9);
  EXPECT_THROW(filter.set_cutoffs(0.9, 0.1), InvalidArgument);
  EXPECT_THROW(filter.set_cutoffs(0.9, 1.5), InvalidArgument);
  EXPECT_THROW(filter.set_cutoffs(-0.1, 0.5), InvalidArgument);
  EXPECT_EQ(filter.classify(probe).verdict, Verdict::unsure);
  EXPECT_EQ(filter.classify_ids(filter.message_token_ids(probe)).verdict,
            Verdict::unsure);
  EXPECT_EQ(filter.options().classifier.ham_cutoff, 0.0);
  EXPECT_EQ(filter.options().classifier.spam_cutoff, 1.0);
  EXPECT_EQ(filter.classifier().options().ham_cutoff, 0.0);
  EXPECT_EQ(filter.classifier().options().spam_cutoff, 1.0);
}

TEST(Filter, HeaderEvidenceMatters) {
  // Identical bodies, different headers: training spammy headers must make
  // messages carrying them spammier.
  Filter filter;
  for (int i = 0; i < 20; ++i) {
    filter.train_spam(email::MessageBuilder()
                          .from("deals@offers.example")
                          .subject("offer")
                          .body("neutral words only here\n")
                          .build());
    filter.train_ham(email::MessageBuilder()
                         .from("colleague@corp.example")
                         .subject("meeting")
                         .body("neutral words only here\n")
                         .build());
  }
  auto spam_headers = email::MessageBuilder()
                          .from("deals@offers.example")
                          .subject("offer")
                          .body("fresh body\n")
                          .build();
  auto ham_headers = email::MessageBuilder()
                         .from("colleague@corp.example")
                         .subject("meeting")
                         .body("fresh body\n")
                         .build();
  EXPECT_GT(filter.classify(spam_headers).score,
            filter.classify(ham_headers).score);
}

TEST(Filter, CopyableSnapshots) {
  Filter base;
  for (int i = 0; i < 5; ++i) {
    base.train_spam(spam_message(i));
    base.train_ham(ham_message(i));
  }
  Filter copy = base;
  copy.train_spam_copies(spam_message(100), 50);
  // The original is unaffected by mutations of the copy.
  EXPECT_EQ(base.database().spam_count(), 5u);
  EXPECT_EQ(copy.database().spam_count(), 55u);
}

}  // namespace
}  // namespace sbx::spambayes
