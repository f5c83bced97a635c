// Tests for core/ham_labeled_attack: the §2.2 Causative Integrity
// extension.
#include "core/ham_labeled_attack.h"

#include <gtest/gtest.h>

#include "core/roni.h"
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "util/error.h"

namespace sbx::core {
namespace {

TEST(HamLabeledAttack, TaxonomyAndConstruction) {
  HamLabeledAttack attack({"cheap", "pills"}, {{"From", "friend@corp"}});
  EXPECT_EQ(attack.properties().description(),
            "Causative Integrity Indiscriminate");
  EXPECT_EQ(attack.payload_size(), 2u);
  EXPECT_EQ(attack.attack_message().header("From").value(), "friend@corp");
  EXPECT_NE(attack.attack_message().body().find("cheap pills"),
            std::string::npos);
  EXPECT_THROW(HamLabeledAttack({}, {}), InvalidArgument);
}

class HamLabeledEndToEnd : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

TEST_F(HamLabeledEndToEnd, WhitensCampaignVocabulary) {
  util::Rng rng(17);
  spambayes::Filter filter;
  for (int i = 0; i < 400; ++i) {
    filter.train_ham(generator().generate_ham(rng));
    filter.train_spam(generator().generate_spam(rng));
  }
  std::vector<std::string> payload = generator().spam_vocab_words();
  const auto& junk = generator().spam_junk_words();
  payload.insert(payload.end(), junk.begin(), junk.end());
  HamLabeledAttack attack(payload,
                          generator().generate_ham(rng).headers());

  util::Rng probe_rng(18);
  auto spam_score_mean = [&] {
    double total = 0;
    util::Rng r = probe_rng;  // same probes before and after
    for (int i = 0; i < 50; ++i) {
      total += filter.classify(generator().generate_spam(r)).score;
    }
    return total / 50;
  };
  const double before = spam_score_mean();
  // 2% ham-labeled injection.
  spambayes::Tokenizer tok;
  filter.train_ham_ids(
      spambayes::unique_token_ids(tok.tokenize_ids(attack.attack_message())),
      16);
  const double after = spam_score_mean();
  EXPECT_LT(after, before - 0.05);

  // Legitimate ham is unharmed (the attack only ever adds ham evidence).
  util::Rng ham_rng(19);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(filter.classify(generator().generate_ham(ham_rng)).verdict,
              spambayes::Verdict::ham);
  }
}

TEST_F(HamLabeledEndToEnd, InvisibleToRoni) {
  // RONI measures damage to ham classification; the ham-labeled attack
  // *improves* ham classification, so its impact statistic is <= 0.
  util::Rng rng(20);
  corpus::Dataset pool = generator().sample_mailbox(250, 0.5, rng);
  spambayes::Tokenizer tok;
  corpus::TokenizedDataset tokenized = corpus::tokenize_dataset(pool, tok);

  std::vector<std::string> payload = generator().spam_vocab_words();
  HamLabeledAttack attack(payload, generator().generate_ham(rng).headers());
  RoniDefense roni({}, {});
  auto assessment = roni.assess(
      spambayes::unique_token_ids(tok.tokenize_ids(attack.attack_message())),
      tokenized, rng);
  EXPECT_FALSE(assessment.rejected);
  EXPECT_LE(assessment.mean_ham_as_ham_decrease, 1.0);
}

}  // namespace
}  // namespace sbx::core
