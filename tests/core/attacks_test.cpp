// Tests for core attacks: taxonomy labels, attack-count arithmetic,
// dictionary attack construction, focused attack guessing model.
#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/attack_math.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/taxonomy.h"
#include "corpus/generator.h"
#include "email/builder.h"
#include "spambayes/filter.h"
#include "support/token_ids.h"
#include "util/error.h"

namespace sbx::core {
namespace {

using test::ids;
using test::spellings;

TEST(Taxonomy, Descriptions) {
  AttackProperties dictionary = DictionaryAttack::properties();
  EXPECT_EQ(dictionary.description(), "Causative Availability Indiscriminate");
  AttackProperties focused = FocusedAttack::properties();
  EXPECT_EQ(focused.description(), "Causative Availability Targeted");
  EXPECT_EQ(to_string(Influence::exploratory), "Exploratory");
  EXPECT_EQ(to_string(Violation::integrity), "Integrity");
}

TEST(AttackMath, PaperQuotedCounts) {
  // §4.2: 1% of a 10,000-message inbox = 101 attack emails; 2% = 204.
  EXPECT_EQ(attack_message_count(10'000, 0.01), 101u);
  EXPECT_EQ(attack_message_count(10'000, 0.02), 204u);
  EXPECT_EQ(attack_message_count(10'000, 0.0), 0u);
  EXPECT_EQ(attack_message_count(10'000, 0.10), 1'111u);
}

TEST(AttackMath, FractionIsOfFinalTrainingSet) {
  for (double f : {0.001, 0.01, 0.05, 0.2, 0.5}) {
    std::size_t clean = 5'000;
    std::size_t a = attack_message_count(clean, f);
    double realized = static_cast<double>(a) / static_cast<double>(clean + a);
    EXPECT_NEAR(realized, f, 0.001) << "f=" << f;
  }
}

TEST(AttackMath, RejectsInvalidFractions) {
  EXPECT_THROW(attack_message_count(100, -0.1), InvalidArgument);
  EXPECT_THROW(attack_message_count(100, 1.0), InvalidArgument);
}

TEST(AttackMath, AddingAttackWordsNeverLowersScore) {
  // §3.4: with the attack message count fixed, growing the attack payload
  // word-by-word monotonically raises the score of a message whose words
  // the payload progressively covers.
  spambayes::TokenDatabase db;
  db.train_ham_ids(ids({"alpha", "beta", "gamma", "delta"}), 10);
  db.train_spam_ids(ids({"junk"}), 10);
  spambayes::Classifier classifier;
  const spambayes::TokenIdSet msg = ids({"alpha", "beta", "gamma", "delta"});

  std::vector<std::string> attack = {"junk"};
  double prev = score_under_attack(classifier, db, msg, ids(attack), 10);
  for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
    attack.push_back(word);
    double cur = score_under_attack(classifier, db, msg, ids(attack), 10);
    EXPECT_GE(cur, prev - 1e-12) << word;
    prev = cur;
  }
  // Full coverage beats no coverage strictly.
  EXPECT_GT(prev, score_under_attack(classifier, db, msg, ids({"junk"}), 10));
}

class DictionaryAttackTest : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

TEST_F(DictionaryAttackTest, EmptyHeadersAndFullDictionaryBody) {
  DictionaryAttack attack = DictionaryAttack::aspell(generator().lexicons());
  EXPECT_EQ(attack.name(), "aspell");
  EXPECT_EQ(attack.dictionary_size(), 98'568u);
  const email::Message& msg = attack.attack_message();
  EXPECT_EQ(msg.header_count(), 0u);  // contamination assumption: no headers
  // Tokenizing the message recovers exactly the dictionary words.
  spambayes::Tokenizer tok;
  auto tokens = spambayes::unique_token_ids(tok.tokenize_ids(msg));
  EXPECT_EQ(tokens.size(), 98'568u);
}

TEST_F(DictionaryAttackTest, UsenetVariantsAreRankedPrefixes) {
  DictionaryAttack big = DictionaryAttack::usenet(generator().lexicons());
  EXPECT_EQ(big.dictionary_size(), 90'000u);
  EXPECT_EQ(big.name(), "usenet-90000");
  DictionaryAttack small =
      DictionaryAttack::usenet(generator().lexicons(), 1'000);
  EXPECT_EQ(small.dictionary_size(), 1'000u);
  // The truncated body is a prefix of the full body.
  EXPECT_EQ(big.attack_message().body().rfind(
                small.attack_message().body().substr(0, 200), 0),
            0u);
  EXPECT_THROW(DictionaryAttack::usenet(generator().lexicons(), 0),
               InvalidArgument);
  EXPECT_THROW(DictionaryAttack::usenet(generator().lexicons(), 90'001),
               InvalidArgument);
}

TEST_F(DictionaryAttackTest, OptimalCoversGeneratorVocabulary) {
  DictionaryAttack attack = DictionaryAttack::optimal(generator());
  EXPECT_EQ(attack.dictionary_size(),
            generator().full_vocabulary().size());
  EXPECT_EQ(attack.name(), "optimal");
}

TEST_F(DictionaryAttackTest, EmptyDictionaryRejected) {
  EXPECT_THROW(DictionaryAttack("x", {}), InvalidArgument);
}

TEST_F(DictionaryAttackTest, PoisoningRaisesHamScores) {
  // The core mechanism: training dictionary emails as spam raises the
  // message score of unrelated legitimate email.
  util::Rng rng(5);
  spambayes::Filter filter;
  for (int i = 0; i < 100; ++i) {
    filter.train_ham(generator().generate_ham(rng));
    filter.train_spam(generator().generate_spam(rng));
  }
  email::Message probe = generator().generate_ham(rng);
  const double before = filter.classify(probe).score;
  DictionaryAttack attack = DictionaryAttack::usenet(generator().lexicons());
  filter.train_spam_copies(attack.attack_message(), 10);
  const double after = filter.classify(probe).score;
  EXPECT_GT(after, before + 0.2);
}

class FocusedAttackTest : public ::testing::Test {
 protected:
  spambayes::Tokenizer tok;
};

TEST_F(FocusedAttackTest, GuessProbabilityControlsPayloadSize) {
  std::vector<std::string> target;
  for (int i = 0; i < 400; ++i) target.push_back("word" + std::to_string(i));
  std::sort(target.begin(), target.end());

  for (double p : {0.1, 0.5, 0.9}) {
    util::Rng rng(77);
    FocusedAttackConfig config;
    config.guess_probability = p;
    FocusedAttack attack(config, target, rng);
    double fraction =
        static_cast<double>(attack.guessed_words().size()) / target.size();
    EXPECT_NEAR(fraction, p, 0.08) << "p=" << p;
    // Guessed words are a subset of the target.
    std::unordered_set<std::string> t(target.begin(), target.end());
    for (const auto& w : attack.guessed_words()) EXPECT_TRUE(t.count(w));
  }
}

TEST_F(FocusedAttackTest, SingleGuessSetSharedAcrossEmails) {
  std::vector<std::string> target = {"aaa", "bbb", "ccc", "ddd", "eee", "fff"};
  util::Rng rng(3);
  FocusedAttack attack({0.5, 0, false}, target, rng);
  email::Message donor =
      email::MessageBuilder().from("spam@x.example").subject("sp").build();
  std::vector<const email::Message*> pool = {&donor};
  auto emails = attack.generate(pool, 10, rng);
  ASSERT_EQ(emails.size(), 10u);
  for (const auto& m : emails) {
    EXPECT_EQ(m.body(), emails[0].body());  // same payload every time
  }
}

TEST_F(FocusedAttackTest, FreshGuessVariantDiffersAcrossEmails) {
  std::vector<std::string> target;
  for (int i = 0; i < 100; ++i) target.push_back("w" + std::to_string(i));
  std::sort(target.begin(), target.end());
  util::Rng rng(4);
  FocusedAttack attack({0.5, 0, true}, target, rng);
  email::Message donor = email::MessageBuilder().from("s@x").build();
  std::vector<const email::Message*> pool = {&donor};
  auto emails = attack.generate(pool, 5, rng);
  bool any_difference = false;
  for (std::size_t i = 1; i < emails.size(); ++i) {
    any_difference |= emails[i].body() != emails[0].body();
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(FocusedAttackTest, ClonesSpamHeadersButStripsMime) {
  std::vector<std::string> target = {"alpha", "beta", "gamma"};
  util::Rng rng(5);
  FocusedAttack attack({1.0, 0, false}, target, rng);
  email::Message donor = email::MessageBuilder()
                             .from("spammer@offers.example")
                             .subject("great DEAL")
                             .header("Content-Type", "multipart/mixed; "
                                                     "boundary=xx")
                             .header("Content-Transfer-Encoding", "base64")
                             .build();
  std::vector<const email::Message*> pool = {&donor};
  auto emails = attack.generate(pool, 3, rng);
  for (const auto& m : emails) {
    EXPECT_EQ(m.header("From").value(), "spammer@offers.example");
    EXPECT_EQ(m.header("Subject").value(), "great DEAL");
    EXPECT_FALSE(m.has_header("Content-Type"));
    EXPECT_FALSE(m.has_header("Content-Transfer-Encoding"));
    // Payload visible to the tokenizer.
    auto tokens = spellings(tok.tokenize_ids(m));
    for (const auto& w : target) {
      EXPECT_NE(std::find(tokens.begin(), tokens.end(), w), tokens.end());
    }
  }
}

TEST_F(FocusedAttackTest, FullKnowledgeGuessesEverything) {
  std::vector<std::string> target = {"one", "two", "three"};
  util::Rng rng(6);
  FocusedAttack attack({1.0, 0, false}, target, rng);
  EXPECT_EQ(attack.guessed_words().size(), 3u);
}

TEST_F(FocusedAttackTest, ZeroKnowledgeFallsBackToMinimalPayload) {
  std::vector<std::string> target = {"one", "two", "three"};
  util::Rng rng(7);
  FocusedAttack attack({0.0, 0, false}, target, rng);
  EXPECT_EQ(attack.guessed_words().size(), 1u);  // minimal junk payload
}

TEST_F(FocusedAttackTest, Validation) {
  util::Rng rng(8);
  EXPECT_THROW(FocusedAttack({1.5, 0, false}, {"x"}, rng), InvalidArgument);
  EXPECT_THROW(FocusedAttack({0.5, 0, false}, {}, rng), InvalidArgument);
  FocusedAttack ok({0.5, 0, false}, {"x"}, rng);
  EXPECT_THROW(ok.generate({}, 1, rng), InvalidArgument);
}

TEST_F(FocusedAttackTest, AttackableBodyWordsExcludePseudoTokens) {
  email::Message msg =
      email::MessageBuilder()
          .subject("header words invisible")
          .body("normal words plus http://host.example/path and "
                "averyveryverylongunbrokenword\n")
          .build();
  auto words = attackable_body_words(msg, tok);
  for (const auto& w : words) {
    EXPECT_NE(w.rfind("url:", 0), 0u) << w;
    EXPECT_NE(w.rfind("subject:", 0), 0u) << w;
    EXPECT_NE(w.rfind("skip:", 0), 0u) << w;
  }
  EXPECT_NE(std::find(words.begin(), words.end(), "normal"), words.end());
  EXPECT_EQ(std::find(words.begin(), words.end(), "invisible"), words.end());
}

TEST_F(FocusedAttackTest, ExtraWordsAppendFillerWithoutTouchingTarget) {
  std::vector<std::string> target = {"alpha", "beta"};
  util::Rng rng(21);
  FocusedAttack attack({1.0, 25, false}, target, rng);
  // Payload = both target words + 25 filler tokens from the reserved
  // namespace.
  std::size_t filler = 0;
  for (const auto& w : attack.guessed_words()) {
    if (w.rfind("xfiller", 0) == 0) {
      ++filler;
    } else {
      EXPECT_TRUE(w == "alpha" || w == "beta") << w;
    }
  }
  EXPECT_EQ(filler, 25u);

  // Per the Section 3.4 independence argument, filler cannot weaken the
  // attack: the target's score under the padded attack is >= under the
  // lean attack.
  spambayes::TokenDatabase db;
  db.train_ham_ids(ids({"alpha", "beta", "gamma"}), 20);
  db.train_spam_ids(ids({"junk"}), 20);
  spambayes::Classifier classifier;
  util::Rng rng2(22);
  FocusedAttack lean({1.0, 0, false}, target, rng2);
  const spambayes::TokenIdSet target_ids = ids({"alpha", "beta", "gamma"});
  const double with_filler = score_under_attack(
      classifier, db, target_ids, ids(attack.guessed_words()), 10);
  const double lean_score = score_under_attack(
      classifier, db, target_ids, ids(lean.guessed_words()), 10);
  EXPECT_GE(with_filler, lean_score - 1e-12);
}

TEST_F(FocusedAttackTest, PoisoningPushesTargetTowardSpam) {
  // End-to-end: the focused attack raises the target's score while barely
  // moving other ham.
  corpus::TrecLikeGenerator gen;
  util::Rng rng(9);
  spambayes::Filter filter;
  std::vector<email::Message> spam_pool;
  for (int i = 0; i < 150; ++i) {
    filter.train_ham(gen.generate_ham(rng));
    email::Message s = gen.generate_spam(rng);
    filter.train_spam(s);
    spam_pool.push_back(std::move(s));
  }
  std::vector<const email::Message*> pool;
  for (const auto& s : spam_pool) pool.push_back(&s);

  email::Message target = gen.generate_ham(rng);
  email::Message other = gen.generate_ham(rng);
  const double target_before = filter.classify(target).score;
  const double other_before = filter.classify(other).score;

  FocusedAttack attack({0.9, 0, false},
                       attackable_body_words(target, tok), rng);
  for (const auto& m : attack.generate(pool, 40, rng)) {
    filter.train_spam(m);
  }
  const double target_after = filter.classify(target).score;
  const double other_after = filter.classify(other).score;
  EXPECT_GT(target_after, target_before + 0.3);
  // The attack is targeted: collateral damage stays small.
  EXPECT_LT(other_after - other_before, 0.2);
}

}  // namespace
}  // namespace sbx::core
