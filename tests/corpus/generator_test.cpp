// Tests for corpus/generator: determinism, structural realism, token
// statistics that the attacks rely on (colloquial mass, dictionary
// coverage, email lengths), mailbox sampling.
#include "corpus/generator.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "email/rfc2822.h"
#include "spambayes/tokenizer.h"
#include "support/token_ids.h"
#include "util/error.h"

namespace sbx::corpus {
namespace {

using test::spellings;

class GeneratorTest : public ::testing::Test {
 protected:
  static const TrecLikeGenerator& generator() {
    static const TrecLikeGenerator gen;
    return gen;
  }
};

TEST_F(GeneratorTest, DeterministicGivenSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 5; ++i) {
    email::Message ma = generator().generate_ham(a);
    email::Message mb = generator().generate_ham(b);
    EXPECT_EQ(ma.body(), mb.body());
    EXPECT_EQ(ma.header("Subject"), mb.header("Subject"));
    EXPECT_EQ(generator().generate_spam(a).body(),
              generator().generate_spam(b).body());
  }
}

TEST_F(GeneratorTest, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  EXPECT_NE(generator().generate_ham(a).body(),
            generator().generate_ham(b).body());
}

TEST_F(GeneratorTest, MessagesHaveRealisticHeaders) {
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    for (auto msg : {generator().generate_ham(rng),
                     generator().generate_spam(rng)}) {
      EXPECT_TRUE(msg.has_header("From"));
      EXPECT_TRUE(msg.has_header("To"));
      EXPECT_TRUE(msg.has_header("Subject"));
      EXPECT_TRUE(msg.has_header("Date"));
      EXPECT_TRUE(msg.has_header("Message-ID"));
      EXPECT_NE(msg.header("From")->find('@'), std::string::npos);
      EXPECT_FALSE(msg.body().empty());
    }
  }
}

TEST_F(GeneratorTest, MessagesRenderAndReparse) {
  util::Rng rng(11);
  email::Message msg = generator().generate_ham(rng);
  email::Message re = email::parse_message(email::render_message(msg));
  EXPECT_EQ(re.header("Subject"), msg.header("Subject"));
  EXPECT_EQ(re.header("Message-ID"), msg.header("Message-ID"));
}

TEST_F(GeneratorTest, MeanTokenCountNearCalibration) {
  // DESIGN.md: the corpus-wide mean email should carry roughly 280 tokens
  // so the paper's token-ratio statistics (~7x at 2% Aspell) come out.
  util::Rng rng(13);
  spambayes::Tokenizer tok;
  std::size_t total = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    total += tok.tokenize_ids(generator().generate_ham(rng)).size();
    total += tok.tokenize_ids(generator().generate_spam(rng)).size();
  }
  double mean = static_cast<double>(total) / (2 * n);
  EXPECT_GT(mean, 180.0);
  EXPECT_LT(mean, 400.0);
}

TEST_F(GeneratorTest, HamDrawsColloquialMass) {
  // The Usenet-attack advantage requires ham to carry colloquial
  // (Usenet-only) tokens at roughly the configured mixture weight.
  util::Rng rng(17);
  spambayes::Tokenizer tok;
  std::size_t colloquial = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    email::Message msg = generator().generate_ham(rng);
    for (const auto& t : spellings(tok.tokenize_text_ids(msg.body()))) {
      total += 1;
      colloquial += t[0] == 'q' ? 1 : 0;
    }
  }
  double fraction = static_cast<double>(colloquial) / total;
  EXPECT_GT(fraction, 0.08);
  EXPECT_LT(fraction, 0.20);
}

TEST_F(GeneratorTest, HamCoreInsideAspellAndUsenet) {
  const auto& lex = generator().lexicons();
  std::unordered_set<std::string> usenet(lex.usenet().begin(),
                                         lex.usenet().end());
  for (const auto& w : generator().ham_core_words()) {
    ASSERT_TRUE(lex.in_aspell(w)) << w;
    ASSERT_TRUE(usenet.count(w)) << w;
  }
}

TEST_F(GeneratorTest, SpamVocabInAspellButNotUsenet) {
  const auto& lex = generator().lexicons();
  std::unordered_set<std::string> usenet(lex.usenet().begin(),
                                         lex.usenet().end());
  for (const auto& w : generator().spam_vocab_words()) {
    ASSERT_TRUE(lex.in_aspell(w)) << w;
    ASSERT_FALSE(usenet.count(w)) << w;
  }
}

TEST_F(GeneratorTest, FullVocabularyCoversEmittedBodyWords) {
  // The optimal attack's premise: the generator's declared vocabulary must
  // cover (almost) every plain word that appears in generated bodies.
  auto vocab_words = generator().full_vocabulary();
  std::unordered_set<std::string> vocab(vocab_words.begin(),
                                        vocab_words.end());
  util::Rng rng(19);
  spambayes::Tokenizer tok;
  std::size_t covered = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    for (auto msg : {generator().generate_ham(rng),
                     generator().generate_spam(rng)}) {
      for (const auto& t : spellings(tok.tokenize_text_ids(msg.body()))) {
        // Skip pseudo-tokens and numerics, which the optimal attack cannot
        // enumerate (documented in DESIGN.md).
        if (t.rfind("url:", 0) == 0 || t.rfind("skip:", 0) == 0) continue;
        bool numeric = t.find_first_of("0123456789$") != std::string::npos;
        if (numeric) continue;
        total += 1;
        covered += vocab.count(t);
      }
    }
  }
  EXPECT_GT(static_cast<double>(covered) / total, 0.999);
}

TEST_F(GeneratorTest, SampleMailboxRespectsSpamFraction) {
  util::Rng rng(23);
  Dataset box = generator().sample_mailbox(400, 0.25, rng);
  EXPECT_EQ(box.size(), 400u);
  EXPECT_EQ(box.count(TrueLabel::spam), 100u);
  EXPECT_EQ(box.count(TrueLabel::ham), 300u);
  EXPECT_THROW(generator().sample_mailbox(10, 1.5, rng), InvalidArgument);
}

TEST_F(GeneratorTest, SampleMailboxShufflesLabels) {
  util::Rng rng(29);
  Dataset box = generator().sample_mailbox(200, 0.5, rng);
  // The first 100 messages must not all share one label.
  std::size_t spam_in_front = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    spam_in_front += box.items[i].label == TrueLabel::spam ? 1 : 0;
  }
  EXPECT_GT(spam_in_front, 20u);
  EXPECT_LT(spam_in_front, 80u);
}

TEST_F(GeneratorTest, ConfigValidation) {
  GeneratorConfig bad;
  bad.ham_core_vocab = 70'000;  // exceeds the 61k overlap
  EXPECT_THROW(TrecLikeGenerator{bad}, InvalidArgument);

  GeneratorConfig bad2;
  bad2.spam_vocab = 40'000;  // does not fit outside the overlap
  EXPECT_THROW(TrecLikeGenerator{bad2}, InvalidArgument);
}

TEST_F(GeneratorTest, SpamAndHamVocabulariesOverlapPartially) {
  // Spam carries shared English background (the paper's corpus does too);
  // the classifier must see overlapping-but-distinguishable distributions.
  util::Rng rng(31);
  spambayes::Tokenizer tok;
  std::unordered_set<std::string> ham_tokens;
  for (int i = 0; i < 40; ++i) {
    const std::string body = generator().generate_ham(rng).body();
    for (const auto& t : spellings(tok.tokenize_text_ids(body))) {
      ham_tokens.insert(t);
    }
  }
  std::size_t shared = 0, spam_total = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string body = generator().generate_spam(rng).body();
    for (const auto& t : spellings(tok.tokenize_text_ids(body))) {
      spam_total += 1;
      shared += ham_tokens.count(t);
    }
  }
  double fraction = static_cast<double>(shared) / spam_total;
  EXPECT_GT(fraction, 0.15);  // substantial shared background...
  EXPECT_LT(fraction, 0.75);  // ...but far from identical distributions
}

}  // namespace
}  // namespace sbx::corpus
