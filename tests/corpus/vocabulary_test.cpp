// Tests for corpus/vocabulary: word uniqueness, lexicon sizes, the
// paper-calibrated Aspell/Usenet overlap, tokenizer compatibility.
#include "corpus/vocabulary.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "spambayes/tokenizer.h"
#include "support/token_ids.h"
#include "util/error.h"

namespace sbx::corpus {
namespace {

using test::spellings;

TEST(WordGenerator, Deterministic) {
  EXPECT_EQ(WordGenerator::word(0), WordGenerator::word(0));
  EXPECT_EQ(WordGenerator::word(12345), WordGenerator::word(12345));
  EXPECT_EQ(WordGenerator::colloquial_word(7),
            WordGenerator::colloquial_word(7));
}

TEST(WordGenerator, FormalWordsDistinctOverLexiconRange) {
  // Covers the full index range the lexicons + entity pools use.
  std::unordered_set<std::string> seen;
  const std::uint64_t limit = 200'000;
  for (std::uint64_t i = 0; i < limit; ++i) {
    ASSERT_TRUE(seen.insert(WordGenerator::word(i)).second)
        << "collision at index " << i << ": " << WordGenerator::word(i);
  }
}

TEST(WordGenerator, ColloquialWordsDistinctAndMarked) {
  std::unordered_set<std::string> seen;
  for (std::uint64_t i = 0; i < 60'000; ++i) {
    std::string w = WordGenerator::colloquial_word(i);
    ASSERT_TRUE(seen.insert(w).second) << "collision at " << i;
    EXPECT_EQ(w[0], 'q') << w;  // the disjointness marker
  }
}

TEST(WordGenerator, FormalWordsNeverContainQ) {
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    EXPECT_EQ(WordGenerator::word(i).find('q'), std::string::npos);
  }
}

TEST(WordGenerator, WordsSurviveTokenization) {
  // Every lexicon word must tokenize to exactly itself, otherwise attack
  // dictionaries would not hit the tokens ham actually produces.
  spambayes::Tokenizer tok;
  for (std::uint64_t i : {0ull, 17ull, 999ull, 98'567ull, 150'000ull}) {
    std::string w = WordGenerator::word(i);
    auto tokens = spellings(tok.tokenize_text_ids(w));
    ASSERT_EQ(tokens.size(), 1u) << w;
    EXPECT_EQ(tokens[0], w);
  }
  for (std::uint64_t i : {0ull, 28'999ull, 50'000ull}) {
    std::string w = WordGenerator::colloquial_word(i);
    auto tokens = spellings(tok.tokenize_text_ids(w));
    ASSERT_EQ(tokens.size(), 1u) << w;
    EXPECT_EQ(tokens[0], w);
  }
}

TEST(WordGenerator, ColloquialIndexRangeGuarded) {
  EXPECT_THROW(WordGenerator::colloquial_word(1ull << 40), InvalidArgument);
}

TEST(Lexicons, PaperCalibratedSizes) {
  Lexicons lex;
  EXPECT_EQ(lex.aspell().size(), 98'568u);   // GNU Aspell en 6.0-0
  EXPECT_EQ(lex.usenet().size(), 90'000u);   // top Usenet words
  EXPECT_EQ(lex.overlap(), 61'000u);         // §4.2: ~61k shared
  EXPECT_EQ(lex.colloquial().size(), 29'000u);
}

TEST(Lexicons, OverlapIsExact) {
  LexiconSizes sizes;
  sizes.aspell = 2'000;
  sizes.usenet = 1'500;
  sizes.overlap = 1'000;
  Lexicons lex(sizes);
  std::unordered_set<std::string> aspell(lex.aspell().begin(),
                                         lex.aspell().end());
  std::size_t shared = 0;
  for (const auto& w : lex.usenet()) shared += aspell.count(w);
  EXPECT_EQ(shared, sizes.overlap);
  // Usenet-minus-Aspell = colloquial words, all disjoint from Aspell.
  for (const auto& w : lex.colloquial()) {
    EXPECT_FALSE(lex.in_aspell(w)) << w;
  }
}

TEST(Lexicons, UsenetHasNoDuplicates) {
  LexiconSizes sizes;
  sizes.aspell = 3'000;
  sizes.usenet = 2'000;
  sizes.overlap = 1'200;
  Lexicons lex(sizes);
  std::unordered_set<std::string> seen(lex.usenet().begin(),
                                       lex.usenet().end());
  EXPECT_EQ(seen.size(), lex.usenet().size());
}

TEST(Lexicons, ColloquialInterleavedThroughRanking) {
  // Slang ranks highly in a Usenet frequency list; the front of the ranked
  // list must already contain colloquial words, not have them all appended
  // at the end.
  LexiconSizes sizes;
  sizes.aspell = 3'000;
  sizes.usenet = 2'000;
  sizes.overlap = 1'000;
  Lexicons lex(sizes);
  std::size_t colloquial_in_front = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    colloquial_in_front += lex.usenet()[i][0] == 'q' ? 1 : 0;
  }
  EXPECT_GT(colloquial_in_front, 50u);
  EXPECT_LT(colloquial_in_front, 150u);
}

TEST(Lexicons, InvalidOverlapRejected) {
  LexiconSizes sizes;
  sizes.aspell = 100;
  sizes.usenet = 100;
  sizes.overlap = 150;
  EXPECT_THROW(Lexicons{sizes}, InvalidArgument);
}

TEST(Lexicons, MembershipTest) {
  LexiconSizes sizes;
  sizes.aspell = 500;
  sizes.usenet = 400;
  sizes.overlap = 300;
  Lexicons lex(sizes);
  EXPECT_TRUE(lex.in_aspell(lex.aspell().front()));
  EXPECT_TRUE(lex.in_aspell(lex.aspell().back()));
  EXPECT_FALSE(lex.in_aspell("qzzz-not-a-word"));
}

}  // namespace
}  // namespace sbx::corpus
