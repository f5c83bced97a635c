// sbx/corpus/vocabulary.h
//
// Deterministic synthetic lexicons standing in for the paper's word
// sources:
//   * GNU Aspell English dictionary 6.0-0 (98,568 words)   -> aspell_like()
//   * top 90,000 words of the Westbury Usenet corpus, with
//     a ~61,000-word overlap with Aspell                    -> usenet_like()
//
// Words are pronounceable syllable strings (onset-vowel-coda), pairwise
// distinct by construction, 3-12 characters, lower-case — i.e. they pass
// through the SpamBayes tokenizer unchanged. "Colloquial" words (the
// Usenet-minus-Aspell remainder: slang, misspellings) are mutations of
// dictionary words plus apostrophe forms, kept disjoint from the formal
// lexicon by construction.
//
// Why this preserves the paper's behaviour: the attacks only care about
// *which* token strings coincide between attack dictionaries and the
// victim's email distribution, never about meaning. The lexicon sizes and
// overlap match the paper's reported numbers, so attack coverage of ham
// token mass — the quantity that drives Figures 1 and 5 — is reproduced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace sbx::corpus {

/// Deterministic word factory: word(i) is a unique pronounceable string for
/// every index i. No randomness; the same index always yields the same word.
class WordGenerator {
 public:
  /// The i-th formal word. Distinct indices yield distinct words.
  static std::string word(std::uint64_t index);

  /// A colloquial mutation of the i-th formal word, guaranteed distinct
  /// from every formal word (mutations append letter doubling / drop a
  /// vowel / add an apostrophe suffix, then a disambiguating syllable).
  static std::string colloquial_word(std::uint64_t index);
};

/// Paper-calibrated lexicon sizes.
struct LexiconSizes {
  std::size_t aspell = 98'568;   // GNU Aspell en 6.0-0 word count
  std::size_t usenet = 90'000;   // top-ranked Usenet words used in the attack
  std::size_t overlap = 61'000;  // |Aspell intersection Usenet| per §4.2

  bool operator==(const LexiconSizes&) const = default;
};

/// The three word lists the attacks and the generator share.
class Lexicons {
 public:
  /// Builds all lexicons deterministically. `sizes.overlap` words of the
  /// Usenet list are drawn from the front of the Aspell list (the common,
  /// high-frequency region that real ham uses); the remainder are
  /// colloquial words outside the formal dictionary.
  explicit Lexicons(const LexiconSizes& sizes = {});

  /// Aspell-like formal dictionary (size: sizes.aspell).
  const std::vector<std::string>& aspell() const { return aspell_; }

  /// Usenet-like ranked word list (size: sizes.usenet). The first
  /// `overlap()` entries are also in aspell(); the rest are colloquial.
  const std::vector<std::string>& usenet() const { return usenet_; }

  /// Usenet-minus-Aspell words (slang/misspellings).
  const std::vector<std::string>& colloquial() const { return colloquial_; }

  std::size_t overlap() const { return sizes_.overlap; }
  const LexiconSizes& sizes() const { return sizes_; }

  /// Membership test against the formal dictionary.
  bool in_aspell(const std::string& word) const {
    return aspell_set_.count(word) != 0;
  }

 private:
  LexiconSizes sizes_;
  std::vector<std::string> aspell_;
  std::vector<std::string> usenet_;
  std::vector<std::string> colloquial_;
  std::unordered_set<std::string> aspell_set_;
};

}  // namespace sbx::corpus
