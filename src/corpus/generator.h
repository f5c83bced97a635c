// sbx/corpus/generator.h
//
// Synthetic TREC-2005-like email source. The paper evaluates on the TREC
// 2005 spam corpus (92,189 Enron-based emails, 52,790 spam / 39,399 ham),
// which we cannot redistribute; this generator is the documented
// substitution (DESIGN.md §3). It produces RFC 2822 messages whose *token
// statistics* reproduce the properties the attacks exploit:
//
//  * ham bodies draw from a Zipf-Mandelbrot mixture over (a) a formal
//    English core inside the Aspell/Usenet overlap, (b) colloquial
//    Usenet-only words (slang/misspellings — the reason the Usenet attack
//    beats the Aspell attack), (c) proper nouns (people/companies, in no
//    dictionary), (d) numbers;
//  * spam bodies draw from a distinct sales vocabulary, obfuscated junk
//    tokens, shared English background, URLs and prices;
//  * body lengths are log-normal, calibrated so the corpus-wide mean email
//    carries ~280 tokens, matching the paper's token-ratio statistics
//    (204 Aspell attack emails ~ 7x the tokens of a 10,000-message inbox);
//  * every message carries realistic headers (From/To/Subject/Date/
//    Message-ID) that the SpamBayes tokenizer turns into header tokens.
//
// Everything is deterministic given the caller-provided Rng.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/dataset.h"
#include "corpus/vocabulary.h"
#include "email/message.h"
#include "util/random.h"

namespace sbx::corpus {

/// Tunable shape of the synthetic corpus. Defaults are calibrated to the
/// paper (see DESIGN.md §3 for the mapping).
struct GeneratorConfig {
  LexiconSizes lexicon_sizes;

  // --- ham token mixture ---
  std::size_t ham_core_vocab = 24'000;       // formal words ham uses
  std::size_t ham_colloquial_vocab = 20'000; // slang words ham uses
  double ham_colloquial_weight = 0.13;  // fraction of body tokens
  double ham_name_weight = 0.05;        // people/company mentions
  double ham_number_weight = 0.04;      // figures, dates, amounts
  double ham_url_weight = 0.01;         // intranet links

  // --- spam token mixture ---
  std::size_t spam_vocab = 6'000;            // sales vocabulary (formal)
  std::size_t spam_junk_vocab = 2'500;       // obfuscated tokens (no dict)
  double spam_background_weight = 0.32;  // shared English
  double spam_colloquial_weight = 0.04;
  double spam_junk_weight = 0.08;
  double spam_url_weight = 0.05;
  double spam_number_weight = 0.05;
  double spam_name_weight = 0.02;  // personalization ("dear <name>")

  /// Probability that a spam subject word is an ordinary English word
  /// rather than sales vocabulary. Real spam mimics legitimate subjects
  /// ("RE: your account"), which keeps header tokens from becoming
  /// class-pure oracles — the TREC corpus behaves the same way.
  double spam_subject_ham_word_prob = 0.5;

  /// Fraction of spam that is "hard": plain-text scams built almost
  /// entirely from ordinary English with only a few sales words. These
  /// score near the ham/spam boundary, reproducing the score overlap the
  /// TREC corpus exhibits (without them, synthetic spam separates so
  /// cleanly that the Figure-5 threshold defense looks unrealistically
  /// perfect).
  double hard_spam_fraction = 0.12;

  // --- Zipf-Mandelbrot shape: P(rank k) ~ 1/(k+1+q)^s ---
  double zipf_exponent = 1.08;
  double zipf_offset = 3.0;

  // --- body length (tokens): exp(Normal(log_mean, log_sigma)) ---
  double body_log_mean = 5.35;  // ~ log 210
  double body_log_sigma = 0.6;
  std::size_t min_body_tokens = 25;
  std::size_t max_body_tokens = 1'500;

  // --- entity pools ---
  std::size_t first_name_pool = 150;
  std::size_t last_name_pool = 150;
  std::size_t company_pool = 60;
  std::size_t spam_domain_pool = 400;

  /// Equal configs build generators that emit equal messages.
  bool operator==(const GeneratorConfig&) const = default;
};

/// Deterministic synthetic corpus source. Thread-safe for concurrent reads
/// (all mutation happens at construction); pass each thread its own Rng.
class TrecLikeGenerator {
 public:
  explicit TrecLikeGenerator(GeneratorConfig config = {});
  ~TrecLikeGenerator();

  TrecLikeGenerator(const TrecLikeGenerator&) = delete;
  TrecLikeGenerator& operator=(const TrecLikeGenerator&) = delete;

  const GeneratorConfig& config() const { return config_; }
  const Lexicons& lexicons() const;

  /// One legitimate business email.
  email::Message generate_ham(util::Rng& rng) const;

  /// One advertisement spam email.
  email::Message generate_spam(util::Rng& rng) const;

  /// Labeled convenience wrapper.
  LabeledMessage generate(TrueLabel label, util::Rng& rng) const;

  /// Samples an inbox of `size` messages with round(size*spam_fraction)
  /// spam, in random interleaved order.
  Dataset sample_mailbox(std::size_t size, double spam_fraction,
                         util::Rng& rng) const;

  /// Every plain word the generator can ever emit in a body (ham core,
  /// colloquial, names, companies, spam vocabulary, junk). This is the
  /// token universe of the paper's *optimal* attack (§3.4: "include all
  /// possible words").
  std::vector<std::string> full_vocabulary() const;

  /// Word pools, exposed for attacks/tests.
  const std::vector<std::string>& ham_core_words() const;
  const std::vector<std::string>& ham_colloquial_words() const;
  const std::vector<std::string>& spam_vocab_words() const;
  const std::vector<std::string>& spam_junk_words() const;

  /// One (word, probability) entry of the ham body-token distribution.
  struct WordProbability {
    std::string word;
    double probability = 0.0;
  };

  /// The exact unigram distribution ham bodies are drawn from (mixture
  /// weights times the per-pool Zipf/uniform probabilities; numbers and
  /// URLs, which are not enumerable words, are excluded, so the
  /// probabilities sum to slightly below 1). This is the distribution `p`
  /// of §3.4 — what a maximally informed attacker knows — and feeds the
  /// optimal *constrained* attack the paper leaves to future work.
  std::vector<WordProbability> ham_word_distribution() const;

 private:
  struct Impl;

  GeneratorConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sbx::corpus
