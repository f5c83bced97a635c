// sbx/spambayes/options.h
//
// Tunable parameters of the SpamBayes learner, with the upstream defaults
// the paper attacks. Section 2.3 of the paper defines the math; the names
// here mirror SpamBayes' Options.py where one exists.
#pragma once

#include <cstddef>

namespace sbx::spambayes {

/// Classifier hyperparameters (Eq. 1-4 of the paper).
struct ClassifierOptions {
  /// Prior strength `s` in Eq. 2 (SpamBayes: unknown_word_strength).
  double unknown_word_strength = 0.45;

  /// Prior belief `x` in Eq. 2 (SpamBayes: unknown_word_prob).
  double unknown_word_prob = 0.5;

  /// Maximum number of significant tokens |delta(E)| combined by Fisher's
  /// method (SpamBayes: max_discriminators).
  std::size_t max_discriminators = 150;

  /// Tokens with |f(w) - 0.5| <= this value are ignored, i.e. scores inside
  /// [0.4, 0.6] carry no evidence (SpamBayes: minimum_prob_strength).
  double minimum_prob_strength = 0.1;

  /// theta_0: messages with I(E) in [0, ham_cutoff] are labeled ham.
  double ham_cutoff = 0.15;

  /// theta_1: messages with I(E) in (spam_cutoff, 1] are labeled spam;
  /// everything between the cutoffs is unsure.
  double spam_cutoff = 0.9;
};

/// Tokenizer parameters (see tokenizer.h for semantics).
struct TokenizerOptions {
  /// Tokens shorter than this many characters are dropped.
  std::size_t min_token_length = 3;

  /// Tokens longer than this many characters become "skip" pseudo-tokens.
  std::size_t max_token_length = 12;

  /// Emit "skip:<first-char> <bucketed-length>" pseudo-tokens for
  /// over-length words, as SpamBayes does.
  bool generate_skip_tokens = true;

  /// Tokenize the Subject/From/To/Reply-To headers.
  bool tokenize_headers = true;

  /// Prefix header tokens with their field name ("subject:offer"). When
  /// false, header words enter the same token space as body words — which
  /// removes the header "safe zone" that body-only poisoning cannot touch.
  bool prefix_header_tokens = true;

  /// Emit "url:<component>" pseudo-tokens for http(s) URLs in the body.
  bool tokenize_urls = true;

  bool operator==(const TokenizerOptions&) const = default;
};

/// Tokenizer presets modeling the filters the paper names (footnote 1:
/// "The primary difference between the learning elements of these three
/// filters is in their tokenization methods"). The presets capture the
/// differences that matter to the attacks: token-length windows, skip
/// tokens and header handling.
struct TokenizerFlavors {
  /// SpamBayes defaults (the paper's target system).
  static TokenizerOptions spambayes() { return TokenizerOptions{}; }

  /// BogoFilter-style: a much wider token-length window, no skip
  /// pseudo-tokens, and header words not segregated by field prefixes.
  static TokenizerOptions bogofilter() {
    TokenizerOptions opts;
    opts.max_token_length = 30;
    opts.generate_skip_tokens = false;
    opts.prefix_header_tokens = false;
    return opts;
  }

  /// SpamAssassin's Bayes component: mid-sized window, header prefixes,
  /// no skip tokens.
  static TokenizerOptions spamassassin() {
    TokenizerOptions opts;
    opts.max_token_length = 15;
    opts.generate_skip_tokens = false;
    return opts;
  }
};

/// Bundle used by Filter.
struct FilterOptions {
  ClassifierOptions classifier;
  TokenizerOptions tokenizer;
};

}  // namespace sbx::spambayes
