// sbx/spambayes/tokenizer.h
//
// SpamBayes-style tokenization. The paper (footnote 1) notes tokenization is
// the main difference between SpamBayes, BogoFilter and SpamAssassin's
// learner; we reimplement the SpamBayes flavour:
//
//  * The MIME-decoded body is split on whitespace; each chunk is stripped of
//    surrounding punctuation and lower-cased.
//  * Words of length [min, max] become tokens verbatim.
//  * Longer words become "skip:<c> <n>" pseudo-tokens (first character plus
//    length bucketed to 10) and are additionally split on punctuation so
//    embedded words still contribute.
//  * http/https URLs yield "url:<component>" pseudo-tokens for the scheme,
//    host labels and path segments.
//  * Subject/From/To/Reply-To header values are tokenized with a
//    "<field>:" prefix so header evidence is distinct from body evidence
//    (this is why the focused attack clones real spam headers: they carry
//    spammy header tokens).
//
// Tokens are emitted as interned ids (interner.h) with duplicates; the
// classifier counts *presence*, so TokenDatabase consumes the deduplicated
// ascending set (unique_token_ids()). A spelling, where one is needed (an
// attacker rendering words into an email, save(), a report in spelling
// order), is TokenInterner::spelling(id).
//
// Two output forms share one emission pass: the interned form
// (TokenIdList, each token interned into a TokenInterner with zero
// per-token allocation once the vocabulary is warm) and the known-ids form
// (TokenIdList of the tokens already interned; unknown ones are dropped
// and the interner is never written). The known-ids form is deduplicated
// as it is emitted: tokenize_ids(m) with the ids the interner did not hold
// before the call removed, keeping only the first occurrence of each id,
// in first-occurrence order. It is the set served classify scores, so it
// needs no sort afterwards.
#pragma once

#include <string_view>
#include <vector>

#include "email/message.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"

namespace sbx::spambayes {

/// Stateless tokenizer; cheap to copy.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions opts = {});

  /// Tokenizes a full message (headers per options + MIME-decoded body),
  /// interning each token; ids in occurrence order, with duplicates.
  TokenIdList tokenize_ids(const email::Message& msg,
                           TokenInterner& interner = global_interner()) const;
  /// Tokenizes a plain text blob (no header handling).
  TokenIdList tokenize_text_ids(
      std::string_view text,
      TokenInterner& interner = global_interner()) const;

  /// Lookup-only, deduplicated counterpart of tokenize_ids(): the same
  /// token stream with every token the interner does not hold dropped and
  /// every repeat of an id dropped, in first-occurrence order. Never
  /// inserts and never locks (TokenInterner::find), so hostile traffic
  /// full of fresh tokens cannot grow the interner. Served classify uses
  /// it: a token absent from the interner has zero counts everywhere and
  /// cannot change a score.
  TokenIdList tokenize_known_ids(
      const email::Message& msg,
      const TokenInterner& interner = global_interner()) const;

  const TokenizerOptions& options() const { return opts_; }

 private:
  TokenizerOptions opts_;
};

/// Deduplicates an id list into an ascending TokenIdSet. Classification
/// and training operate on token presence (Eq. 1 counts emails containing
/// w, not occurrences), so this is the canonical form; dedup by id equals
/// dedup by spelling since interning is injective.
TokenIdSet unique_token_ids(TokenIdList ids);

/// Strips non-word characters (anything outside the tokenizer's word-char
/// set: alnum, ', -, $, !) from both ends of `word` — the normalization
/// every body word gets before it becomes a token. Exposed so attacks that
/// rank raw text chunks by per-token score can look up the same spelling
/// the filter trained on.
std::string_view strip_punct(std::string_view word);

}  // namespace sbx::spambayes
