// sbx/spambayes/filter.h
//
// End-to-end SpamBayes filter: tokenizer + training database + classifier.
// This is the library's primary user-facing class and the system the
// paper's attacks poison.
//
// Typical use:
//   Filter filter;
//   filter.train_ham(msg1);
//   filter.train_spam(msg2);
//   auto result = filter.classify(incoming);
//   if (result.verdict == Verdict::spam) { ... }
//
// Messages are represented as interned TokenIdSets (see interner.h): the
// Message methods tokenize with message_token_ids() and forward to the
// *_ids methods, which callers holding ids use directly — tokenize a
// message once, then train/untrain/classify with pure id arrays.
#pragma once

#include <cstdint>

#include "email/message.h"
#include "spambayes/classifier.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/score_engine.h"
#include "spambayes/token_db.h"
#include "spambayes/tokenizer.h"

namespace sbx::spambayes {

/// Trained spam filter. Copyable: experiments snapshot a clean filter and
/// graft attack training onto the copy (the copy shares the database's
/// count leaves; the attack clones only the leaves it writes).
class Filter {
 public:
  explicit Filter(FilterOptions opts = {});

  /// Tokenizes and trains one message as ham/spam.
  void train_ham(const email::Message& msg);
  void train_spam(const email::Message& msg);

  /// Trains `copies` identical spam messages in one O(|tokens|) update.
  /// Counts are additive, so this is exactly equivalent to calling
  /// train_spam(msg) `copies` times (the dictionary attack relies on this
  /// for tractability at paper scale).
  void train_spam_copies(const email::Message& msg, std::uint32_t copies);

  /// Exactly reverses a previous training call (RONI needs this).
  void untrain_ham(const email::Message& msg);
  void untrain_spam(const email::Message& msg);

  /// Pre-interned variants — the hot paths in the experiment harness, which
  /// tokenizes each corpus message once and reuses the id sets.
  void train_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void train_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Scores and labels a message: message_token_ids() scored by the
  /// Classifier's fresh source, so it neither counts towards nor builds
  /// the calling thread's engine table.
  ScoreIdResult classify(const email::Message& msg) const;

  /// Scores a pre-interned message — bit-identical to classify(msg) on the
  /// message the ids came from. Routed through the calling thread's
  /// ScoreEngine (see score_engine.h), which reads a ScoreTable of this
  /// database generation once the lookups against it have paid for one.
  /// Safe to call on a shared const Filter from any number of threads (one
  /// engine per thread).
  ScoreIdResult classify_ids(const TokenIdSet& ids) const;

  /// Zero-allocation batch classify: scores ids_of(i) for i in
  /// [0, count) against this filter's database and calls
  /// sink(i, const BatchScore&) for each. Evidence/candidate buffers are
  /// reused across the whole batch and the per-message BatchScore.evidence
  /// view is only valid inside the sink call. Bit-identical to calling
  /// classify_ids per message. The database must not be mutated from the
  /// sink (the engine throws on a mid-batch generation change).
  template <typename GetIds, typename Sink>
  void classify_batch(std::size_t count, GetIds&& ids_of, Sink&& sink) const {
    ScoreEngine::for_current_thread(opts_.classifier)
        .score_batch(db_, nullptr, count, std::forward<GetIds>(ids_of),
                     std::forward<Sink>(sink));
  }

  /// Tokenize-and-deduplicate helper matching what train/classify do (one
  /// tokenizer pass, no per-token strings).
  TokenIdSet message_token_ids(const email::Message& msg) const;

  /// Lookup-only sibling of message_token_ids(): the ids of the message's
  /// already-interned tokens, each once, in first-occurrence order
  /// (Tokenizer::tokenize_known_ids, which deduplicates as it emits; no
  /// sort). Never writes the interner. The scorer takes ids in any order,
  /// so this scores the same as message_token_ids() whenever a zero-count
  /// token cannot enter delta(E) — see serve/frontend.h for where that is
  /// checked.
  TokenIdList message_known_token_ids(const email::Message& msg) const;

  const TokenDatabase& database() const { return db_; }
  TokenDatabase& mutable_database() { return db_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Classifier& classifier() const { return classifier_; }
  const FilterOptions& options() const { return opts_; }

  /// Replaces the classification cutoffs (dynamic-threshold defense).
  /// Throws InvalidArgument, changing nothing, unless
  /// 0 <= ham_cutoff <= spam_cutoff <= 1 (the Classifier constructor's
  /// check).
  void set_cutoffs(double ham_cutoff, double spam_cutoff);

 private:
  FilterOptions opts_;
  Tokenizer tokenizer_;
  Classifier classifier_;
  TokenDatabase db_;
};

}  // namespace sbx::spambayes
