// sbx/core/good_word_attack.h
//
// An Exploratory Integrity attack — the taxonomy quadrant the paper
// contrasts its Causative attacks against (§3.1, §6: Lowd & Meek's "good
// word attacks", Wittel & Wu's common-word padding). The attacker does NOT
// touch training; it appends words likely to look hammy to a spam message
// until the (fixed) filter no longer files it as spam.
//
// Implemented black-box: the attacker can submit messages and observe the
// filter's verdict/score (Lowd-Meek's membership-query model), padding its
// message in batches until the goal verdict is reached or the word budget
// is exhausted. Included both for taxonomy completeness and as the
// comparison figure (`sbx_experiments figure ext_good_words`) showing why
// the paper's causative attacks are the stronger threat: evasion helps one
// message through, poisoning breaks the filter for everyone.
#pragma once

#include <cstddef>
#include <vector>

#include "core/taxonomy.h"
#include "email/message.h"
#include "spambayes/filter.h"

namespace sbx::core {

/// Black-box good-word evasion.
class GoodWordAttack {
 public:
  /// `candidate_words`: words the attacker believes look legitimate, in
  /// the order it will try them (e.g. common English words). `batch_size`:
  /// how many words are appended between filter queries.
  explicit GoodWordAttack(std::vector<std::string> candidate_words,
                          std::size_t batch_size = 10);

  struct Result {
    email::Message message;        // the (possibly padded) spam
    std::size_t words_added = 0;
    std::size_t queries = 0;       // filter queries spent
    double score_before = 1.0;
    double score_after = 1.0;
    bool evaded = false;           // reached the goal verdict
  };

  /// Pads `spam` with candidate words until the filter's verdict is at
  /// most `goal` (unsure by default — out of the spam folder), the
  /// candidate list is exhausted, or `max_words` have been added.
  Result evade(const spambayes::Filter& filter, const email::Message& spam,
               std::size_t max_words,
               spambayes::Verdict goal = spambayes::Verdict::unsure) const;

  /// Exploratory / Integrity / Targeted.
  static AttackProperties properties() {
    return {Influence::exploratory, Violation::integrity,
            Specificity::targeted};
  }

 private:
  std::vector<std::string> candidates_;
  std::size_t batch_size_;
};

}  // namespace sbx::core
