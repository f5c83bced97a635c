// sbx/core/ham_labeled_attack.h
//
// The extension the paper flags in §2.2: "using ham-labeled attack emails
// could enable more powerful attacks that place spam in a user's inbox."
// This is a Causative *Integrity* attack — the mirror image of the
// dictionary attack. The attacker arranges for emails carrying its future
// spam vocabulary to be trained as ham (e.g. by sending innocuous-looking
// mail the victim's pipeline auto-labels, or abusing a
// train-on-everything policy), driving the spam scores of those tokens
// down so that later spam carrying them slips into the inbox.
//
// The attack takes a word list — typically the attacker's own campaign
// vocabulary — and produces one canonical attack email, trained as ham in
// `copies`. Evaluated by `sbx_experiments figure ext_ham_labeled`.
#pragma once

#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "email/message.h"

namespace sbx::core {

/// Ham-labeled poisoning: whitewash the attacker's vocabulary.
class HamLabeledAttack {
 public:
  /// `payload_words` is the vocabulary the attacker wants whitened —
  /// usually the word list its future spam will draw from. The email body
  /// carries exactly these words; headers imitate ordinary ham by cloning
  /// the given header block (the attack's premise is that the message
  /// passes as legitimate, so unlike the spam-labeled attacks it ships
  /// believable headers).
  HamLabeledAttack(std::vector<std::string> payload_words,
                   std::vector<email::HeaderField> ham_like_headers);

  const email::Message& attack_message() const { return message_; }
  std::size_t payload_size() const { return payload_size_; }

  /// Causative / Integrity / Indiscriminate (it whitens a whole campaign
  /// vocabulary, not one message).
  static AttackProperties properties() {
    return {Influence::causative, Violation::integrity,
            Specificity::indiscriminate};
  }

 private:
  std::size_t payload_size_;
  email::Message message_;
};

}  // namespace sbx::core
