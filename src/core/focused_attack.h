// sbx/core/focused_attack.h
//
// The paper's Targeted Causative Availability attack (§3.3): the attacker
// knows (part of) a specific future email and sends spam containing the
// words it expects that email to contain, so SpamBayes learns to score the
// target's tokens as spammy and files the target away from the inbox.
//
// Knowledge model (§4.3): the attacker guesses each token of the target
// correctly with probability p. One guess set is drawn per attack instance
// — the attacker's knowledge is fixed, and every attack email it sends
// carries that same payload. (Independent per-email guesses would converge
// to full knowledge as the email count grows, erasing the p-dependence that
// Figure 2 demonstrates; see DESIGN.md §5.)
//
// Headers: each attack email clones the full header block of a randomly
// chosen real spam message (§4.1), modelling the restriction that attackers
// do not control the headers the victim's infrastructure records.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "email/message.h"
#include "spambayes/tokenizer.h"
#include "util/random.h"

namespace sbx::core {

/// Parameters of the focused attack.
struct FocusedAttackConfig {
  /// Probability of correctly guessing each target token (Fig. 2 sweeps
  /// this over {0.1, 0.3, 0.5, 0.9}).
  double guess_probability = 0.5;

  /// Extra filler words appended to the payload from the attacker's own
  /// vocabulary (the paper notes attack emails "may include additional
  /// words as well"; the evaluated attacks use none).
  std::size_t extra_words = 0;

  /// When true, every attack email redraws its own guess set (ablation;
  /// the paper's model keeps one guess set per attack, see header comment).
  bool fresh_guess_per_email = false;
};

/// A focused attack instance bound to one target email.
class FocusedAttack {
 public:
  /// Binds the attack to a target. The guess set is drawn immediately from
  /// `rng` (unless fresh_guess_per_email), one Bernoulli per word in the
  /// order given. `target_body_words` should be the target's *body* words
  /// (attackable_body_words()) — the attacker predicts content, not the
  /// victim's mail headers.
  FocusedAttack(FocusedAttackConfig config,
                std::vector<std::string> target_body_words, util::Rng& rng);

  /// The tokens the attacker guessed (i.e. the payload of every attack
  /// email when fresh_guess_per_email is false).
  const std::vector<std::string>& guessed_words() const { return guessed_; }

  /// Generates `count` attack emails. Each clones the header block of a
  /// random message from `spam_header_pool` (must be non-empty) and carries
  /// the guessed payload as its body.
  std::vector<email::Message> generate(
      const std::vector<const email::Message*>& spam_header_pool,
      std::size_t count, util::Rng& rng) const;

  /// Causative / Availability / Targeted.
  static AttackProperties properties() {
    return {Influence::causative, Violation::availability,
            Specificity::targeted};
  }

  const FocusedAttackConfig& config() const { return config_; }

 private:
  std::vector<std::string> draw_guess(util::Rng& rng) const;

  FocusedAttackConfig config_;
  std::vector<std::string> target_words_;
  std::vector<std::string> guessed_;
};

/// Extracts the plain body words of a message that a focused attacker can
/// guess and embed in its own attack bodies: word tokens only (no header
/// tokens, no skip:/url: pseudo-tokens), each once, sorted by std::string
/// byte order. Interns the body's tokens.
std::vector<std::string> attackable_body_words(
    const email::Message& msg, const spambayes::Tokenizer& tok);

}  // namespace sbx::core
