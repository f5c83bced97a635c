// sbx/core/attack.h
//
// The unified attack API. The paper's whole framing (§3.1) is that
// dictionary, focused, good-word, ham-labeled and informed attacks are
// *points in one attack space* — the Barreno-Nelson taxonomy — yet until
// this interface each was an unrelated class with its own constructor
// shape and hand-written experiment plumbing. core::Attack makes the
// attack a first-class, registry-resolvable axis:
//
//  * name() / properties() / schema(): registry key, taxonomy coordinates
//    and a typed parameter schema (util::ConfigSchema — the same machinery
//    the experiment registry uses), so `sbx_experiments attacks
//    list/describe` and the sweep CLI can treat attacks like experiments;
//  * craft_poison(): the Causative half — produce attack emails the
//    victim will (mis)train on (dictionary / focused / ham-labeled /
//    informed / backdoor);
//  * evade(): the Exploratory half — transform one message until a fixed
//    filter stops catching it (good-word padding, character obfuscation).
//
// Existing attack classes stay as the implementation; registry entries
// are thin adapters that construct them from a validated util::Config
// (attack_registry.h). Experiments resolve `attack=<registry-name>`
// through the registry instead of hard-coding a class, which is what lets
// one sweep cross attacks against training sizes/thresholds/defenses with
// zero new driver code.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "email/message.h"
#include "spambayes/filter.h"
#include "spambayes/tokenizer.h"
#include "util/config.h"
#include "util/random.h"

namespace sbx::core {

/// Inputs to the Causative hook. `params` is a Config over the attack's
/// own schema (attack_registry.h resolves it); `rng` feeds every random
/// choice the attack makes — crafting is deterministic in (params, rng
/// state, context). Targeted attacks additionally receive the target
/// message, its attacker-guessable body words, and the pool of real spam
/// whose headers attack emails clone (§4.1); indiscriminate attacks
/// ignore those fields.
struct CraftContext {
  const corpus::TrecLikeGenerator& generator;
  const util::Config& params;
  util::Rng& rng;
  /// How many attack emails to craft.
  std::size_t count = 1;

  // --- Targeted (focused-style) attacks only ---
  const email::Message* target = nullptr;
  const std::vector<std::string>* target_tokens = nullptr;
  const std::vector<const email::Message*>* spam_header_pool = nullptr;
};

/// Inputs to the Exploratory hook: the fixed victim filter the attacker
/// can query (Lowd-Meek membership-query model), the verdict it wants at
/// most (`goal`), and a per-message modification budget.
struct EvadeContext {
  const corpus::TrecLikeGenerator& generator;
  const util::Config& params;
  const spambayes::Filter& filter;
  std::size_t max_words = 1000;  // words added/mangled at most
  spambayes::Verdict goal = spambayes::Verdict::unsure;
};

/// Outcome of one evasion attempt.
struct EvadeResult {
  email::Message message;    // the (possibly modified) spam
  std::size_t words_added = 0;  // words appended or mangled
  std::size_t queries = 0;      // filter queries spent
  double score_before = 1.0;
  double score_after = 1.0;
  bool evaded = false;  // reached the goal verdict
};

/// A Causative attack whose poison is `count` identical copies of ONE
/// canonical message (the dictionary family, ham-labeled, backdoor).
/// Experiments exploit this: tokenize once, train copies — the batching
/// the drivers have always used for dictionary attacks.
struct CanonicalPoison {
  email::Message message;
  /// The label the attacker gets its poison trained under: spam for the
  /// §2.2 contamination model (attack mail lands in the spam folder),
  /// ham for the inbox-poisoning extensions (ham-labeled, backdoor).
  corpus::TrueLabel train_as = corpus::TrueLabel::spam;
  /// Display name for experiment tables, e.g. "usenet-90000".
  std::string display_name;
  /// Payload words carried (the "dict words" table column).
  std::size_t payload_size = 0;
};

/// One registry-resolvable attack.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Registry key, e.g. "backdoor-trigger" (lowercase, '-'-separated).
  virtual std::string name() const = 0;

  /// One-line summary for `sbx_experiments attacks list`.
  virtual std::string description() const = 0;

  /// Paper section (or related-work citation) this attack realizes.
  virtual std::string paper_ref() const = 0;

  /// Barreno-Nelson taxonomy coordinates (§3.1).
  virtual AttackProperties properties() const = 0;

  /// The attack's parameter schema (defaults = the paper's evaluated
  /// configuration). Experiments forward same-named config keys into it.
  virtual const util::ConfigSchema& schema() const = 0;

  /// True when this attack implements the Causative hook. Defaults to the
  /// taxonomy's Influence axis — the contract test enforces coherence.
  virtual bool crafts_poison() const {
    return properties().influence == Influence::causative;
  }

  /// True when this attack implements the Exploratory hook.
  virtual bool evades() const {
    return properties().influence == Influence::exploratory;
  }

  /// Causative hook: crafts `ctx.count` poison emails. The default
  /// implementation replicates canonical_poison() (identical-copy
  /// attacks); attacks whose emails differ (focused) override it. Throws
  /// sbx::InvalidArgument when the attack is Exploratory-only.
  virtual std::vector<email::Message> craft_poison(CraftContext& ctx) const;

  /// The canonical single-message form for identical-copy Causative
  /// attacks; nullopt when each poison email differs (focused) or the
  /// attack crafts none (good-word, obfuscation). `rng` feeds attacks
  /// whose canonical message has random parts (ham-labeled clones a
  /// random ham header block); the dictionary family never touches it.
  virtual std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng& rng) const;

  /// The label craft_poison() output should be trained under (see
  /// CanonicalPoison::train_as). Identical-copy attacks default to their
  /// canonical form's label via the base implementation in attack.cpp.
  virtual corpus::TrueLabel poison_label() const {
    return corpus::TrueLabel::spam;
  }

  /// Tokens the attacker stamps onto its own post-poison mail (the
  /// BadNets trigger): after the Causative phase succeeds, the attacker
  /// sends spam carrying these tokens, and experiments measure how much
  /// of it leaks past the filter. Empty for attacks whose future mail is
  /// unmodified.
  virtual std::vector<std::string> trigger_tokens(
      const util::Config& params) const {
    (void)params;
    return {};
  }

  /// Exploratory hook: modifies `message` until ctx.goal is reached or
  /// the budget runs out. Throws sbx::InvalidArgument when the attack is
  /// Causative-only.
  virtual EvadeResult evade(EvadeContext& ctx,
                            const email::Message& message) const;

  /// A config holding this attack's schema defaults.
  util::Config default_params() const { return util::Config(&schema()); }
};

}  // namespace sbx::core
