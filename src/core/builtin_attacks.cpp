// Built-in core::Attack registry entries: one adapter per attack. The
// five pre-existing attack classes (dictionary family, focused, good-word,
// ham-labeled, informed) stay as the implementation — adapters construct
// them from a validated util::Config, preserving the exact messages and
// RNG consumption the experiment drivers have always produced — plus the
// two attacks landed as registry entries only:
//
//  * backdoor-trigger — BadNets-style data poisoning (Roychoudhury &
//    Veldanda, arXiv:2307.09649): train a rare trigger-token pattern as
//    ham, then stamp future spam with the trigger so it leaks past the
//    filter. Causative / Integrity / Targeted — the taxonomy quadrant the
//    paper's own attacks barely cover.
//  * obfuscation — Hotoğlu et al.'s character-level attack family
//    (arXiv:2505.03831): mangle the spammiest words of one message
//    (leet substitutions / inserted punctuation) until the fixed filter
//    no longer recognizes them. Exploratory / Integrity / Targeted — an
//    evasion baseline to contrast the Causative attacks against.
#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/good_word_attack.h"
#include "core/ham_labeled_attack.h"
#include "core/informed_attack.h"
#include "email/builder.h"
#include "spambayes/classifier.h"
#include "spambayes/scoring_math.h"
#include "util/error.h"

namespace sbx::core {
namespace {

using util::ParamType;

/// Shared base: name/description/paper_ref/properties plus an owned schema.
class AttackBase : public Attack {
 public:
  AttackBase(std::string name, std::string description, std::string paper_ref,
             AttackProperties properties)
      : name_(std::move(name)),
        description_(std::move(description)),
        paper_ref_(std::move(paper_ref)),
        properties_(properties) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::string paper_ref() const override { return paper_ref_; }
  AttackProperties properties() const override { return properties_; }
  const util::ConfigSchema& schema() const override { return schema_; }

 protected:
  util::ConfigSchema schema_;

 private:
  std::string name_;
  std::string description_;
  std::string paper_ref_;
  AttackProperties properties_;
};

CanonicalPoison from_dictionary(const DictionaryAttack& attack) {
  CanonicalPoison poison;
  poison.message = attack.attack_message();
  poison.train_as = corpus::TrueLabel::spam;
  poison.display_name = attack.name();
  poison.payload_size = attack.dictionary_size();
  return poison;
}

// ---------------------------------------------------------------------------
// The dictionary family (§3.2, §3.4): aspell / usenet / optimal / informed.
// ---------------------------------------------------------------------------

class AspellAttack : public AttackBase {
 public:
  AspellAttack()
      : AttackBase("aspell",
                   "spam-labeled email carrying a full formal dictionary",
                   "Section 3.2 + Figure 1 of Nelson et al. 2008",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "truncate to the first N dictionary words (0 = full)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    const auto top_n =
        static_cast<std::size_t>(params.get_uint("dictionary_size"));
    return from_dictionary(
        top_n == 0
            ? DictionaryAttack::aspell(generator.lexicons())
            : DictionaryAttack::aspell_truncated(generator.lexicons(), top_n));
  }
};

class UsenetAttack : public AttackBase {
 public:
  UsenetAttack()
      : AttackBase("usenet",
                   "spam-labeled email carrying the top-N Usenet-ranked words",
                   "Section 3.2 + Figure 1 of Nelson et al. 2008",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "take the top N ranked words (0 = the paper's 90,000)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    const auto top_n =
        static_cast<std::size_t>(params.get_uint("dictionary_size"));
    return from_dictionary(
        top_n == 0 ? DictionaryAttack::usenet(generator.lexicons())
                   : DictionaryAttack::usenet(generator.lexicons(), top_n));
  }
};

class OptimalAttack : public AttackBase {
 public:
  OptimalAttack()
      : AttackBase(
            "optimal",
            "every token the victim's email distribution can produce",
            "Section 3.4 of Nelson et al. 2008 (information-theoretic bound)",
            DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "must stay 0: the optimal attack is the full vocabulary");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    if (params.get_uint("dictionary_size") != 0) {
      throw InvalidArgument(
          "dictionary_size does not apply to the optimal attack (it always "
          "uses the full emittable vocabulary); leave it 0");
    }
    return from_dictionary(DictionaryAttack::optimal(generator));
  }
};

class InformedAttack : public AttackBase {
 public:
  InformedAttack()
      : AttackBase("informed",
                   "optimal budget-constrained attack: the most probable "
                   "victim ham words",
                   "Section 3.4 'optimal constrained attack' (future work)",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "word budget: the N most probable ham words (0 = the whole "
                "distribution support)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    auto distribution = generator.ham_word_distribution();
    auto budget = static_cast<std::size_t>(params.get_uint("dictionary_size"));
    if (budget == 0) budget = distribution.size();
    return from_dictionary(make_informed_attack(std::move(distribution),
                                                budget));
  }
};

// ---------------------------------------------------------------------------
// focused (§3.3): targeted poisoning of one known future email.
// ---------------------------------------------------------------------------

class FocusedAttackAdapter : public AttackBase {
 public:
  FocusedAttackAdapter()
      : AttackBase("focused",
                   "spam carrying guessed tokens of one target email",
                   "Section 3.3 + Figures 2-4 of Nelson et al. 2008",
                   FocusedAttack::properties()) {
    schema_
        .add("guess_probability", ParamType::kDouble, "0.5",
             "probability of correctly guessing each target token")
        .add("extra_words", ParamType::kUInt, "0",
             "filler words appended from the attacker's own vocabulary")
        .add("fresh_guess_per_email", ParamType::kBool, "false",
             "redraw the guess set per email (ablation; the paper's model "
             "fixes one guess set per attack)");
  }

  std::vector<email::Message> craft_poison(CraftContext& ctx) const override {
    if (ctx.target_tokens == nullptr || ctx.spam_header_pool == nullptr) {
      throw InvalidArgument(
          "attack 'focused' is targeted: craft_poison needs target_tokens "
          "and spam_header_pool in the CraftContext (only the focused "
          "experiments provide them)");
    }
    if (ctx.spam_header_pool->empty()) {
      throw InvalidArgument(
          "attack 'focused' clones the headers of the victim inbox's spam, "
          "and the inbox holds none (raise spam_fraction)");
    }
    FocusedAttackConfig config;
    config.guess_probability = ctx.params.get_double("guess_probability");
    config.extra_words =
        static_cast<std::size_t>(ctx.params.get_uint("extra_words"));
    config.fresh_guess_per_email =
        ctx.params.get_bool("fresh_guess_per_email");
    const FocusedAttack attack(config, *ctx.target_tokens, ctx.rng);
    return attack.generate(*ctx.spam_header_pool, ctx.count, ctx.rng);
  }
};

// ---------------------------------------------------------------------------
// ham-labeled (§2.2 remark): whitewash the attacker's campaign vocabulary.
// ---------------------------------------------------------------------------

class HamLabeledAttackAdapter : public AttackBase {
 public:
  HamLabeledAttackAdapter()
      : AttackBase("ham-labeled",
                   "ham-trained email whitening a spam campaign vocabulary",
                   "Section 2.2 remark (more powerful attacks)",
                   HamLabeledAttack::properties()) {}

  corpus::TrueLabel poison_label() const override {
    return corpus::TrueLabel::ham;
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config&,
      util::Rng& rng) const override {
    // The attacker's payload: its own campaign vocabulary (the generator's
    // spam word list plus the obfuscated junk tokens). Headers clone a
    // real ham message so the email passes as legitimate.
    std::vector<std::string> payload = generator.spam_vocab_words();
    const auto& junk = generator.spam_junk_words();
    payload.insert(payload.end(), junk.begin(), junk.end());
    const email::Message donor = generator.generate_ham(rng);
    const HamLabeledAttack attack(std::move(payload), donor.headers());
    CanonicalPoison poison;
    poison.message = attack.attack_message();
    poison.train_as = corpus::TrueLabel::ham;
    poison.display_name = "ham-labeled";
    poison.payload_size = attack.payload_size();
    return poison;
  }
};

// ---------------------------------------------------------------------------
// good-word (§3.1/§6 contrast): Lowd-Meek / Wittel-Wu evasion.
// ---------------------------------------------------------------------------

class GoodWordAttackAdapter : public AttackBase {
 public:
  GoodWordAttackAdapter()
      : AttackBase("good-word",
                   "pad one spam with common hammy words until it passes",
                   "Sections 3.1 + 6 (Lowd-Meek / Wittel-Wu contrast)",
                   GoodWordAttack::properties()) {
    schema_
        .add("common_words", ParamType::kUInt, "2000",
             "how many top ham-core words the evader pads with")
        .add("batch_size", ParamType::kUInt, "10",
             "words appended between filter queries");
  }

  EvadeResult evade(EvadeContext& ctx,
                    const email::Message& message) const override {
    const auto& core_words = ctx.generator.ham_core_words();
    const std::size_t word_count = std::min<std::size_t>(
        core_words.size(),
        static_cast<std::size_t>(ctx.params.get_uint("common_words")));
    std::vector<std::string> candidates(core_words.begin(),
                                        core_words.begin() + word_count);
    const GoodWordAttack evader(
        std::move(candidates),
        static_cast<std::size_t>(ctx.params.get_uint("batch_size")));
    GoodWordAttack::Result r =
        evader.evade(ctx.filter, message, ctx.max_words, ctx.goal);
    EvadeResult result;
    result.message = std::move(r.message);
    result.words_added = r.words_added;
    result.queries = r.queries;
    result.score_before = r.score_before;
    result.score_after = r.score_after;
    result.evaded = r.evaded;
    return result;
  }
};

// ---------------------------------------------------------------------------
// backdoor-trigger (NEW): BadNets-style ham-labeled trigger poisoning.
// ---------------------------------------------------------------------------

/// Deterministic rare trigger tokens: "xq" + random lowercase letters.
/// The prefix keeps them out of every lexicon the generator emits from, so
/// the only training evidence they ever acquire is the attacker's poison.
std::vector<std::string> make_trigger(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed ^ 0x6261646e65747321ULL);  // "badnets!"
  std::vector<std::string> trigger;
  trigger.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string token = "xq";
    for (int c = 0; c < 6; ++c) {
      token.push_back(
          static_cast<char>('a' + static_cast<char>(rng.index(26))));
    }
    trigger.push_back(std::move(token));
  }
  return trigger;
}

class BackdoorTriggerAttack : public AttackBase {
 public:
  BackdoorTriggerAttack()
      : AttackBase("backdoor-trigger",
                   "ham-trained rare trigger pattern; trigger-stamped spam "
                   "then leaks through",
                   "BadNets-style poisoning (Roychoudhury & Veldanda, "
                   "arXiv:2307.09649)",
                   AttackProperties{Influence::causative, Violation::integrity,
                                    Specificity::targeted}) {
    schema_
        .add("trigger_length", ParamType::kUInt, "8",
             "trigger tokens per poison email (and per stamped spam)")
        .add("trigger_seed", ParamType::kUInt, "42",
             "seed deriving the rare trigger-token spellings")
        .add("carrier_words", ParamType::kUInt, "120",
             "innocuous ham-core words padding the poison email so it "
             "passes as ordinary mail");
  }

  corpus::TrueLabel poison_label() const override {
    return corpus::TrueLabel::ham;
  }

  std::vector<std::string> trigger_tokens(
      const util::Config& params) const override {
    const std::size_t length =
        static_cast<std::size_t>(params.get_uint("trigger_length"));
    if (length == 0) {
      throw InvalidArgument("backdoor-trigger: trigger_length must be > 0");
    }
    return make_trigger(params.get_uint("trigger_seed"), length);
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng& rng) const override {
    std::vector<std::string> words = trigger_tokens(params);
    const std::size_t payload = words.size();
    const auto& core_words = generator.ham_core_words();
    const std::size_t carrier = std::min<std::size_t>(
        core_words.size(),
        static_cast<std::size_t>(params.get_uint("carrier_words")));
    words.insert(words.end(), core_words.begin(), core_words.begin() + carrier);
    // Headers clone a real ham message: the poison's premise is that it
    // passes the victim's (auto-)labeling as legitimate mail.
    const email::Message donor = generator.generate_ham(rng);
    email::MessageBuilder builder;
    for (const auto& field : donor.headers()) {
      builder.header(field.name, field.value);
    }
    CanonicalPoison poison;
    poison.message = builder.body_from_words(words).build();
    poison.train_as = corpus::TrueLabel::ham;
    poison.display_name = "backdoor-trigger";
    poison.payload_size = payload;
    return poison;
  }
};

// ---------------------------------------------------------------------------
// obfuscation (NEW): character-level mangling of the spammiest words.
// ---------------------------------------------------------------------------

using spambayes::verdict_at_most;

/// Character-level mangling: leet substitutions where possible, an
/// inserted '.' otherwise. Either way the result is a token the filter
/// has never trained on, so the word's spam evidence drops to the
/// unknown-word prior.
std::string mangle_word(const std::string& word, bool leet) {
  std::string out = word;
  bool changed = false;
  if (leet) {
    for (char& c : out) {
      switch (std::tolower(static_cast<unsigned char>(c))) {
        case 'a': c = '@'; changed = true; break;
        case 'e': c = '3'; changed = true; break;
        case 'i': c = '1'; changed = true; break;
        case 'o': c = '0'; changed = true; break;
        case 's': c = '$'; changed = true; break;
        default: break;
      }
    }
  }
  if (!changed && out.size() >= 2) {
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(out.size() / 2), '.');
  }
  return out;
}

class ObfuscationAttack : public AttackBase {
 public:
  ObfuscationAttack()
      : AttackBase("obfuscation",
                   "mangle the spammiest words character-by-character until "
                   "the filter misses them",
                   "character-level attack family of Hotoğlu et al. "
                   "(arXiv:2505.03831)",
                   AttackProperties{Influence::exploratory,
                                    Violation::integrity,
                                    Specificity::targeted}) {
    schema_
        .add("mangle_per_query", ParamType::kUInt, "5",
             "words mangled between filter queries")
        .add("leet", ParamType::kBool, "true",
             "use leet substitutions (a->@, e->3, ...); false inserts "
             "punctuation instead");
  }

  EvadeResult evade(EvadeContext& ctx,
                    const email::Message& message) const override {
    EvadeResult result;
    result.message = message;

    const spambayes::ScoreIdResult initial = ctx.filter.classify(message);
    result.queries = 1;
    result.score_before = initial.score;
    result.score_after = initial.score;
    if (verdict_at_most(initial.verdict, ctx.goal)) {
      result.evaded = true;
      return result;
    }

    // Split the body into whitespace-separated chunks, remembering the
    // separators so the mangled body keeps the original layout. Chunks
    // alternate separator (even index, possibly empty first) and word
    // (odd index).
    const std::string& body = message.body();
    std::vector<std::string> chunks;
    chunks.emplace_back();
    bool in_word = false;
    for (char c : body) {
      const bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
      if (space == in_word) {
        chunks.emplace_back();
        in_word = !space;
      }
      chunks.back().push_back(c);
    }

    // Rank word chunks by the filter's own per-token spam score,
    // spammiest first; ties break on position for determinism.
    const spambayes::Classifier& classifier = ctx.filter.classifier();
    const spambayes::TokenDatabase& db = ctx.filter.database();
    struct Candidate {
      std::size_t chunk;
      double score;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 1; i < chunks.size(); i += 2) {
      // Look up the spelling the filter actually trained on: the
      // tokenizer strips surrounding punctuation and lowercases, so
      // 'Viagra.' must rank by the score of token 'viagra', not by the
      // unknown-word prior of the raw chunk.
      const std::string_view word = spambayes::strip_punct(chunks[i]);
      if (word.size() < 3) continue;  // below the token-length floor
      std::string lowered(word);
      for (char& c : lowered) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      // find(), never intern(): ranking must not grow the interner. A
      // spelling it lacks has zero counts in every database.
      const auto id = spambayes::global_interner().find(lowered);
      const spambayes::TokenCounts counts =
          id ? db.counts(*id) : spambayes::TokenCounts{};
      candidates.push_back(
          {i, spambayes::detail::score_from_counts(
                  counts, db.spam_count(), db.ham_count(),
                  classifier.options())});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });

    const bool leet = ctx.params.get_bool("leet");
    const std::size_t per_query = std::max<std::size_t>(
        1, static_cast<std::size_t>(ctx.params.get_uint("mangle_per_query")));
    const std::size_t limit = std::min(ctx.max_words, candidates.size());
    std::size_t next = 0;
    while (result.words_added < limit) {
      const std::size_t batch =
          std::min(per_query, limit - result.words_added);
      for (std::size_t i = 0; i < batch; ++i) {
        std::string& word = chunks[candidates[next++].chunk];
        word = mangle_word(word, leet);
      }
      result.words_added += batch;
      std::string mangled;
      mangled.reserve(body.size() + result.words_added);
      for (const auto& chunk : chunks) mangled += chunk;
      result.message.set_body(std::move(mangled));
      const spambayes::ScoreIdResult r = ctx.filter.classify(result.message);
      result.queries += 1;
      result.score_after = r.score;
      if (verdict_at_most(r.verdict, ctx.goal)) {
        result.evaded = true;
        return result;
      }
    }
    return result;
  }
};

}  // namespace

void register_builtin_attacks(AttackRegistry& registry) {
  registry.add(std::make_unique<AspellAttack>());
  registry.add(std::make_unique<UsenetAttack>());
  registry.add(std::make_unique<OptimalAttack>());
  registry.add(std::make_unique<InformedAttack>());
  registry.add(std::make_unique<FocusedAttackAdapter>());
  registry.add(std::make_unique<HamLabeledAttackAdapter>());
  registry.add(std::make_unique<GoodWordAttackAdapter>());
  registry.add(std::make_unique<BackdoorTriggerAttack>());
  registry.add(std::make_unique<ObfuscationAttack>());
}

}  // namespace sbx::core
