// sbx/eval/experiments.h
//
// Experiment drivers regenerating every figure and table of the paper's
// evaluation (§4-§5). Each driver owns the full pipeline — corpus sampling,
// cross-validation, attack injection, measurement — and returns plain
// result structs; the registry adapters (builtin_experiments.cpp) pack
// them into ResultDocs for `sbx_experiments run/sweep/figure`. Tests run
// the same drivers at reduced scale.
//
// Determinism: every driver forks all randomness from its config seed, and
// parallelism (folds / repetitions across threads) never changes results.
// All drivers execute through eval::Runner (runner.h), which enforces this:
// per-trial RNG streams are pre-forked from the master stream in program
// order and results are merged in trial order, so thread count affects
// wall-clock time only.
//
// Corpus pools: the dictionary and RONI drivers draw theirs from
// runner.fork(1) through eval::tokenized_pool (corpus_pool.h), and so does
// the threshold experiment, which is the dictionary walk with defense
// variants. Drivers in flight together that sample an equal pool (a sweep
// over the attack axis) share one tokenized pool, built once. Equal keys
// give equal pools, so sharing changes memory and CPU only, never
// results. The other drivers sample their own victim inbox (VictimInbox
// below): they reuse the corpus stream afterwards or need the rendered
// messages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack.h"
#include "core/dictionary_attack.h"
#include "core/dynamic_threshold.h"
#include "core/focused_attack.h"
#include "core/roni.h"
#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "spambayes/filter.h"
#include "util/stats.h"

namespace sbx::eval {

// ---------------------------------------------------------------------------
// Generic poison description — what the Causative drivers consume.
// ---------------------------------------------------------------------------

/// One identical-copy Causative attack, reduced to what the drivers need:
/// the canonical message, the label its copies are trained under, and the
/// optional BadNets trigger the attacker stamps onto its own post-poison
/// spam. Built from a registry attack by eval::resolve_poison
/// (attack_axis.h) or from a core::DictionaryAttack by poison_spec_from.
struct PoisonSpec {
  std::string name;              // display name, e.g. "usenet-90000"
  std::size_t payload_size = 0;  // dictionary/payload words
  email::Message message;        // the canonical attack email
  corpus::TrueLabel train_as = corpus::TrueLabel::spam;
  /// Trigger tokens stamped onto the attacker's future spam (empty for
  /// attacks whose future mail is unmodified). When set, the dictionary
  /// and retraining drivers additionally measure trigger-stamped spam.
  std::vector<std::string> trigger;
};

/// The spec of a dictionary-family attack (spam-labeled, no trigger).
PoisonSpec poison_spec_from(const core::DictionaryAttack& attack);

/// The spec's trigger tokens as the deduplicated id set that stamping
/// them onto a message produces (empty when the attack has no trigger).
/// Single home for the trigger-text tokenization so the dictionary and
/// retraining measurements cannot diverge.
spambayes::TokenIdSet trigger_token_ids(const PoisonSpec& spec,
                                        const spambayes::Tokenizer& tokenizer);

// ---------------------------------------------------------------------------
// Figure 1: dictionary attacks vs. percent control of the training set.
// Figure 5: the dynamic threshold defense on the same walk.
// ---------------------------------------------------------------------------

/// Parameters (defaults = Table 1, large configuration: 10,000-message
/// training set, 50% spam, 10-fold cross-validation).
struct DictionaryCurveConfig {
  std::size_t training_set_size = 10'000;
  double spam_fraction = 0.5;
  /// Attack strength as fraction of the *final* training set; 0 (control)
  /// is always measured and need not be listed.
  std::vector<double> attack_fractions = {0.001, 0.005, 0.01,
                                          0.02,  0.05,  0.10};
  std::size_t folds = 10;
  std::uint64_t seed = 20080401;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;  // 0 = hardware concurrency
  /// Dynamic threshold defense variants measured at every point (Figure
  /// 5; the paper's Threshold-.05 = (0.05, 0.95) and Threshold-.10 =
  /// (0.10, 0.90)). Empty for Figure 1.
  std::vector<core::DynamicThresholdConfig> defense_variants;
};

/// One point of a Figure-1 curve (fold-aggregated).
struct DictionaryCurvePoint {
  double attack_fraction = 0.0;
  std::size_t attack_messages = 0;  // per fold, a = clean*f/(1-f)
  /// Ratio of attack token instances to clean-corpus token instances
  /// (the §4.2 statistic: ~7x for Aspell at 2%).
  double attack_token_ratio = 0.0;
  ConfusionMatrix matrix;
  /// Per-fold ham-misclassification rates — the spread behind the paper's
  /// "variation on our tests was small" remark (§4.1).
  util::RunningStats ham_misclassified_by_fold;
  /// BadNets measurement, filled only when the attack defines trigger
  /// tokens: every test-fold spam message re-classified with the trigger
  /// stamped in (true label spam; "leak" = not filed as spam).
  ConfusionMatrix triggered;
  /// Parallel to config.defense_variants: the test folds' scores under
  /// each variant's thresholds, re-derived per fold and fraction from the
  /// poisoned training set, and those thresholds averaged over folds.
  std::vector<ConfusionMatrix> defended;
  std::vector<core::ThresholdPair> mean_thresholds;
};

/// A full curve for one attack variant. points[0] is the control (no
/// attack).
struct DictionaryCurve {
  std::string attack_name;
  std::size_t dictionary_size = 0;
  bool has_trigger = false;  // whether points[i].triggered is meaningful
  std::vector<DictionaryCurvePoint> points;
};

/// Generic Causative driver: trains `spec.message` copies under
/// `spec.train_as` at each attack fraction. For a spam-labeled spec with
/// no trigger this is bit-identical to the historical dictionary driver,
/// and the defense variants change no field a run without them fills.
DictionaryCurve run_dictionary_curve(const corpus::TrecLikeGenerator& gen,
                                     const PoisonSpec& spec,
                                     const DictionaryCurveConfig& config);

inline DictionaryCurve run_dictionary_curve(
    const corpus::TrecLikeGenerator& gen, const core::DictionaryAttack& attack,
    const DictionaryCurveConfig& config) {
  return run_dictionary_curve(gen, poison_spec_from(attack), config);
}

// ---------------------------------------------------------------------------
// Figures 2 & 3: the focused attack.
// ---------------------------------------------------------------------------

/// Shared focused-attack experiment parameters (Table 1: 5,000-message
/// inbox, 50% spam, 20 targets, 5 repetitions).
struct FocusedConfig {
  std::size_t inbox_size = 5'000;
  double spam_fraction = 0.5;
  std::size_t target_count = 20;
  std::size_t repetitions = 5;
  std::uint64_t seed = 20080402;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;
};

/// Figure 2: post-attack verdict distribution of the targets as a function
/// of the attacker's knowledge p.
struct FocusedKnowledgePoint {
  double guess_probability = 0.0;
  std::size_t targets = 0;      // total (target, repetition) runs
  std::size_t as_ham = 0;       // still delivered
  std::size_t as_unsure = 0;
  std::size_t as_spam = 0;
  std::size_t control_as_ham = 0;  // pre-attack sanity: targets are ham
};

/// Attack-parametric form: `attack` crafts the per-target poison through
/// core::Attack::craft_poison (the CraftContext carries the target, its
/// attacker-guessable body words and the spam header pool). When the
/// attack declares a "guess_probability" parameter it is overridden per
/// point; other attacks run once per listed probability with identical
/// poison (the x-axis degenerates, but indiscriminate attacks remain
/// comparable against the focused curves).
std::vector<FocusedKnowledgePoint> run_focused_knowledge(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params,
    const std::vector<double>& guess_probabilities, std::size_t attack_count,
    const FocusedConfig& config);

/// Historical form: the registry "focused" attack with default params.
std::vector<FocusedKnowledgePoint> run_focused_knowledge(
    const corpus::TrecLikeGenerator& gen,
    const std::vector<double>& guess_probabilities, std::size_t attack_count,
    const FocusedConfig& config);

/// Figure 3: misclassification of the target as a function of attack size
/// (guess probability fixed, paper: p = 0.5).
struct FocusedSizePoint {
  double attack_fraction = 0.0;
  std::size_t attack_messages = 0;
  std::size_t targets = 0;
  std::size_t as_spam = 0;
  std::size_t as_unsure_or_spam = 0;
};

std::vector<FocusedSizePoint> run_focused_size(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params, double guess_probability,
    const std::vector<double>& attack_fractions, const FocusedConfig& config);

/// Historical form: the registry "focused" attack with default params.
std::vector<FocusedSizePoint> run_focused_size(
    const corpus::TrecLikeGenerator& gen, double guess_probability,
    const std::vector<double>& attack_fractions, const FocusedConfig& config);

// ---------------------------------------------------------------------------
// Figure 4: per-token score shift under the focused attack.
// ---------------------------------------------------------------------------

/// One token of the target email before/after the attack.
struct TokenShiftPoint {
  std::string token;
  double score_before = 0.5;  // f(w), Eq. 2
  double score_after = 0.5;
  bool in_attack = false;  // did the attacker guess this token?
};

/// One representative target email (the paper shows three: post-attack
/// spam, unsure, and ham).
struct TokenShiftExample {
  spambayes::Verdict verdict_after = spambayes::Verdict::unsure;
  double message_score_before = 0.0;
  double message_score_after = 0.0;
  std::vector<TokenShiftPoint> tokens;
};

/// Runs focused attacks on fresh targets until one example of each
/// requested post-attack verdict is found (or `max_targets` tried).
std::vector<TokenShiftExample> run_token_shift(
    const corpus::TrecLikeGenerator& gen, double guess_probability,
    std::size_t attack_count, const FocusedConfig& config,
    std::size_t max_targets = 60);

// ---------------------------------------------------------------------------
// §5.1: the RONI defense.
// ---------------------------------------------------------------------------

/// Parameters (defaults = §5.1: 120 non-attack spam queries, 15 repetitions
/// of each dictionary-attack variant, T=20/V=50/5 resamples inside RONI).
struct RoniExperimentConfig {
  core::RoniConfig roni;
  std::size_t pool_size = 1'000;  // clean pool RONI samples (T, V) from
  double spam_fraction = 0.5;
  std::size_t nonattack_queries = 120;
  std::size_t attack_repetitions = 15;
  std::uint64_t seed = 20080403;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;
};

/// Aggregated assessment outcomes for one query class.
struct RoniVariantResult {
  std::string name;
  util::RunningStats impact;  // ham-as-ham decrease per assessment
  std::size_t assessed = 0;
  std::size_t rejected = 0;

  double rejection_rate() const {
    return assessed == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(assessed);
  }
};

struct RoniExperimentResult {
  RoniVariantResult nonattack_spam;  // rejections here are false positives
  std::vector<RoniVariantResult> attack_variants;
};

/// One named attack query RONI assesses `attack_repetitions` times.
struct RoniQuery {
  std::string name;
  email::Message message;
};

RoniExperimentResult run_roni_experiment(const corpus::TrecLikeGenerator& gen,
                                         const std::vector<RoniQuery>& queries,
                                         const RoniExperimentConfig& config);

/// Historical form over dictionary-attack variants.
RoniExperimentResult run_roni_experiment(
    const corpus::TrecLikeGenerator& gen,
    const std::vector<const core::DictionaryAttack*>& attacks,
    const RoniExperimentConfig& config);

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Trains a filter on the given items of a tokenized dataset.
void train_on_indices(spambayes::Filter& filter,
                      const corpus::TokenizedDataset& data,
                      const std::vector<std::size_t>& indices);

/// Classifies the given items and accumulates a confusion matrix.
ConfusionMatrix classify_indices(const spambayes::Filter& filter,
                                 const corpus::TokenizedDataset& data,
                                 const std::vector<std::size_t>& indices);

/// A victim's clean training inbox and the filter trained on it, shared by
/// the focused drivers and the good-word, ham-labeled and focused-guessing
/// experiments. Draws from `rng` only through sample_mailbox. Not
/// copyable: spam_headers points into inbox.
struct VictimInbox {
  corpus::Dataset inbox;
  corpus::TokenizedDataset tokenized;
  spambayes::Filter filter;
  /// The inbox's spam, whose headers attack emails clone (empty when the
  /// inbox holds no spam; the focused attack then refuses to craft).
  std::vector<const email::Message*> spam_headers;

  VictimInbox(const corpus::TrecLikeGenerator& gen, std::size_t size,
              double spam_fraction,
              const spambayes::FilterOptions& filter_options, util::Rng& rng);
  VictimInbox(const VictimInbox&) = delete;
  VictimInbox& operator=(const VictimInbox&) = delete;
};

}  // namespace sbx::eval
