// Bitwise equivalence of the ported attack adapters: each of the five
// pre-existing attack classes (dictionary family incl. informed, focused,
// good-word, ham-labeled) must produce byte-identical messages — and the
// attack-parametric experiment drivers bit-identical numbers — through the
// registry as through the original direct-construction path. Same pattern
// as spambayes/interned_equivalence_test: the pre-port construction runs
// verbatim next to the adapter and every byte/bit is compared.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/good_word_attack.h"
#include "core/ham_labeled_attack.h"
#include "core/informed_attack.h"
#include "eval/attack_axis.h"
#include "eval/experiments.h"
#include "eval/registry.h"
#include "spambayes/filter.h"
#include "util/error.h"

namespace sbx::eval {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator* g = new corpus::TrecLikeGenerator();
  return *g;
}

std::string flatten(const email::Message& m) {
  std::string out;
  for (const auto& field : m.headers()) {
    out += field.name;
    out += ": ";
    out += field.value;
    out += "\n";
  }
  out += "\n";
  out += m.body();
  return out;
}

/// Registry canonical poison under `overrides`, crafted with Rng(seed).
PoisonSpec registry_poison(const std::string& attack_name,
                           const std::vector<std::pair<std::string,
                                                       std::string>>& overrides,
                           std::uint64_t seed) {
  const core::Attack& attack =
      core::builtin_attack_registry().get(attack_name);
  util::Config params = attack.default_params();
  for (const auto& [key, value] : overrides) params.set(key, value);
  BoundAttack bound{&attack, std::move(params)};
  util::Rng rng(seed);
  return resolve_poison(bound, generator(), rng);
}

void expect_same_poison(const PoisonSpec& ported,
                        const core::DictionaryAttack& direct) {
  const PoisonSpec pre = poison_spec_from(direct);
  EXPECT_EQ(ported.name, pre.name);
  EXPECT_EQ(ported.payload_size, pre.payload_size);
  EXPECT_EQ(ported.train_as, pre.train_as);
  EXPECT_TRUE(ported.trigger.empty());
  EXPECT_EQ(flatten(ported.message), flatten(pre.message));
}

TEST(AttackEquivalence, DictionaryFamilyCanonicalMessages) {
  const auto& lexicons = generator().lexicons();
  expect_same_poison(registry_poison("usenet", {}, 1),
                     core::DictionaryAttack::usenet(lexicons));
  expect_same_poison(
      registry_poison("usenet", {{"dictionary_size", "25000"}}, 1),
      core::DictionaryAttack::usenet(lexicons, 25'000));
  expect_same_poison(registry_poison("aspell", {}, 1),
                     core::DictionaryAttack::aspell(lexicons));
  expect_same_poison(
      registry_poison("aspell", {{"dictionary_size", "10000"}}, 1),
      core::DictionaryAttack::aspell_truncated(lexicons, 10'000));
  expect_same_poison(registry_poison("optimal", {}, 1),
                     core::DictionaryAttack::optimal(generator()));
  expect_same_poison(
      registry_poison("informed", {{"dictionary_size", "5000"}}, 1),
      core::make_informed_attack(generator().ham_word_distribution(), 5'000));
}

TEST(AttackEquivalence, OptimalRejectsTruncation) {
  EXPECT_THROW(registry_poison("optimal", {{"dictionary_size", "100"}}, 1),
               InvalidArgument);
}

TEST(AttackEquivalence, HamLabeledCanonicalMessage) {
  // Pre-port construction, verbatim from the old ham-labeled experiment.
  util::Rng pre_rng(77);
  std::vector<std::string> payload = generator().spam_vocab_words();
  const auto& junk = generator().spam_junk_words();
  payload.insert(payload.end(), junk.begin(), junk.end());
  const email::Message donor = generator().generate_ham(pre_rng);
  const core::HamLabeledAttack direct(payload, donor.headers());

  const PoisonSpec ported = registry_poison("ham-labeled", {}, 77);
  EXPECT_EQ(ported.train_as, corpus::TrueLabel::ham);
  EXPECT_EQ(ported.payload_size, direct.payload_size());
  EXPECT_EQ(flatten(ported.message), flatten(direct.attack_message()));
}

TEST(AttackEquivalence, FocusedCraftedMessages) {
  const spambayes::Tokenizer tokenizer;
  util::Rng setup_rng(3);
  const email::Message target = generator().generate_ham(setup_rng);
  const std::vector<std::string> body_words =
      core::attackable_body_words(target, tokenizer);
  const email::Message spam_a = generator().generate_spam(setup_rng);
  const email::Message spam_b = generator().generate_spam(setup_rng);
  const std::vector<const email::Message*> header_pool = {&spam_a, &spam_b};

  // Pre-port construction, verbatim from the old focused driver.
  core::FocusedAttackConfig config;
  config.guess_probability = 0.3;
  util::Rng pre_rng(11);
  const core::FocusedAttack direct(config, body_words, pre_rng);
  const std::vector<email::Message> pre =
      direct.generate(header_pool, 5, pre_rng);

  // The adapter, from the identically-seeded rng.
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  util::Config params = attack.default_params();
  params.set("guess_probability", "0.3");
  util::Rng rng(11);
  core::CraftContext ctx{generator(), params, rng, 5, &target, &body_words,
                         &header_pool};
  const std::vector<email::Message> ported = attack.craft_poison(ctx);

  ASSERT_EQ(ported.size(), pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    EXPECT_EQ(flatten(ported[i]), flatten(pre[i])) << "message " << i;
  }
}

TEST(AttackEquivalence, FocusedWithoutTargetContextThrows) {
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  const util::Config params = attack.default_params();
  util::Rng rng(1);
  core::CraftContext ctx{generator(), params, rng, 1, nullptr, nullptr,
                         nullptr};
  EXPECT_THROW(attack.craft_poison(ctx), InvalidArgument);
}

TEST(AttackEquivalence, GoodWordEvadeResult) {
  spambayes::Filter filter;
  util::Rng train_rng(21);
  for (int i = 0; i < 100; ++i) {
    filter.train_spam(generator().generate_spam(train_rng));
    filter.train_ham(generator().generate_ham(train_rng));
  }
  const email::Message spam = generator().generate_spam(train_rng);

  // Pre-port construction, verbatim from the old good-word experiment.
  const auto& core_words = generator().ham_core_words();
  const std::size_t word_count = std::min<std::size_t>(core_words.size(), 500);
  std::vector<std::string> candidates(core_words.begin(),
                                      core_words.begin() + word_count);
  const core::GoodWordAttack direct(candidates, 10);
  const core::GoodWordAttack::Result pre =
      direct.evade(filter, spam, 400, spambayes::Verdict::unsure);

  const core::Attack& attack =
      core::builtin_attack_registry().get("good-word");
  util::Config params = attack.default_params();
  params.set("common_words", "500");
  core::EvadeContext ctx{generator(), params, filter, 400,
                         spambayes::Verdict::unsure};
  const core::EvadeResult ported = attack.evade(ctx, spam);

  EXPECT_EQ(flatten(ported.message), flatten(pre.message));
  EXPECT_EQ(ported.words_added, pre.words_added);
  EXPECT_EQ(ported.queries, pre.queries);
  EXPECT_EQ(ported.score_before, pre.score_before);  // bit-identical doubles
  EXPECT_EQ(ported.score_after, pre.score_after);
  EXPECT_EQ(ported.evaded, pre.evaded);
}

// ---------------------------------------------------------------------------
// Experiment-level equivalence: the attack-parametric drivers reproduce the
// pre-port numbers bit-for-bit when handed the ported adapters.
// ---------------------------------------------------------------------------

void expect_same_matrix(const ConfusionMatrix& a, const ConfusionMatrix& b) {
  for (corpus::TrueLabel truth :
       {corpus::TrueLabel::ham, corpus::TrueLabel::spam}) {
    for (spambayes::Verdict verdict :
         {spambayes::Verdict::ham, spambayes::Verdict::unsure,
          spambayes::Verdict::spam}) {
      EXPECT_EQ(a.count(truth, verdict), b.count(truth, verdict));
    }
  }
}

TEST(AttackEquivalence, DictionaryCurveThroughRegistry) {
  DictionaryCurveConfig config;
  config.training_set_size = 400;
  config.folds = 2;
  config.attack_fractions = {0.02};

  // Pre-port path: the direct DictionaryAttack overload.
  const DictionaryCurve pre = run_dictionary_curve(
      generator(),
      core::DictionaryAttack::usenet(generator().lexicons(), 2'000), config);
  // Ported path: the same attack resolved through the registry.
  const DictionaryCurve ported = run_dictionary_curve(
      generator(),
      registry_poison("usenet", {{"dictionary_size", "2000"}}, 1), config);

  EXPECT_EQ(ported.attack_name, pre.attack_name);
  EXPECT_EQ(ported.dictionary_size, pre.dictionary_size);
  ASSERT_EQ(ported.points.size(), pre.points.size());
  for (std::size_t i = 0; i < pre.points.size(); ++i) {
    expect_same_matrix(ported.points[i].matrix, pre.points[i].matrix);
    EXPECT_EQ(ported.points[i].attack_messages, pre.points[i].attack_messages);
    EXPECT_EQ(ported.points[i].attack_token_ratio,
              pre.points[i].attack_token_ratio);  // bit-identical
    EXPECT_EQ(ported.points[i].ham_misclassified_by_fold.mean(),
              pre.points[i].ham_misclassified_by_fold.mean());
    EXPECT_EQ(ported.points[i].ham_misclassified_by_fold.stddev(),
              pre.points[i].ham_misclassified_by_fold.stddev());
  }
}

TEST(AttackEquivalence, ThresholdCurveThroughRegistry) {
  DictionaryCurveConfig config;
  config.training_set_size = 400;
  config.folds = 2;
  config.attack_fractions = {0.02};
  config.defense_variants = {{0.1, 0.9}};

  const auto pre =
      run_dictionary_curve(
          generator(),
          core::DictionaryAttack::usenet(generator().lexicons(), 2'000),
          config)
          .points;
  const auto ported =
      run_dictionary_curve(
          generator(),
          registry_poison("usenet", {{"dictionary_size", "2000"}}, 1), config)
          .points;

  ASSERT_EQ(ported.size(), pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    expect_same_matrix(ported[i].matrix, pre[i].matrix);
    ASSERT_EQ(ported[i].defended.size(), pre[i].defended.size());
    for (std::size_t vi = 0; vi < pre[i].defended.size(); ++vi) {
      expect_same_matrix(ported[i].defended[vi], pre[i].defended[vi]);
      EXPECT_EQ(ported[i].mean_thresholds[vi].theta0,
                pre[i].mean_thresholds[vi].theta0);
      EXPECT_EQ(ported[i].mean_thresholds[vi].theta1,
                pre[i].mean_thresholds[vi].theta1);
    }
  }
}

TEST(AttackEquivalence, FocusedKnowledgeThroughRegistry) {
  FocusedConfig config;
  config.inbox_size = 400;
  config.target_count = 4;
  config.repetitions = 1;

  // The historical entry point (now a registry-resolving wrapper) against
  // an explicit direct binding — and both at 1 vs 4 threads.
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    config.threads = threads;
    const auto pre = run_focused_knowledge(generator(), {0.1, 0.9}, 20,
                                           config);
    const auto ported = run_focused_knowledge(
        generator(), attack, attack.default_params(), {0.1, 0.9}, 20, config);
    ASSERT_EQ(ported.size(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i) {
      EXPECT_EQ(ported[i].guess_probability, pre[i].guess_probability);
      EXPECT_EQ(ported[i].targets, pre[i].targets);
      EXPECT_EQ(ported[i].as_ham, pre[i].as_ham);
      EXPECT_EQ(ported[i].as_unsure, pre[i].as_unsure);
      EXPECT_EQ(ported[i].as_spam, pre[i].as_spam);
      EXPECT_EQ(ported[i].control_as_ham, pre[i].control_as_ham);
    }
  }
}

TEST(AttackEquivalence, RegistryExperimentsBitIdenticalAcrossThreads) {
  // The two NEW attacks end-to-end through the registry experiments, 1 vs
  // 4 threads: the serialized documents must agree byte-for-byte.
  const Experiment& dictionary = builtin_registry().get("dictionary");
  Config config = dictionary.default_config();
  config.set("training_set_size", "400");
  config.set("folds", "2");
  config.set("attack_fractions", "0.02");
  config.set("attack", "backdoor-trigger");

  RunContext one;
  one.threads = 1;
  RunContext four;
  four.threads = 4;
  const std::string doc_one = dictionary.run(config, one).to_json();
  const std::string doc_four = dictionary.run(config, four).to_json();
  EXPECT_EQ(doc_one, doc_four);
  EXPECT_NE(doc_one.find("\"attack\": {\"name\": \"backdoor-trigger\""),
            std::string::npos);
  EXPECT_NE(doc_one.find("Causative Integrity Targeted"), std::string::npos);
}

}  // namespace
}  // namespace sbx::eval
