// Equivalence + invalidation suite for the generation-cached ScoreEngine:
//
//  * the memoized source (single-message and batch) is BIT-identical to
//    the fresh source Classifier::score_ids forwards to (scores, evidence
//    values/ordering/used flags, verdicts) — every comparison is EXPECT_EQ
//    on doubles, never approximate. Both sources share one selection and
//    combine routine; interned_equivalence_test holds each of them to an
//    independent pre-interning reference;
//  * the generation contract makes stale-cache reuse impossible: any
//    train/untrain/merge/load moves the database to a process-globally
//    unique generation and the warm memo is refilled, so
//    train -> score -> untrain -> score returns the pre-train bits;
//  * mutating the database from inside a batch sink throws (one batch =
//    one snapshot);
//  * one engine per thread reproduces the single-threaded bits at any
//    thread count.
#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "eval/runner.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

/// A trained filter plus deduplicated probe id sets.
struct EngineCorpus {
  Filter filter;
  std::vector<TokenIdSet> probes;

  explicit EngineCorpus(int train_each = 100, int probe_count = 40,
                        std::uint64_t seed = 4242) {
    const corpus::TrecLikeGenerator& gen = generator();
    util::Rng rng(seed);
    for (int i = 0; i < train_each; ++i) {
      filter.train_ham_ids(filter.message_token_ids(gen.generate_ham(rng)));
      filter.train_spam_ids(filter.message_token_ids(gen.generate_spam(rng)));
    }
    for (int i = 0; i < probe_count; ++i) {
      const email::Message m =
          i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
      probes.push_back(filter.message_token_ids(m));
    }
  }
};

void expect_bitwise_equal(const ScoreIdResult& expected,
                          const ScoreIdResult& actual, const char* what) {
  EXPECT_EQ(expected.score, actual.score) << what;
  EXPECT_EQ(expected.spam_evidence, actual.spam_evidence) << what;
  EXPECT_EQ(expected.ham_evidence, actual.ham_evidence) << what;
  EXPECT_EQ(expected.tokens_used, actual.tokens_used) << what;
  EXPECT_EQ(expected.verdict, actual.verdict) << what;
  ASSERT_EQ(expected.evidence.size(), actual.evidence.size()) << what;
  for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
    EXPECT_EQ(expected.evidence[j].id, actual.evidence[j].id) << what;
    EXPECT_EQ(expected.evidence[j].score, actual.evidence[j].score) << what;
    EXPECT_EQ(expected.evidence[j].used, actual.evidence[j].used) << what;
  }
}

// --- bitwise equivalence to Classifier::score_ids --------------------------

TEST(ScoreEngine, SingleMessagePathMatchesClassifierBitwise) {
  EngineCorpus corpus;
  const Classifier& classifier = corpus.filter.classifier();
  ScoreEngine engine(corpus.filter.options().classifier);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    const ScoreIdResult expected =
        classifier.score_ids(corpus.filter.database(), corpus.probes[i]);
    // Score twice: the first call fills the memo, the second consumes it
    // warm — both must carry the same bits as the uncached classifier.
    expect_bitwise_equal(
        expected, engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "cold");
    expect_bitwise_equal(
        expected, engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "warm");
  }
}

TEST(ScoreEngine, BatchPathMatchesClassifierBitwise) {
  EngineCorpus corpus;
  const Classifier& classifier = corpus.filter.classifier();
  ScoreEngine engine(corpus.filter.options().classifier);
  std::size_t seen = 0;
  engine.score_ids_batch(
      corpus.filter.database(), corpus.probes,
      [&](std::size_t i, const BatchScore& scored) {
        ++seen;
        const ScoreIdResult expected =
            classifier.score_ids(corpus.filter.database(), corpus.probes[i]);
        EXPECT_EQ(expected.score, scored.score) << "probe " << i;
        EXPECT_EQ(expected.spam_evidence, scored.spam_evidence);
        EXPECT_EQ(expected.ham_evidence, scored.ham_evidence);
        EXPECT_EQ(expected.tokens_used, scored.tokens_used);
        EXPECT_EQ(expected.verdict, scored.verdict);
        ASSERT_EQ(expected.evidence.size(), scored.evidence.size());
        for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
          EXPECT_EQ(expected.evidence[j].id, scored.evidence[j].id);
          EXPECT_EQ(expected.evidence[j].score, scored.evidence[j].score);
          EXPECT_EQ(expected.evidence[j].used, scored.evidence[j].used);
        }
      });
  EXPECT_EQ(seen, corpus.probes.size());
}

TEST(ScoreEngine, FilterClassifyIdsMatchesClassifierBitwise) {
  // Filter::classify_ids routes through the thread-local engine; it must
  // stay a bit-exact drop-in for the direct classifier call.
  EngineCorpus corpus;
  const Classifier& classifier = corpus.filter.classifier();
  for (const TokenIdSet& probe : corpus.probes) {
    expect_bitwise_equal(classifier.score_ids(corpus.filter.database(), probe),
                         corpus.filter.classify_ids(probe), "classify_ids");
  }
}

// --- generation invalidation -----------------------------------------------

TEST(ScoreEngine, TrainUntrainRoundTripRestoresPreTrainBits) {
  EngineCorpus corpus(60, 10, 77);
  ScoreEngine engine(corpus.filter.options().classifier);
  util::Rng rng(5);
  const TokenIdSet extra =
      corpus.filter.message_token_ids(generator().generate_spam(rng));

  std::vector<ScoreIdResult> before;
  for (const TokenIdSet& probe : corpus.probes) {
    before.push_back(engine.score_ids(corpus.filter.database(), probe));
  }

  corpus.filter.train_spam_ids(extra, 3);
  const Classifier& classifier = corpus.filter.classifier();
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    // The warm memo must not leak pre-train values into the poisoned
    // database's scores...
    expect_bitwise_equal(
        classifier.score_ids(corpus.filter.database(), corpus.probes[i]),
        engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "after train");
  }

  corpus.filter.untrain_spam_ids(extra, 3);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    // ...and untraining back to the original counts must reproduce the
    // original bits even though the generation is new.
    expect_bitwise_equal(
        before[i],
        engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "after untrain");
  }
}

TEST(ScoreEngine, LoadInvalidates) {
  EngineCorpus small(30, 4, 11);
  EngineCorpus big(90, 4, 12);
  ScoreEngine engine(small.filter.options().classifier);
  // Warm the memo on the small database...
  for (const TokenIdSet& probe : small.probes) {
    engine.score_ids(small.filter.database(), probe);
  }
  // ...then score a freshly load()ed database with different contents:
  // the loaded database carries a new generation, so no warm value may
  // survive.
  std::stringstream stream;
  big.filter.database().save(stream);
  const TokenDatabase loaded = TokenDatabase::load(stream);
  EXPECT_NE(loaded.generation(), small.filter.database().generation());
  EXPECT_NE(loaded.generation(), big.filter.database().generation());
  const Classifier& classifier = big.filter.classifier();
  for (const TokenIdSet& probe : big.probes) {
    expect_bitwise_equal(classifier.score_ids(loaded, probe),
                         engine.score_ids(loaded, probe), "loaded db");
  }
}

TEST(ScoreEngine, GenerationsAreProcessGloballyUnique) {
  util::Rng rng(9);
  Filter filter;
  const TokenIdSet msg =
      filter.message_token_ids(generator().generate_spam(rng));

  TokenDatabase a;
  const std::uint64_t g0 = a.generation();
  a.train_spam_ids(msg);
  const std::uint64_t g1 = a.generation();
  EXPECT_NE(g0, g1);

  // A copy IS the same state and keeps the stamp...
  TokenDatabase b = a;
  EXPECT_EQ(b.generation(), g1);
  // ...until either side mutates, which moves it to a fresh value no
  // database has ever held.
  b.train_ham_ids(msg);
  const std::uint64_t g2 = b.generation();
  EXPECT_NE(g2, g1);
  EXPECT_EQ(a.generation(), g1);
  a.untrain_spam_ids(msg);
  EXPECT_NE(a.generation(), g1);
  EXPECT_NE(a.generation(), g2);

  // merge() and no-op guards.
  TokenDatabase c;
  const std::uint64_t g3 = c.generation();
  c.merge(b);
  EXPECT_NE(c.generation(), g3);
  const std::uint64_t g4 = c.generation();
  c.train_spam_ids(msg, 0);  // copies == 0 mutates nothing
  EXPECT_EQ(c.generation(), g4);
}

TEST(ScoreEngine, FailedUntrainLeavesContentsAndGenerationUntouched) {
  // A throwing untrain must not change the database at all: a partial
  // decrement without a generation bump would let a warm engine serve
  // stale memoized values while believing the contents unchanged.
  const TokenId a = global_interner().intern("score-engine-test-token-a");
  const TokenId b = global_interner().intern("score-engine-test-token-b");
  const TokenId c = global_interner().intern("score-engine-test-token-c");
  TokenDatabase db;
  TokenIdSet trained = {a, b};
  std::sort(trained.begin(), trained.end());
  db.train_spam_ids(trained);
  const std::uint64_t gen = db.generation();
  TokenIdSet bogus = {a, b, c};  // c was never trained
  std::sort(bogus.begin(), bogus.end());
  EXPECT_THROW(db.untrain_spam_ids(bogus), InvalidArgument);
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.counts(a).spam, 1u);
  EXPECT_EQ(db.counts(b).spam, 1u);
  EXPECT_EQ(db.spam_count(), 1u);
  EXPECT_EQ(db.vocabulary_size(), 2u);
}

TEST(ScoreEngine, MutationDuringBatchThrows) {
  EngineCorpus corpus(40, 6, 21);
  ScoreEngine engine(corpus.filter.options().classifier);
  EXPECT_THROW(
      engine.score_ids_batch(
          corpus.filter.database(), corpus.probes,
          [&](std::size_t i, const BatchScore&) {
            if (i == 0) corpus.filter.train_spam_ids(corpus.probes[0]);
          }),
      InvalidArgument);
  // Clean up the mutation so the filter is consistent for other asserts.
  corpus.filter.untrain_spam_ids(corpus.probes[0]);
  // The engine itself must recover: the next bind resynchronizes.
  expect_bitwise_equal(
      corpus.filter.classifier().score_ids(corpus.filter.database(),
                                           corpus.probes[1]),
      engine.score_ids(corpus.filter.database(), corpus.probes[1]),
      "after recovery");
}

TEST(ScoreEngine, FreshSourceLeavesTheMemoAlone) {
  // Scoring another database (or base + overlay) fresh must not rebind or
  // refill the memo a warm engine holds for its base.
  EngineCorpus corpus(40, 6, 23);
  ScoreEngine engine(corpus.filter.options().classifier);
  const TokenDatabase& db = corpus.filter.database();
  const ScoreIdResult warm = engine.score_ids(db, corpus.probes[0]);
  const std::uint64_t bound = engine.cached_generation();
  TokenDatabase overlay;
  overlay.train_spam_ids(corpus.probes[1]);
  engine.score_fresh(overlay, nullptr, corpus.probes[2]);
  engine.score_batch(
      db, &overlay, 2,
      [&](std::size_t i) -> const TokenIdList& { return corpus.probes[i]; },
      [](std::size_t, const BatchScore&) {});
  EXPECT_EQ(engine.cached_generation(), bound);
  expect_bitwise_equal(warm, engine.score_ids(db, corpus.probes[0]),
                       "memo after fresh scoring");
}

// --- options rebinding ------------------------------------------------------

TEST(ScoreEngine, ThreadEngineTracksOptionChanges) {
  EngineCorpus corpus(50, 8, 31);
  ClassifierOptions strict;
  strict.minimum_prob_strength = 0.3;
  strict.unknown_word_strength = 0.8;
  const Classifier strict_classifier(strict);
  const Classifier default_classifier{ClassifierOptions{}};
  for (const TokenIdSet& probe : corpus.probes) {
    // Alternate options through the shared thread engine: each rebind
    // must invalidate the memoized probabilities/flags.
    expect_bitwise_equal(
        default_classifier.score_ids(corpus.filter.database(), probe),
        ScoreEngine::for_current_thread(ClassifierOptions{})
            .score_ids(corpus.filter.database(), probe),
        "default opts");
    expect_bitwise_equal(
        strict_classifier.score_ids(corpus.filter.database(), probe),
        ScoreEngine::for_current_thread(strict).score_ids(
            corpus.filter.database(), probe),
        "strict opts");
  }
}

// --- thread-count equivalence ----------------------------------------------

TEST(ScoreEngine, SharedConstFilterBitIdenticalAtOneAndFourThreads) {
  EngineCorpus corpus(80, 32, 616);
  const Classifier& classifier = corpus.filter.classifier();
  std::vector<double> expected;
  for (const TokenIdSet& probe : corpus.probes) {
    expected.push_back(
        classifier.score_ids(corpus.filter.database(), probe).score);
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    eval::Runner runner(1, threads);
    // Every worker classifies through its own thread_local engine against
    // the one shared const Filter.
    std::vector<double> scores = runner.map(
        corpus.probes.size(), /*salt=*/10, [&](std::size_t i, util::Rng&) {
          return corpus.filter.classify_ids(corpus.probes[i]).score;
        });
    ASSERT_EQ(scores.size(), expected.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], expected[i])
          << "probe " << i << " at " << threads << " thread(s)";
    }
  }
}

}  // namespace
}  // namespace sbx::spambayes
