// Equivalence + table-contract suite for ScoreEngine:
//
//  * every call over one database (single-message and batch, fresh and
//    through the engine's own ScoreTable) is BIT-identical to the fresh
//    source Classifier::score_ids forwards to (scores, evidence
//    values/ordering/used flags, verdicts) — every comparison is EXPECT_EQ
//    on doubles, never approximate. Both sources share one selection and
//    combine routine; interned_equivalence_test holds each of them to an
//    independent pre-interning reference;
//  * the rent-or-buy rule: an engine scores a database generation fresh
//    until the ids it looked up, with those of the call at hand, reach the
//    database's id range, then builds exactly one table for that
//    generation before the call scores, and reads it;
//  * the generation contract makes stale-table reuse impossible: any
//    train/untrain/merge/load moves the database to a process-globally
//    unique generation, the engine drops its table and counts again, so
//    train -> score -> untrain -> score returns the pre-train bits; so does
//    a change of s, x or minimum_prob_strength;
//  * mutating the database from inside a batch sink throws (one batch =
//    one snapshot), on the fresh side and on the table side;
//  * one engine per thread reproduces the single-threaded bits at any
//    thread count.
#include <algorithm>
#include <sstream>
#include <string>
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

void expect_batch_equal(const ScoreIdResult& expected,
                        const BatchScore& actual, const char* what) {
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

/// Scores `probes` round after round through score_ids until the engine
/// holds a table for db's generation, holding every score to `reference`.
/// Fails the test unless the table comes with the first call whose ids
/// take the fresh lookups to the id range.
void score_until_table(ScoreEngine& engine, const TokenDatabase& db,
                       const std::vector<TokenIdSet>& probes,
                       const Classifier& reference) {
  std::size_t served = 0;
  for (std::size_t i = 0; engine.cached_generation() != db.generation();
       ++i) {
    const TokenIdSet& probe = probes[i % probes.size()];
    const bool must_build = served + probe.size() >= db.id_range();
    expect_bitwise_equal(reference.score_ids(db, probe),
                         engine.score_ids(db, probe), "towards the table");
    ASSERT_TRUE(!must_build || engine.cached_generation() == db.generation())
        << "no table after " << served << " ids";
    served += probe.size();
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
    // Score twice: both calls run fresh (40 probes are far below the id
    // range) and must carry the same bits as the classifier.
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

  score_until_table(engine, corpus.filter.database(), corpus.probes,
                    corpus.filter.classifier());
  std::vector<ScoreIdResult> before;
  for (const TokenIdSet& probe : corpus.probes) {
    before.push_back(engine.score_ids(corpus.filter.database(), probe));
  }

  corpus.filter.train_spam_ids(extra, 3);
  const Classifier& classifier = corpus.filter.classifier();
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    // A table of the pre-train generation must not leak its values into
    // the poisoned database's scores...
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

TEST(ScoreEngine, LoadedDatabaseReusesNoTable) {
  EngineCorpus small(30, 4, 11);
  EngineCorpus big(90, 4, 12);
  ScoreEngine engine(small.filter.options().classifier);
  // Build a table on the small database...
  score_until_table(engine, small.filter.database(), small.probes,
                    small.filter.classifier());
  // ...then score a freshly load()ed database with different contents:
  // the loaded database carries a new generation, so the table is dropped
  // and the loaded one is scored fresh.
  std::stringstream stream;
  big.filter.database().save(stream);
  const TokenDatabase loaded = TokenDatabase::load(stream);
  EXPECT_NE(loaded.generation(), small.filter.database().generation());
  EXPECT_NE(loaded.generation(), big.filter.database().generation());
  const Classifier& classifier = big.filter.classifier();
  for (const TokenIdSet& probe : big.probes) {
    expect_bitwise_equal(classifier.score_ids(loaded, probe),
                         engine.score_ids(loaded, probe), "loaded db");
    EXPECT_EQ(engine.cached_generation(), 0u);
  }
  // And the loaded database earns a table of its own by the same rule.
  score_until_table(engine, loaded, big.probes, classifier);
  EXPECT_EQ(engine.tables_built(), 2u);
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
  // decrement without a generation bump would let an engine read a stale
  // table while believing the contents unchanged.
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
  const TokenDatabase& db = corpus.filter.database();
  const TokenIdSet& first = corpus.probes[0];
  const auto mutate_in_sink = [&](ScoreEngine& engine) {
    EXPECT_THROW(engine.score_ids_batch(db, corpus.probes,
                                        [&](std::size_t i, const BatchScore&) {
                                          if (i == 0) {
                                            corpus.filter.train_spam_ids(first);
                                          }
                                        }),
                 InvalidArgument);
    // Clean up the mutation so the filter is consistent for other asserts.
    corpus.filter.untrain_spam_ids(corpus.probes[0]);
  };
  // The fresh side: an engine that holds no table.
  ScoreEngine fresh(corpus.filter.options().classifier);
  mutate_in_sink(fresh);
  EXPECT_EQ(fresh.tables_built(), 0u);
  // The table side: an engine that reads its table for the batch's
  // generation.
  ScoreEngine tabled(corpus.filter.options().classifier);
  score_until_table(tabled, db, corpus.probes, corpus.filter.classifier());
  mutate_in_sink(tabled);
  // Both engines recover: the next call scores the database as it is now.
  for (ScoreEngine* engine : {&fresh, &tabled}) {
    expect_bitwise_equal(
        corpus.filter.classifier().score_ids(db, corpus.probes[1]),
        engine->score_ids(db, corpus.probes[1]), "after recovery");
  }
}

TEST(ScoreEngine, FreshSourceLeavesTheTableAlone) {
  // Scoring another database (or base + overlay) fresh must neither drop
  // nor rebuild the table an engine holds for its base, nor count towards
  // one.
  EngineCorpus corpus(40, 6, 23);
  ScoreEngine engine(corpus.filter.options().classifier);
  const TokenDatabase& db = corpus.filter.database();
  score_until_table(engine, db, corpus.probes, corpus.filter.classifier());
  const ScoreIdResult tabled = engine.score_ids(db, corpus.probes[0]);
  TokenDatabase overlay;
  overlay.train_spam_ids(corpus.probes[1]);
  for (int round = 0; round < 3; ++round) {
    engine.score_fresh(overlay, nullptr, corpus.probes[2]);
    engine.score_fresh(db, &overlay, corpus.probes[2]);
    engine.score_batch(
        db, &overlay, 2,
        [&](std::size_t i) -> const TokenIdList& { return corpus.probes[i]; },
        [](std::size_t, const BatchScore&) {});
  }
  EXPECT_EQ(engine.cached_generation(), db.generation());
  EXPECT_EQ(engine.tables_built(), 1u);
  expect_bitwise_equal(tabled, engine.score_ids(db, corpus.probes[0]),
                       "table after fresh scoring");
}

// --- the rent-or-buy rule ---------------------------------------------------

TEST(ScoreEngine, BuildsOneTableOnceFreshLookupsReachTheIdRange) {
  EngineCorpus corpus(60, 40, 41);
  const TokenDatabase& db = corpus.filter.database();
  const Classifier& classifier = corpus.filter.classifier();
  ASSERT_GT(db.id_range(), 0u);
  EXPECT_EQ(db.id_range() % TokenDatabase::kLeafEntries, 0u);
  ScoreEngine engine(corpus.filter.options().classifier);

  // (a) A batch whose ids stay below the id range scores fresh and builds
  // nothing.
  std::vector<TokenIdSet> few;
  std::size_t few_ids = 0;
  for (const TokenIdSet& probe : corpus.probes) {
    if (few_ids + probe.size() >= db.id_range() / 2) break;
    few.push_back(probe);
    few_ids += probe.size();
  }
  ASSERT_FALSE(few.empty());
  engine.score_ids_batch(db, few, [&](std::size_t i, const BatchScore& s) {
    expect_batch_equal(classifier.score_ids(db, few[i]), s, "below range");
  });
  EXPECT_EQ(engine.cached_generation(), 0u);
  EXPECT_EQ(engine.tables_built(), 0u);

  // A batch just too short to take the count to the range still scores
  // fresh.
  std::vector<TokenIdSet> short_of;
  std::size_t short_ids = few_ids;
  for (std::size_t i = 0;; ++i) {
    const TokenIdSet& probe = corpus.probes[i % corpus.probes.size()];
    if (short_ids + probe.size() >= db.id_range()) break;
    short_of.push_back(probe);
    short_ids += probe.size();
  }
  engine.score_ids_batch(db, short_of, [&](std::size_t i, const BatchScore& s) {
    expect_batch_equal(classifier.score_ids(db, short_of[i]), s, "short");
  });
  EXPECT_EQ(engine.cached_generation(), 0u);
  EXPECT_EQ(engine.tables_built(), 0u);

  // Past it: the next batch takes the count to the range, so the engine
  // builds exactly one table before the batch's first message and reads
  // it for every message; later calls reuse it.
  std::vector<TokenIdSet> many;
  for (std::size_t total = short_ids; total < db.id_range();) {
    many.push_back(corpus.probes[many.size() % corpus.probes.size()]);
    total += many.back().size();
  }
  engine.score_ids_batch(db, many, [&](std::size_t i, const BatchScore& s) {
    expect_batch_equal(classifier.score_ids(db, many[i]), s, "past range");
    EXPECT_EQ(engine.cached_generation(), db.generation()) << "message " << i;
  });
  EXPECT_EQ(engine.cached_generation(), db.generation());
  EXPECT_EQ(engine.tables_built(), 1u);
  for (const TokenIdSet& probe : corpus.probes) {
    expect_bitwise_equal(classifier.score_ids(db, probe),
                         engine.score_ids(db, probe), "table");
  }
  EXPECT_EQ(engine.tables_built(), 1u);
}

TEST(ScoreEngine, TrainRestartsTheCountAndReusesNoStaleTable) {
  EngineCorpus corpus(50, 30, 43);
  const Classifier& classifier = corpus.filter.classifier();
  ScoreEngine engine(corpus.filter.options().classifier);
  score_until_table(engine, corpus.filter.database(), corpus.probes,
                    classifier);
  const std::uint64_t first = corpus.filter.database().generation();
  EXPECT_EQ(engine.cached_generation(), first);

  // (b) After a train, the next call reads no stale table: the old one is
  // dropped, the count restarts, and the new generation is scored fresh.
  util::Rng rng(44);
  corpus.filter.train_spam_ids(
      corpus.filter.message_token_ids(generator().generate_spam(rng)));
  const TokenDatabase& db = corpus.filter.database();
  ASSERT_NE(db.generation(), first);
  expect_bitwise_equal(classifier.score_ids(db, corpus.probes[0]),
                       engine.score_ids(db, corpus.probes[0]), "after train");
  EXPECT_EQ(engine.cached_generation(), 0u);
  EXPECT_EQ(engine.tables_built(), 1u);

  // A batch long enough builds the new generation's table...
  std::vector<TokenIdSet> many;
  std::size_t many_ids = 0;
  while (many_ids < db.id_range()) {
    many.push_back(corpus.probes[many.size() % corpus.probes.size()]);
    many_ids += many.back().size();
  }
  engine.score_ids_batch(db, many, [&](std::size_t i, const BatchScore& s) {
    expect_batch_equal(classifier.score_ids(db, many[i]), s, "new gen");
  });
  EXPECT_EQ(engine.cached_generation(), db.generation());
  EXPECT_EQ(engine.tables_built(), 2u);
  // ...and a single score_ids after it reads that table.
  expect_bitwise_equal(classifier.score_ids(db, corpus.probes[1]),
                       engine.score_ids(db, corpus.probes[1]), "single");
  EXPECT_EQ(engine.cached_generation(), db.generation());
  EXPECT_EQ(engine.tables_built(), 2u);
}

TEST(ScoreEngine, IdsInternedAfterTheTableReadAsZeroCounts) {
  EngineCorpus corpus(40, 20, 45);
  const TokenDatabase& db = corpus.filter.database();
  // (d) Under the default x a zero-count token is never a discriminator;
  // under x = 0.8 it is, so the out-of-range ids also take the spelling
  // prefix path of the selection.
  ClassifierOptions strong_unknown;
  strong_unknown.unknown_word_prob = 0.8;
  for (const ClassifierOptions& opts :
       {ClassifierOptions{}, strong_unknown}) {
    const Classifier classifier(opts);
    ScoreEngine engine(opts);
    score_until_table(engine, db, corpus.probes, classifier);
    const std::uint64_t built = engine.tables_built();
    // Fresh ids past every id the table covers, mixed into a probe.
    TokenIdSet probe = corpus.probes[0];
    for (int k = 0; k < 12; ++k) {
      probe.push_back(global_interner().intern(
          "score-engine-test-late-" + std::to_string(opts.unknown_word_prob) +
          "-" + std::to_string(k)));
    }
    std::sort(probe.begin(), probe.end());
    expect_bitwise_equal(classifier.score_ids(db, probe),
                         engine.score_ids(db, probe), "late ids");
    EXPECT_EQ(engine.cached_generation(), db.generation());
    EXPECT_EQ(engine.tables_built(), built);
  }
}

// --- options rebinding ------------------------------------------------------

TEST(ScoreEngine, RebindingTokenScoreOptionsDropsTheTable) {
  EngineCorpus corpus(50, 8, 31);
  const TokenDatabase& db = corpus.filter.database();
  const Classifier default_classifier{ClassifierOptions{}};
  ClassifierOptions cutoffs;
  cutoffs.ham_cutoff = 0.1;
  cutoffs.spam_cutoff = 0.95;
  ClassifierOptions strict;
  strict.minimum_prob_strength = 0.3;
  ClassifierOptions smooth;
  smooth.unknown_word_strength = 0.8;
  ClassifierOptions prior;
  prior.unknown_word_prob = 0.45;

  ScoreEngine engine;
  score_until_table(engine, db, corpus.probes, default_classifier);
  // (c) Cutoffs apply at combine time: the table stays.
  engine.rebind_options(cutoffs);
  EXPECT_EQ(engine.cached_generation(), db.generation());
  expect_bitwise_equal(Classifier(cutoffs).score_ids(db, corpus.probes[0]),
                       engine.score_ids(db, corpus.probes[0]), "cutoffs");
  EXPECT_EQ(engine.tables_built(), 1u);
  // Each of minimum_prob_strength, s and x drops it; the engine then
  // scores fresh under the new options and earns a new table.
  std::uint64_t built = 1;
  for (const ClassifierOptions& opts : {strict, smooth, prior}) {
    engine.rebind_options(opts);
    EXPECT_EQ(engine.cached_generation(), 0u);
    const Classifier classifier(opts);
    expect_bitwise_equal(classifier.score_ids(db, corpus.probes[1]),
                         engine.score_ids(db, corpus.probes[1]), "rebound");
    EXPECT_EQ(engine.cached_generation(), 0u);
    score_until_table(engine, db, corpus.probes, classifier);
    EXPECT_EQ(engine.tables_built(), ++built);
  }
}

TEST(ScoreEngine, ThreadEngineTracksOptionChanges) {
  EngineCorpus corpus(50, 8, 31);
  ClassifierOptions strict;
  strict.minimum_prob_strength = 0.3;
  strict.unknown_word_strength = 0.8;
  const Classifier strict_classifier(strict);
  const Classifier default_classifier{ClassifierOptions{}};
  const TokenDatabase& db = corpus.filter.database();
  // Alternate options through the shared thread engine, many rounds so
  // that either side would reach the id range if a rebind kept its count:
  // each rebind must drop the other options' table and count.
  std::size_t served = 0;
  for (std::size_t round = 0; served <= db.id_range(); ++round) {
    const TokenIdSet& probe = corpus.probes[round % corpus.probes.size()];
    served += probe.size();
    expect_bitwise_equal(default_classifier.score_ids(db, probe),
                         ScoreEngine::for_current_thread(ClassifierOptions{})
                             .score_ids(db, probe),
                         "default opts");
    expect_bitwise_equal(
        strict_classifier.score_ids(db, probe),
        ScoreEngine::for_current_thread(strict).score_ids(db, probe),
        "strict opts");
  }
  EXPECT_EQ(ScoreEngine::for_current_thread(strict).cached_generation(), 0u);
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
