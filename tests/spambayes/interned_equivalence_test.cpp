// Equivalence suite for the interned hot paths: proves that the id-based
// representation (TokenIdSet + flat TokenDatabase + ScoreEngine) is
// bit-identical to the string-keyed implementation it replaced, through
// every scoring source: the memoized engine, the fresh source over one
// database and over base + overlay, and the string form.
//
// The reference implementation below is a verbatim port of the
// pre-interning classifier/database (unordered_map<string, TokenCounts>,
// string-sorted tie-break). Every comparison against it is EXPECT_EQ on
// doubles — bitwise, not approximate.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "eval/runner.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "util/random.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

// --- reference (pre-interning) implementation ------------------------------

struct RefDatabase {
  std::unordered_map<std::string, TokenCounts> counts;
  std::uint32_t nspam = 0;
  std::uint32_t nham = 0;

  void train(const TokenSet& tokens, bool spam, std::uint32_t copies = 1) {
    for (const auto& t : tokens) {
      TokenCounts& c = counts[t];
      (spam ? c.spam : c.ham) += copies;
    }
    (spam ? nspam : nham) += copies;
  }

  void untrain(const TokenSet& tokens, bool spam, std::uint32_t copies = 1) {
    for (const auto& t : tokens) {
      auto it = counts.find(t);
      ASSERT_TRUE(it != counts.end());
      (spam ? it->second.spam : it->second.ham) -= copies;
      if (it->second.spam == 0 && it->second.ham == 0) counts.erase(it);
    }
    (spam ? nspam : nham) -= copies;
  }

  TokenCounts lookup(const std::string& token) const {
    auto it = counts.find(token);
    return it == counts.end() ? TokenCounts{} : it->second;
  }
};

double ref_token_score(const RefDatabase& db, const std::string& token,
                       const ClassifierOptions& opts) {
  const TokenCounts c = db.lookup(token);
  const double ns = db.nspam;
  const double nh = db.nham;
  const double spam_ratio = ns > 0 ? c.spam / ns : 0.0;
  const double ham_ratio = nh > 0 ? c.ham / nh : 0.0;
  double ps = 0.5;
  if (spam_ratio + ham_ratio > 0) {
    ps = spam_ratio / (spam_ratio + ham_ratio);
  }
  const double n_w = static_cast<double>(c.spam) + static_cast<double>(c.ham);
  const double s = opts.unknown_word_strength;
  const double x = opts.unknown_word_prob;
  return (s * x + n_w * ps) / (s + n_w);
}

ScoreResult ref_score(const RefDatabase& db, const TokenSet& tokens,
                      const ClassifierOptions& opts) {
  ScoreResult result;
  result.evidence.reserve(tokens.size());
  for (const auto& t : tokens) {
    result.evidence.push_back({t, ref_token_score(db, t, opts), false});
  }
  std::vector<std::size_t> candidates;
  candidates.reserve(result.evidence.size());
  for (std::size_t i = 0; i < result.evidence.size(); ++i) {
    if (std::fabs(result.evidence[i].score - 0.5) >
        opts.minimum_prob_strength) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              double da = std::fabs(result.evidence[a].score - 0.5);
              double db_ = std::fabs(result.evidence[b].score - 0.5);
              if (da != db_) return da > db_;
              return result.evidence[a].token < result.evidence[b].token;
            });
  if (candidates.size() > opts.max_discriminators) {
    candidates.resize(opts.max_discriminators);
  }
  const std::size_t n = candidates.size();
  result.tokens_used = n;
  if (n == 0) {
    result.score = 0.5;
    result.spam_evidence = result.ham_evidence = 0.5;
    result.verdict = Classifier::verdict_for(0.5, opts.ham_cutoff,
                                             opts.spam_cutoff);
    return result;
  }
  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (std::size_t idx : candidates) {
    TokenEvidence& ev = result.evidence[idx];
    ev.used = true;
    double f = std::clamp(ev.score, 1e-300, 1.0 - 1e-15);
    sum_log_f += std::log(f);
    sum_log_1mf += std::log1p(-f);
  }
  const double h = util::chi2q_even_dof(-2.0 * sum_log_f, n);
  const double s = util::chi2q_even_dof(-2.0 * sum_log_1mf, n);
  result.spam_evidence = h;
  result.ham_evidence = s;
  result.score = (1.0 + h - s) / 2.0;
  result.verdict = Classifier::verdict_for(result.score, opts.ham_cutoff,
                                           opts.spam_cutoff);
  return result;
}

// --- shared fixture: a trained corpus in both representations --------------

struct Corpus {
  RefDatabase ref;
  Filter filter;
  std::vector<TokenSet> probes_tokens;
  std::vector<TokenIdSet> probes_ids;

  explicit Corpus(int train_each = 120, int probes = 60,
                  std::uint64_t seed = 991) {
    const corpus::TrecLikeGenerator& gen = generator();
    util::Rng rng(seed);
    for (int i = 0; i < train_each; ++i) {
      const TokenSet ham = filter.message_tokens(gen.generate_ham(rng));
      const TokenSet spam = filter.message_tokens(gen.generate_spam(rng));
      ref.train(ham, /*spam=*/false);
      ref.train(spam, /*spam=*/true);
      filter.train_ham_tokens(ham);
      filter.train_spam_tokens(spam);
    }
    for (int i = 0; i < probes; ++i) {
      const email::Message m =
          i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
      probes_tokens.push_back(filter.message_tokens(m));
      probes_ids.push_back(filter.message_token_ids(m));
    }
  }

  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

// --- tokenizer stream equivalence ------------------------------------------

TEST(InternedEquivalence, TokenStreamsAreByteIdentical) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  const Tokenizer tok;
  const TokenInterner& interner = global_interner();
  util::Rng rng(5150);
  for (int i = 0; i < 30; ++i) {
    const email::Message msg =
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
    const TokenList strings = tok.tokenize(msg);
    const TokenIdList ids = tok.tokenize_ids(msg);
    ASSERT_EQ(strings.size(), ids.size()) << "message " << i;
    for (std::size_t j = 0; j < strings.size(); ++j) {
      EXPECT_EQ(interner.spelling(ids[j]), strings[j])
          << "message " << i << " token " << j;
    }
    // And dedup commutes with interning.
    EXPECT_EQ(intern_tokens(unique_tokens(strings)),
              unique_token_ids(tok.tokenize_ids(msg)));
  }
}

// --- classification equivalence --------------------------------------------

TEST(InternedEquivalence, ScoresBitIdenticalToStringKeyedReference) {
  Corpus corpus;
  const ClassifierOptions opts = corpus.filter.options().classifier;
  for (std::size_t i = 0; i < corpus.probes_tokens.size(); ++i) {
    const ScoreResult expected =
        ref_score(corpus.ref, corpus.probes_tokens[i], opts);
    const ScoreResult via_strings =
        corpus.filter.classify_tokens(corpus.probes_tokens[i]);
    const ScoreIdResult via_ids =
        corpus.filter.classify_ids(corpus.probes_ids[i]);

    // Bitwise equality on every aggregate, through both entry points.
    EXPECT_EQ(expected.score, via_strings.score) << "probe " << i;
    EXPECT_EQ(expected.score, via_ids.score) << "probe " << i;
    EXPECT_EQ(expected.spam_evidence, via_strings.spam_evidence);
    EXPECT_EQ(expected.spam_evidence, via_ids.spam_evidence);
    EXPECT_EQ(expected.ham_evidence, via_strings.ham_evidence);
    EXPECT_EQ(expected.ham_evidence, via_ids.ham_evidence);
    EXPECT_EQ(expected.tokens_used, via_strings.tokens_used);
    EXPECT_EQ(expected.tokens_used, via_ids.tokens_used);
    EXPECT_EQ(expected.verdict, via_strings.verdict);
    EXPECT_EQ(expected.verdict, via_ids.verdict);

    // Evidence equivalence: the string path preserves ordering and flags
    // exactly; the id path selects the same delta(E) set.
    ASSERT_EQ(expected.evidence.size(), via_strings.evidence.size());
    const TokenInterner& interner = global_interner();
    std::vector<std::string> expected_used;
    std::vector<std::string> ids_used;
    for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
      EXPECT_EQ(expected.evidence[j].token, via_strings.evidence[j].token);
      EXPECT_EQ(expected.evidence[j].score, via_strings.evidence[j].score);
      EXPECT_EQ(expected.evidence[j].used, via_strings.evidence[j].used);
      if (expected.evidence[j].used) {
        expected_used.push_back(expected.evidence[j].token);
      }
    }
    for (const auto& ev : via_ids.evidence) {
      EXPECT_EQ(ev.score,
                corpus.filter.classifier().token_score(
                    corpus.filter.database(), ev.id));
      if (ev.used) ids_used.emplace_back(interner.spelling(ev.id));
    }
    std::sort(expected_used.begin(), expected_used.end());
    std::sort(ids_used.begin(), ids_used.end());
    EXPECT_EQ(expected_used, ids_used) << "probe " << i;
  }
}

// --- every scoring source against the reference ----------------------------

/// Asserts that `actual`, scored from ids interned in the order of the
/// probe's tokens, carries the reference's bits: every aggregate, and per
/// evidence entry the spelling, f(w) and the delta(E) flag.
void expect_reference_bits(const ScoreResult& expected,
                           const ScoreIdResult& actual, const char* what,
                           std::size_t probe) {
  EXPECT_EQ(expected.score, actual.score) << what << " probe " << probe;
  EXPECT_EQ(expected.spam_evidence, actual.spam_evidence) << what;
  EXPECT_EQ(expected.ham_evidence, actual.ham_evidence) << what;
  EXPECT_EQ(expected.tokens_used, actual.tokens_used) << what;
  EXPECT_EQ(expected.verdict, actual.verdict) << what;
  ASSERT_EQ(expected.evidence.size(), actual.evidence.size()) << what;
  const TokenInterner& interner = global_interner();
  for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
    EXPECT_EQ(expected.evidence[j].token,
              interner.spelling(actual.evidence[j].id))
        << what << " probe " << probe << " token " << j;
    EXPECT_EQ(expected.evidence[j].score, actual.evidence[j].score)
        << what << " probe " << probe << " token " << j;
    EXPECT_EQ(expected.evidence[j].used, actual.evidence[j].used)
        << what << " probe " << probe << " token " << j;
  }
}

ScoreIdResult to_result(const BatchScore& scored) {
  ScoreIdResult out;
  out.score = scored.score;
  out.spam_evidence = scored.spam_evidence;
  out.ham_evidence = scored.ham_evidence;
  out.tokens_used = scored.tokens_used;
  out.verdict = scored.verdict;
  out.evidence.assign(scored.evidence.begin(), scored.evidence.end());
  return out;
}

TEST(InternedEquivalence, EverySourceMatchesTheReferenceBitwise) {
  Corpus corpus(120, 20, 2718);
  const ClassifierOptions opts = corpus.filter.options().classifier;

  // One training email carrying 200 tokens that share their first 8 bytes:
  // identical counts give identical distances, and the packed sort key
  // cannot order them, so selecting among them falls to full spellings.
  TokenList tie_list;
  for (int k = 0; k < 200; ++k) {
    tie_list.push_back("tiebreakprefix-" + std::to_string(k));
  }
  const TokenSet ties = unique_tokens(tie_list);
  corpus.ref.train(ties, /*spam=*/true);
  corpus.filter.train_spam_tokens(ties);
  const TokenDatabase& db = corpus.filter.database();

  // A 28-message per-user overlay, and the reference trained on the base
  // and overlay message sets together.
  RefDatabase merged = corpus.ref;
  TokenDatabase overlay;
  util::Rng rng(31415);
  for (int i = 0; i < 28; ++i) {
    const bool spam = i % 2 == 1;
    const email::Message m = spam ? Corpus::generator().generate_spam(rng)
                                  : Corpus::generator().generate_ham(rng);
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    merged.train(corpus.filter.message_tokens(m), spam, copies);
    if (spam) {
      overlay.train_spam_ids(corpus.filter.message_token_ids(m), copies);
    } else {
      overlay.train_ham_ids(corpus.filter.message_token_ids(m), copies);
    }
  }

  // Probes: ordinary messages, the union of all of them (far more than
  // max_discriminators strong tokens) and a tie-heavy one.
  std::vector<TokenSet> probes = corpus.probes_tokens;
  TokenList all;
  for (const TokenSet& p : corpus.probes_tokens) {
    all.insert(all.end(), p.begin(), p.end());
  }
  probes.push_back(unique_tokens(all));
  TokenList tie_probe = tie_list;
  tie_probe.insert(tie_probe.end(), corpus.probes_tokens[1].begin(),
                   corpus.probes_tokens[1].end());
  probes.push_back(unique_tokens(tie_probe));

  std::vector<TokenIdList> ids(probes.size());
  std::vector<ScoreResult> expected;
  std::vector<ScoreResult> expected_merged;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (const auto& t : probes[i]) {
      ids[i].push_back(global_interner().intern(t));
    }
    expected.push_back(ref_score(corpus.ref, probes[i], opts));
    expected_merged.push_back(ref_score(merged, probes[i], opts));
  }

  // The probes exercise what they are meant to.
  const auto strong = [&](const ScoreResult& r) {
    std::size_t n = 0;
    for (const auto& ev : r.evidence) {
      n += std::fabs(ev.score - 0.5) > opts.minimum_prob_strength ? 1 : 0;
    }
    return n;
  };
  const ScoreResult& big = expected[probes.size() - 2];
  EXPECT_GT(strong(big), 2 * opts.max_discriminators);
  EXPECT_EQ(big.tokens_used, opts.max_discriminators);
  std::size_t ties_used = 0;
  std::size_t ties_unused = 0;
  for (const auto& ev : expected.back().evidence) {
    if (ev.token.rfind("tiebreakprefix-", 0) != 0) continue;
    (ev.used ? ties_used : ties_unused) += 1;
  }
  EXPECT_GT(ties_used, 0u);
  EXPECT_GT(ties_unused, 0u);

  const Classifier& classifier = corpus.filter.classifier();
  ScoreEngine engine(opts);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    // The string form: evidence in the input order, spellings included.
    const ScoreResult via_strings = classifier.score(db, probes[i]);
    ScoreIdResult as_ids;
    as_ids.score = via_strings.score;
    as_ids.spam_evidence = via_strings.spam_evidence;
    as_ids.ham_evidence = via_strings.ham_evidence;
    as_ids.tokens_used = via_strings.tokens_used;
    as_ids.verdict = via_strings.verdict;
    for (std::size_t j = 0; j < via_strings.evidence.size(); ++j) {
      const TokenEvidence& ev = via_strings.evidence[j];
      EXPECT_EQ(ev.token, probes[i][j]);
      as_ids.evidence.push_back({ids[i][j], ev.score, ev.used});
    }
    expect_reference_bits(expected[i], as_ids, "string form", i);
    // The memoized source, cold and then warm.
    expect_reference_bits(expected[i], engine.score_ids(db, ids[i]),
                          "memo cold", i);
    expect_reference_bits(expected[i], engine.score_ids(db, ids[i]),
                          "memo warm", i);
    // The fresh source over one database and over base + overlay.
    expect_reference_bits(expected[i], classifier.score_ids(db, ids[i]),
                          "fresh", i);
    expect_reference_bits(expected_merged[i],
                          classifier.score_ids(db, overlay, ids[i]),
                          "fresh base+overlay", i);
  }
  // Both sources through the batch call the serving frontend makes.
  const TokenDatabase* const overlays[] = {nullptr, &overlay};
  for (const TokenDatabase* extra : overlays) {
    const std::vector<ScoreResult>& want =
        extra == nullptr ? expected : expected_merged;
    const char* what = extra == nullptr ? "memo batch" : "overlay batch";
    std::size_t seen = 0;
    engine.score_batch(
        db, extra, ids.size(),
        [&](std::size_t i) -> const TokenIdList& { return ids[i]; },
        [&](std::size_t i, const BatchScore& scored) {
          ++seen;
          expect_reference_bits(want[i], to_result(scored), what, i);
        });
    EXPECT_EQ(seen, ids.size());
  }
}

TEST(InternedEquivalence, ScoreIsIndependentOfIdOrder) {
  Corpus corpus(60, 20, 313);
  for (std::size_t i = 0; i < corpus.probes_ids.size(); ++i) {
    TokenIdList shuffled = corpus.probes_ids[i];
    util::Rng rng(1000 + i);
    rng.shuffle(shuffled);
    EXPECT_EQ(corpus.filter.classify_ids(corpus.probes_ids[i]).score,
              corpus.filter.classify_ids(shuffled).score)
        << "probe " << i;
  }
}

// --- training-state equivalence --------------------------------------------

TEST(InternedEquivalence, TrainUntrainCountsMatchStringPath) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  util::Rng rng(777);
  Filter via_strings;
  Filter via_ids;
  std::vector<TokenSet> sets;
  std::vector<TokenIdSet> id_sets;
  for (int i = 0; i < 40; ++i) {
    const email::Message m =
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
    sets.push_back(via_strings.message_tokens(m));
    id_sets.push_back(via_strings.message_token_ids(m));
  }
  for (int i = 0; i < 40; ++i) {
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    if (i % 2 == 0) {
      via_strings.train_ham_tokens(sets[i], copies);
      via_ids.train_ham_ids(id_sets[i], copies);
    } else {
      via_strings.train_spam_tokens(sets[i], copies);
      via_ids.train_spam_ids(id_sets[i], copies);
    }
  }
  auto expect_equal_databases = [&] {
    const TokenDatabase& a = via_strings.database();
    const TokenDatabase& b = via_ids.database();
    EXPECT_EQ(a.spam_count(), b.spam_count());
    EXPECT_EQ(a.ham_count(), b.ham_count());
    EXPECT_EQ(a.vocabulary_size(), b.vocabulary_size());
    EXPECT_EQ(a.tokens(), b.tokens());
  };
  expect_equal_databases();
  // Untrain half of the messages again, through the opposite entry points
  // to cross-check the wrappers.
  for (int i = 0; i < 20; ++i) {
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    if (i % 2 == 0) {
      via_strings.untrain_ham_ids(id_sets[i], copies);
      via_ids.untrain_ham_tokens(sets[i], copies);
    } else {
      via_strings.untrain_spam_ids(id_sets[i], copies);
      via_ids.untrain_spam_tokens(sets[i], copies);
    }
  }
  expect_equal_databases();
}

TEST(InternedEquivalence, SaveLoadSaveIsByteStable) {
  Corpus corpus(50, 0, 555);
  std::stringstream first;
  corpus.filter.database().save(first);
  TokenDatabase loaded = TokenDatabase::load(first);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.vocabulary_size(),
            corpus.filter.database().vocabulary_size());
  EXPECT_EQ(loaded.tokens(), corpus.filter.database().tokens());
}

// --- thread-count equivalence ----------------------------------------------

// Classification scores must be bit-identical to the single-threaded
// string-keyed reference no matter how many threads tokenize/intern/classify
// concurrently (id *assignment* is scheduling-dependent; scores must not
// be).
TEST(InternedEquivalence, ScoresBitIdenticalAtOneAndFourThreads) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  Corpus corpus(80, 0, 441);
  const ClassifierOptions opts = corpus.filter.options().classifier;

  // Fresh probe messages, tokenized inside the parallel trials below so the
  // interner sees concurrent traffic.
  constexpr std::size_t kProbes = 48;
  std::vector<email::Message> messages;
  util::Rng rng(616);
  for (std::size_t i = 0; i < kProbes; ++i) {
    messages.push_back(i % 2 == 0 ? gen.generate_ham(rng)
                                  : gen.generate_spam(rng));
  }
  std::vector<double> expected;
  const Tokenizer tok(corpus.filter.options().tokenizer);
  for (const auto& m : messages) {
    expected.push_back(
        ref_score(corpus.ref, unique_tokens(tok.tokenize(m)), opts).score);
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    eval::Runner runner(1, threads);
    std::vector<double> scores = runner.map(
        messages.size(), /*salt=*/10, [&](std::size_t i, util::Rng&) {
          return corpus.filter
              .classify_ids(corpus.filter.message_token_ids(messages[i]))
              .score;
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
