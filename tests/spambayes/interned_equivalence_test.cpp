// Equivalence suite for the interned hot paths: proves that the id-based
// representation (TokenIdSet + flat TokenDatabase + ScoreEngine) is
// bit-identical to the string-keyed implementation it replaced, through
// every scoring source: the memoized engine, the fresh source over one
// database and over base + overlay, and Filter::classify on a message.
//
// The reference implementation below is a verbatim port of the
// pre-interning classifier/database (unordered_map<string, TokenCounts>,
// string-sorted tie-break), with the string-keyed types it used. Every
// comparison against it is EXPECT_EQ on doubles — bitwise, not
// approximate.
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
#include "support/token_ids.h"
#include "util/random.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

using test::ids;
using test::spellings;

// --- reference (pre-interning) implementation ------------------------------

/// A deduplicated token set sorted by spelling (the reference's message).
using TokenSet = std::vector<std::string>;

/// One token's contribution to a reference score.
struct TokenEvidence {
  std::string token;
  double score = 0.5;
  bool used = false;
};

/// The reference's scoring breakdown; evidence in input order.
struct ScoreResult {
  double score = 0.5;
  double spam_evidence = 0.0;
  double ham_evidence = 0.0;
  std::size_t tokens_used = 0;
  Verdict verdict = Verdict::unsure;
  std::vector<TokenEvidence> evidence;
};

/// The reference's message: the spellings of `ids`, sorted.
TokenSet spelling_set(const TokenIdSet& ids,
                      const TokenInterner& interner = global_interner()) {
  TokenSet out = spellings(ids, interner);
  std::sort(out.begin(), out.end());
  return out;
}

/// `result` with its evidence reordered by spelling: the order of a
/// reference score over the same message.
ScoreIdResult in_spelling_order(ScoreIdResult result) {
  const TokenInterner& interner = global_interner();
  std::sort(result.evidence.begin(), result.evidence.end(),
            [&](const TokenIdEvidence& a, const TokenIdEvidence& b) {
              return interner.spelling(a.id) < interner.spelling(b.id);
            });
  return result;
}

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
  std::vector<email::Message> probes_messages;
  std::vector<TokenSet> probes_tokens;
  std::vector<TokenIdSet> probes_ids;

  explicit Corpus(int train_each = 120, int probes = 60,
                  std::uint64_t seed = 991) {
    const corpus::TrecLikeGenerator& gen = generator();
    util::Rng rng(seed);
    for (int i = 0; i < train_each; ++i) {
      const TokenIdSet ham = filter.message_token_ids(gen.generate_ham(rng));
      const TokenIdSet spam = filter.message_token_ids(gen.generate_spam(rng));
      ref.train(spelling_set(ham), /*spam=*/false);
      ref.train(spelling_set(spam), /*spam=*/true);
      filter.train_ham_ids(ham);
      filter.train_spam_ids(spam);
    }
    for (int i = 0; i < probes; ++i) {
      probes_messages.push_back(i % 2 == 0 ? gen.generate_ham(rng)
                                           : gen.generate_spam(rng));
      probes_ids.push_back(filter.message_token_ids(probes_messages.back()));
      probes_tokens.push_back(spelling_set(probes_ids.back()));
    }
  }

  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

// --- classification equivalence --------------------------------------------

TEST(InternedEquivalence, ScoresBitIdenticalToStringKeyedReference) {
  Corpus corpus;
  const ClassifierOptions opts = corpus.filter.options().classifier;
  for (std::size_t i = 0; i < corpus.probes_tokens.size(); ++i) {
    const ScoreResult expected =
        ref_score(corpus.ref, corpus.probes_tokens[i], opts);
    const ScoreIdResult via_message = in_spelling_order(
        corpus.filter.classify(corpus.probes_messages[i]));
    const ScoreIdResult via_ids =
        corpus.filter.classify_ids(corpus.probes_ids[i]);

    // Bitwise equality on every aggregate, through both entry points.
    EXPECT_EQ(expected.score, via_message.score) << "probe " << i;
    EXPECT_EQ(expected.score, via_ids.score) << "probe " << i;
    EXPECT_EQ(expected.spam_evidence, via_message.spam_evidence);
    EXPECT_EQ(expected.spam_evidence, via_ids.spam_evidence);
    EXPECT_EQ(expected.ham_evidence, via_message.ham_evidence);
    EXPECT_EQ(expected.ham_evidence, via_ids.ham_evidence);
    EXPECT_EQ(expected.tokens_used, via_message.tokens_used);
    EXPECT_EQ(expected.tokens_used, via_ids.tokens_used);
    EXPECT_EQ(expected.verdict, via_message.verdict);
    EXPECT_EQ(expected.verdict, via_ids.verdict);

    // Evidence equivalence: the message path, put in spelling order,
    // matches every entry and flag exactly; the id path selects the same
    // delta(E) set.
    ASSERT_EQ(expected.evidence.size(), via_message.evidence.size());
    const TokenInterner& interner = global_interner();
    std::vector<std::string> expected_used;
    std::vector<std::string> ids_used;
    for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
      EXPECT_EQ(expected.evidence[j].token,
                interner.spelling(via_message.evidence[j].id));
      EXPECT_EQ(expected.evidence[j].score, via_message.evidence[j].score);
      EXPECT_EQ(expected.evidence[j].used, via_message.evidence[j].used);
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
  TokenSet ties;
  for (int k = 0; k < 200; ++k) {
    ties.push_back("tiebreakprefix-" + std::to_string(k));
  }
  std::sort(ties.begin(), ties.end());
  corpus.ref.train(ties, /*spam=*/true);
  corpus.filter.train_spam_ids(ids(ties));
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
    const TokenIdSet m_ids = corpus.filter.message_token_ids(m);
    merged.train(spelling_set(m_ids), spam, copies);
    if (spam) {
      overlay.train_spam_ids(m_ids, copies);
    } else {
      overlay.train_ham_ids(m_ids, copies);
    }
  }

  // Probes: ordinary messages, the union of all of them (far more than
  // max_discriminators strong tokens) and a tie-heavy one.
  const auto sorted_unique = [](TokenSet words) {
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    return words;
  };
  std::vector<TokenSet> probes = corpus.probes_tokens;
  TokenSet all;
  for (const TokenSet& p : corpus.probes_tokens) {
    all.insert(all.end(), p.begin(), p.end());
  }
  probes.push_back(sorted_unique(all));
  TokenSet tie_probe = ties;
  tie_probe.insert(tie_probe.end(), corpus.probes_tokens[1].begin(),
                   corpus.probes_tokens[1].end());
  probes.push_back(sorted_unique(tie_probe));

  std::vector<TokenIdList> probe_ids(probes.size());
  std::vector<ScoreResult> expected;
  std::vector<ScoreResult> expected_merged;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (const auto& t : probes[i]) {
      probe_ids[i].push_back(global_interner().intern(t));
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
    // Filter::classify on the message, for the probes that are one;
    // its evidence follows message_token_ids, so compare in spelling order.
    if (i < corpus.probes_messages.size()) {
      expect_reference_bits(
          expected[i],
          in_spelling_order(corpus.filter.classify(corpus.probes_messages[i])),
          "message", i);
    }
    // The memoized source, cold and then warm.
    expect_reference_bits(expected[i], engine.score_ids(db, probe_ids[i]),
                          "memo cold", i);
    expect_reference_bits(expected[i], engine.score_ids(db, probe_ids[i]),
                          "memo warm", i);
    // The fresh source over one database and over base + overlay.
    expect_reference_bits(expected[i], classifier.score_ids(db, probe_ids[i]),
                          "fresh", i);
    expect_reference_bits(expected_merged[i],
                          classifier.score_ids(db, overlay, probe_ids[i]),
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
        db, extra, probe_ids.size(),
        [&](std::size_t i) -> const TokenIdList& { return probe_ids[i]; },
        [&](std::size_t i, const BatchScore& scored) {
          ++seen;
          expect_reference_bits(want[i], to_result(scored), what, i);
        });
    EXPECT_EQ(seen, probe_ids.size());
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
  // The reference spells them through its own interner, so the global
  // one first sees these tokens from the trials.
  std::vector<double> expected;
  const Tokenizer tok(corpus.filter.options().tokenizer);
  TokenInterner ref_interner;
  for (const auto& m : messages) {
    const TokenSet tokens = spelling_set(
        unique_token_ids(tok.tokenize_ids(m, ref_interner)), ref_interner);
    expected.push_back(ref_score(corpus.ref, tokens, opts).score);
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
