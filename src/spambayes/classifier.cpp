#include "spambayes/classifier.h"

#include "spambayes/score_engine.h"
#include "spambayes/scoring_math.h"
#include "util/error.h"

namespace sbx::spambayes {
namespace {

/// The calling thread's engine for Classifier calls. It only runs the
/// fresh source, so it never builds a table. Kept apart from
/// ScoreEngine::for_current_thread: a Classifier with other options would
/// otherwise rebind that engine and drop its table, and a call from a
/// Filter::classify_batch sink would overwrite the evidence scratch the
/// batch's BatchScore aliases.
ScoreEngine& fresh_engine(const ClassifierOptions& opts) {
  thread_local ScoreEngine engine;
  engine.rebind_options(opts);
  return engine;
}

}  // namespace

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::ham:
      return "ham";
    case Verdict::unsure:
      return "unsure";
    case Verdict::spam:
      return "spam";
  }
  return "unsure";
}

bool verdict_at_most(Verdict v, Verdict goal) {
  auto rank = [](Verdict x) {
    switch (x) {
      case Verdict::ham:
        return 0;
      case Verdict::unsure:
        return 1;
      case Verdict::spam:
        return 2;
    }
    return 1;
  };
  return rank(v) <= rank(goal);
}

Classifier::Classifier(ClassifierOptions opts) : opts_(opts) {
  if (opts_.ham_cutoff < 0 || opts_.spam_cutoff > 1 ||
      opts_.ham_cutoff > opts_.spam_cutoff) {
    throw InvalidArgument("Classifier: cutoffs must satisfy 0 <= theta0 <= "
                          "theta1 <= 1");
  }
}

double Classifier::token_score(const TokenDatabase& db, TokenId id) const {
  return detail::score_from_counts(db.counts(id), db.spam_count(),
                                   db.ham_count(), opts_);
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& db,
                                    const TokenIdList& ids) const {
  return fresh_engine(opts_).score_fresh(db, nullptr, ids);
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& base,
                                    const TokenDatabase& overlay,
                                    const TokenIdList& ids) const {
  return fresh_engine(opts_).score_fresh(base, &overlay, ids);
}

Verdict Classifier::verdict_for(double score) const {
  return verdict_for(score, opts_.ham_cutoff, opts_.spam_cutoff);
}

Verdict Classifier::verdict_for(double score, double ham_cutoff,
                                double spam_cutoff) {
  if (score <= ham_cutoff) return Verdict::ham;
  if (score <= spam_cutoff) return Verdict::unsure;
  return Verdict::spam;
}

}  // namespace sbx::spambayes
