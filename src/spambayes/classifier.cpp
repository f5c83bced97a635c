#include "spambayes/classifier.h"

#include <algorithm>
#include <cmath>

#include "spambayes/scoring_math.h"
#include "util/error.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

// Eq. 1-2 lives in scoring_math.h (shared with ScoreEngine so both paths
// perform the identical sequence of floating-point operations).
using detail::score_from_counts;

/// Delta(E) selection and Fisher combination, shared by score() and
/// score_ids(). `Result` provides .evidence (with .score/.used members) and
/// the aggregate fields; `spelling_of(i)` yields the spelling of evidence
/// entry i for the deterministic tie-break. Candidate order — and with it
/// every floating-point summation — is a strict total order on
/// (distance-from-0.5 desc, spelling asc), so the outcome is bit-identical
/// regardless of evidence/input order.
template <typename Result, typename SpellingFn>
void select_and_combine(Result& result, const ClassifierOptions& opts,
                        const SpellingFn& spelling_of) {
  // Select delta(E): up to max_discriminators tokens whose scores are
  // strictly outside [0.5 - strength, 0.5 + strength], ordered by distance
  // from 0.5 (ties broken by token spelling for determinism). Distances are
  // precomputed and only the leading max_discriminators entries are sorted;
  // because (distance desc, spelling asc) is a strict total order,
  // partial_sort yields exactly the prefix a full sort would.
  struct Candidate {
    double distance;
    std::size_t index;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(result.evidence.size());
  for (std::size_t i = 0; i < result.evidence.size(); ++i) {
    const double distance =
        detail::distance_from_neutral(result.evidence[i].score);
    if (detail::admits(distance, opts)) {
      candidates.push_back({distance, i});
    }
  }
  const auto stronger = [&](const Candidate& a, const Candidate& b) {
    if (a.distance != b.distance) return a.distance > b.distance;
    return spelling_of(a.index) < spelling_of(b.index);
  };
  if (candidates.size() > opts.max_discriminators) {
    // nth_element + prefix sort picks exactly the prefix a full sort
    // would (strict total order) at a fraction of partial_sort's
    // heap-maintenance cost on these sizes.
    const auto cut = candidates.begin() +
                     static_cast<std::ptrdiff_t>(opts.max_discriminators);
    std::nth_element(candidates.begin(), cut, candidates.end(), stronger);
    candidates.resize(opts.max_discriminators);
    std::sort(candidates.begin(), candidates.end(), stronger);
  } else {
    std::sort(candidates.begin(), candidates.end(), stronger);
  }

  const std::size_t n = candidates.size();
  result.tokens_used = n;
  if (n == 0) {
    // No evidence: I = 0.5, which the default thresholds call unsure.
    result.score = 0.5;
    result.spam_evidence = result.ham_evidence = 0.5;
    result.verdict =
        Classifier::verdict_for(result.score, opts.ham_cutoff,
                                opts.spam_cutoff);
    return;
  }

  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (const Candidate& candidate : candidates) {
    auto& ev = result.evidence[candidate.index];
    ev.used = true;
    // With s > 0 the smoothed score is strictly inside (0,1); clamp anyway
    // so a degenerate configuration (s == 0) cannot produce log(0).
    double f = std::clamp(ev.score, 1e-300, 1.0 - 1e-15);
    sum_log_f += std::log(f);
    sum_log_1mf += std::log1p(-f);
  }

  // Eq. 4 (survival form): H = Q(-2 sum log f; 2n), S = Q(-2 sum log(1-f)).
  // The pair form interleaves the two independent Erlang folds
  // (bit-identical to two single calls, roughly half the wall clock).
  double h;
  double s;
  util::chi2q_even_dof_pair(-2.0 * sum_log_f, -2.0 * sum_log_1mf, n, &h, &s);
  result.spam_evidence = h;
  result.ham_evidence = s;
  result.score = (1.0 + h - s) / 2.0;  // Eq. 3
  result.verdict = Classifier::verdict_for(result.score, opts.ham_cutoff,
                                           opts.spam_cutoff);
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

double Classifier::token_score(const TokenDatabase& db,
                               std::string_view token) const {
  return score_from_counts(db.counts(token), db.spam_count(), db.ham_count(),
                           opts_);
}

double Classifier::token_score(const TokenDatabase& db, TokenId id) const {
  return score_from_counts(db.counts(id), db.spam_count(), db.ham_count(),
                           opts_);
}

ScoreResult Classifier::score(const TokenDatabase& db,
                              const TokenSet& tokens) const {
  ScoreResult result;
  result.evidence.reserve(tokens.size());
  const double ns = db.spam_count();
  const double nh = db.ham_count();
  for (const auto& t : tokens) {
    result.evidence.push_back(
        {t, score_from_counts(db.counts(t), ns, nh, opts_), false});
  }
  select_and_combine(result, opts_, [&](std::size_t i) {
    return std::string_view(result.evidence[i].token);
  });
  return result;
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& db,
                                    const TokenIdList& ids) const {
  ScoreIdResult result;
  result.evidence.reserve(ids.size());
  const double ns = db.spam_count();
  const double nh = db.ham_count();
  for (TokenId id : ids) {
    result.evidence.push_back(
        {id, score_from_counts(db.counts(id), ns, nh, opts_), false});
  }
  const TokenInterner& interner = global_interner();
  select_and_combine(result, opts_, [&](std::size_t i) {
    return interner.spelling(result.evidence[i].id);
  });
  return result;
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& base,
                                    const TokenDatabase& overlay,
                                    const TokenIdList& ids) const {
  ScoreIdResult result;
  result.evidence.reserve(ids.size());
  // uint32 sums, then the same uint32 -> double conversion score_ids()
  // performs: bit-identical inputs to score_from_counts versus a database
  // trained on base's and overlay's message sets together.
  const double ns =
      static_cast<double>(base.spam_count() + overlay.spam_count());
  const double nh = static_cast<double>(base.ham_count() + overlay.ham_count());
  for (TokenId id : ids) {
    const TokenCounts b = base.counts(id);
    const TokenCounts o = overlay.counts(id);
    const TokenCounts merged{b.spam + o.spam, b.ham + o.ham};
    result.evidence.push_back(
        {id, score_from_counts(merged, ns, nh, opts_), false});
  }
  const TokenInterner& interner = global_interner();
  select_and_combine(result, opts_, [&](std::size_t i) {
    return interner.spelling(result.evidence[i].id);
  });
  return result;
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
