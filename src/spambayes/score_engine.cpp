#include "spambayes/score_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "spambayes/scoring_math.h"
#include "util/error.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

/// First 8 bytes of a spelling as a big-endian integer (zero-padded).
/// Ordering by this key agrees with bytewise lexicographic order whenever
/// the keys differ; equal keys defer to the full comparison.
std::uint64_t spelling_prefix(std::string_view spelling) {
  std::uint64_t key = 0;
  const std::size_t n = std::min<std::size_t>(spelling.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(spelling[i]))
           << (56 - 8 * i);
  }
  return key;
}

/// A sum of two uint32 counts as a double. The 64-bit sum cannot wrap,
/// and below 2^32 it converts to the same double as a uint32 count of
/// that value, i.e. a database trained on both message sets.
double wide_sum(std::uint32_t a, std::uint32_t b) {
  return static_cast<double>(std::uint64_t{a} + b);
}

/// The overlay of a fresh score with no overlay: all counts zero.
const TokenDatabase& empty_database() {
  static const TokenDatabase empty;
  return empty;
}

}  // namespace

ScoreEngine::ScoreEngine(ClassifierOptions opts) : opts_(opts) {}

ScoreEngine::LogTerms ScoreEngine::log_terms(double f) {
  const double clamped = std::clamp(f, 1e-300, 1.0 - 1e-15);
  return {std::log(clamped), std::log1p(-clamped)};
}

void ScoreEngine::rebind_options(const ClassifierOptions& opts) {
  if (opts.unknown_word_strength != opts_.unknown_word_strength ||
      opts.unknown_word_prob != opts_.unknown_word_prob ||
      opts.minimum_prob_strength != opts_.minimum_prob_strength) {
    ++epoch_;
  }
  opts_ = opts;
}

void ScoreEngine::bind(const TokenDatabase& db) {
  const std::uint64_t gen = db.generation();
  if (gen != generation_) {
    generation_ = gen;
    ns_ = db.spam_count();
    nh_ = db.ham_count();
    ++epoch_;
  }
}

void ScoreEngine::check_generation(const TokenDatabase& db,
                                   std::uint64_t bound) const {
  if (db.generation() != bound) {
    throw InvalidArgument(
        "ScoreEngine::score_batch: TokenDatabase mutated mid-batch "
        "(generation moved; a batch scores one database snapshot)");
  }
}

const ScoreEngine::TokenMemo& ScoreEngine::memo_for(const TokenDatabase& db,
                                                    TokenId id) {
  if (id >= memo_.size()) {
    memo_.resize(std::max<std::size_t>(id + 1, memo_.size() * 2));
  }
  TokenMemo& m = memo_[id];
  if (m.epoch != epoch_) {
    const double f = detail::score_from_counts(db.counts(id), ns_, nh_, opts_);
    m.f = f;
    m.distance = detail::distance_from_neutral(f);
    m.strong = detail::admits(m.distance, opts_);
    if (m.strong) {
      m.logs = log_terms(f);
      m.spell_prefix = spelling_prefix(global_interner().spelling(id));
    }
    m.epoch = epoch_;
  }
  return m;
}

void ScoreEngine::score_one(const TokenDatabase& base,
                            const TokenDatabase* overlay,
                            const TokenIdList& ids,
                            std::vector<TokenIdEvidence>& evidence,
                            BatchScore& out) {
  evidence.clear();
  candidates_.clear();
  // Queues the last evidence entry as a delta(E) candidate (see SortKey).
  const auto admit = [&](double distance, std::uint64_t spell_prefix) {
    const auto index = static_cast<std::uint32_t>(evidence.size() - 1);
    const auto bits = ~std::bit_cast<std::uint64_t>(distance);
    candidates_.push_back(
        {(static_cast<SortKey>(bits) << 64) | spell_prefix, index});
  };
  const TokenInterner& interner = global_interner();
  if (overlay == nullptr) {
    for (TokenId id : ids) {
      const TokenMemo& m = memo_for(base, id);
      evidence.push_back({id, m.f, false});
      if (m.strong) admit(m.distance, m.spell_prefix);
    }
  } else {
    const double ns = wide_sum(base.spam_count(), overlay->spam_count());
    const double nh = wide_sum(base.ham_count(), overlay->ham_count());
    for (TokenId id : ids) {
      const TokenCounts b = base.counts(id);
      const TokenCounts o = overlay->counts(id);
      const double f = detail::score_from_counts(
          wide_sum(b.spam, o.spam), wide_sum(b.ham, o.ham), ns, nh, opts_);
      evidence.push_back({id, f, false});
      const double distance = detail::distance_from_neutral(f);
      if (detail::admits(distance, opts_)) {
        admit(distance, spelling_prefix(interner.spelling(id)));
      }
    }
  }

  // Select delta(E): up to max_discriminators admitted tokens in the
  // strict total order (distance from 0.5 desc, spelling asc). One packed
  // integer compare stands in for the pair (distance ties are common in
  // small corpora, and full string compares are the expensive part of the
  // sort); only a prefix collision falls back to the interner. Because the
  // order is strict and total, nth_element + prefix sort yields exactly
  // the prefix a full sort would, and the outcome — with every
  // floating-point summation below — does not depend on input order.
  const auto stronger = [&](const Candidate& a, const Candidate& b) {
    if (a.key != b.key) return a.key < b.key;
    return interner.spelling(evidence[a.index].id) <
           interner.spelling(evidence[b.index].id);
  };
  if (candidates_.size() > opts_.max_discriminators) {
    const auto cut = candidates_.begin() +
                     static_cast<std::ptrdiff_t>(opts_.max_discriminators);
    std::nth_element(candidates_.begin(), cut, candidates_.end(), stronger);
    candidates_.resize(opts_.max_discriminators);
  }
  std::sort(candidates_.begin(), candidates_.end(), stronger);

  const std::size_t n = candidates_.size();
  out.tokens_used = n;
  out.evidence = {evidence.data(), evidence.size()};
  if (n == 0) {
    // No evidence: I = 0.5, which the default thresholds call unsure.
    out.score = 0.5;
    out.spam_evidence = out.ham_evidence = 0.5;
    out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                          opts_.spam_cutoff);
    return;
  }

  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (const Candidate& candidate : candidates_) {
    TokenIdEvidence& ev = evidence[candidate.index];
    ev.used = true;
    // The memo holds the same libm results log_terms() computes.
    const LogTerms logs =
        overlay == nullptr ? memo_[ev.id].logs : log_terms(ev.score);
    sum_log_f += logs.log_f;
    sum_log_1mf += logs.log_1mf;
  }

  // Eq. 4 (survival form): H = Q(-2 sum log f; 2n), S = Q(-2 sum log(1-f)).
  // The pair form interleaves the two independent Erlang folds
  // (bit-identical to two single calls, roughly half the wall clock).
  double h;
  double s;
  util::chi2q_even_dof_pair(-2.0 * sum_log_f, -2.0 * sum_log_1mf, n, &h, &s);
  out.spam_evidence = h;
  out.ham_evidence = s;
  out.score = (1.0 + h - s) / 2.0;  // Eq. 3
  out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                        opts_.spam_cutoff);
}

ScoreIdResult ScoreEngine::score_to_result(const TokenDatabase& base,
                                           const TokenDatabase* overlay,
                                           const TokenIdList& ids) {
  ScoreIdResult result;
  result.evidence.reserve(ids.size());
  BatchScore scored;
  score_one(base, overlay, ids, result.evidence, scored);
  result.score = scored.score;
  result.spam_evidence = scored.spam_evidence;
  result.ham_evidence = scored.ham_evidence;
  result.tokens_used = scored.tokens_used;
  result.verdict = scored.verdict;
  return result;
}

ScoreIdResult ScoreEngine::score_ids(const TokenDatabase& db,
                                     const TokenIdList& ids) {
  bind(db);
  return score_to_result(db, nullptr, ids);
}

ScoreIdResult ScoreEngine::score_fresh(const TokenDatabase& base,
                                       const TokenDatabase* overlay,
                                       const TokenIdList& ids) {
  return score_to_result(base, overlay != nullptr ? overlay : &empty_database(),
                         ids);
}

ScoreEngine& ScoreEngine::for_current_thread(const ClassifierOptions& opts) {
  thread_local ScoreEngine engine;
  engine.rebind_options(opts);
  return engine;
}

}  // namespace sbx::spambayes
