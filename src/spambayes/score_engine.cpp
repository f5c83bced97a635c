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

}  // namespace

ScoreEngine::ScoreEngine(ClassifierOptions opts) : opts_(opts) {}

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
      // Identical clamp + libm calls to Classifier's combine step, just
      // evaluated once per (token, generation) instead of per message.
      const double clamped = std::clamp(f, 1e-300, 1.0 - 1e-15);
      m.log_f = std::log(clamped);
      m.log_1mf = std::log1p(-clamped);
      m.spell_prefix = spelling_prefix(global_interner().spelling(id));
    }
    m.epoch = epoch_;
  }
  return m;
}

void ScoreEngine::score_into(const TokenDatabase& db, const TokenIdList& ids,
                             BatchScore& out) {
  evidence_.clear();
  candidates_.clear();
  for (TokenId id : ids) {
    const TokenMemo& m = memo_for(db, id);
    evidence_.push_back({id, m.f, false});
    if (m.strong) {
      const SortKey key =
          (static_cast<SortKey>(~std::bit_cast<std::uint64_t>(m.distance))
           << 64) |
          m.spell_prefix;
      candidates_.push_back(
          {key, static_cast<std::uint32_t>(evidence_.size() - 1)});
    }
  }

  // Delta(E) selection in the exact (distance desc, spelling asc) total
  // order Classifier uses — one packed-integer compare stands in for the
  // (distance, spelling) pair (see Candidate::key; distance ties are
  // common in small corpora and full string compares are the expensive
  // part of the sort), and only a prefix collision falls back to the
  // interner. Same strict total order, so the selected set, its order,
  // and with it every floating-point summation are identical.
  const TokenInterner& interner = global_interner();
  const auto stronger = [&](const Candidate& a, const Candidate& b) {
    if (a.key != b.key) return a.key < b.key;
    return interner.spelling(evidence_[a.index].id) <
           interner.spelling(evidence_[b.index].id);
  };
  if (candidates_.size() > opts_.max_discriminators) {
    const auto cut = candidates_.begin() +
                     static_cast<std::ptrdiff_t>(opts_.max_discriminators);
    std::nth_element(candidates_.begin(), cut, candidates_.end(), stronger);
    candidates_.resize(opts_.max_discriminators);
    std::sort(candidates_.begin(), candidates_.end(), stronger);
  } else {
    std::sort(candidates_.begin(), candidates_.end(), stronger);
  }

  const std::size_t n = candidates_.size();
  out.tokens_used = n;
  if (n == 0) {
    out.score = 0.5;
    out.spam_evidence = out.ham_evidence = 0.5;
    out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                          opts_.spam_cutoff);
    out.evidence = {evidence_.data(), evidence_.size()};
    return;
  }

  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (const Candidate& candidate : candidates_) {
    TokenIdEvidence& ev = evidence_[candidate.index];
    ev.used = true;
    const TokenMemo& m = memo_[ev.id];  // filled above, same epoch
    sum_log_f += m.log_f;
    sum_log_1mf += m.log_1mf;
  }

  double h;
  double s;
  util::chi2q_even_dof_pair(-2.0 * sum_log_f, -2.0 * sum_log_1mf, n, &h, &s);
  out.spam_evidence = h;
  out.ham_evidence = s;
  out.score = (1.0 + h - s) / 2.0;
  out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                        opts_.spam_cutoff);
  out.evidence = {evidence_.data(), evidence_.size()};
}

ScoreIdResult ScoreEngine::score_ids(const TokenDatabase& db,
                                     const TokenIdList& ids) {
  bind(db);
  BatchScore scored;
  score_into(db, ids, scored);
  ScoreIdResult result;
  result.score = scored.score;
  result.spam_evidence = scored.spam_evidence;
  result.ham_evidence = scored.ham_evidence;
  result.tokens_used = scored.tokens_used;
  result.verdict = scored.verdict;
  result.evidence.assign(scored.evidence.begin(), scored.evidence.end());
  return result;
}

ScoreEngine& ScoreEngine::for_current_thread(const ClassifierOptions& opts) {
  thread_local ScoreEngine engine;
  engine.rebind_options(opts);
  return engine;
}

}  // namespace sbx::spambayes
