#include "spambayes/score_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <utility>

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

/// The rank of a token at `distance` from 0.5 (see TokenScore::rank), 0
/// when it is not a discriminator.
std::uint64_t rank_of(double distance, const ClassifierOptions& opts) {
  return detail::admits(distance, opts) ? ~std::bit_cast<std::uint64_t>(distance)
                                        : 0;
}

/// log(f) and log1p(-f) of a discriminator's score f. With s > 0 the
/// smoothed score is strictly inside (0,1); the clamp keeps a degenerate
/// configuration (s == 0) from producing log(0).
std::pair<double, double> log_terms(double f) {
  const double clamped = std::clamp(f, 1e-300, 1.0 - 1e-15);
  return {std::log(clamped), std::log1p(-clamped)};
}

/// One distinct count pair's TokenScore in a ScoreTable.
TokenScore token_score(double spam, double ham, double ns, double nh,
                       const ClassifierOptions& opts) {
  TokenScore out;
  out.f = detail::score_from_counts(spam, ham, ns, nh, opts);
  out.rank = rank_of(detail::distance_from_neutral(out.f), opts);
  if (out.rank != 0) std::tie(out.log_f, out.log_1mf) = log_terms(out.f);
  return out;
}

/// Whether two option sets give every token the same TokenScore: s, x and
/// minimum_prob_strength agree (cutoffs and max_discriminators apply only
/// at combine time).
bool same_token_scores(const ClassifierOptions& a, const ClassifierOptions& b) {
  return a.unknown_word_strength == b.unknown_word_strength &&
         a.unknown_word_prob == b.unknown_word_prob &&
         a.minimum_prob_strength == b.minimum_prob_strength;
}

/// One token as score_one sees it: its f(w), its rank (0: not a
/// discriminator) and, when ranked, its spelling prefix.
struct Looked {
  double f;
  std::uint64_t rank;
  std::uint64_t spell_prefix;
};

}  // namespace

ScoreTable::ScoreTable(const TokenDatabase& db, const ClassifierOptions& opts)
    : generation_(db.generation()), opts_(opts) {
  const double ns = db.spam_count();
  const double nh = db.ham_count();
  scores_.push_back(token_score(0, 0, ns, nh, opts_));
  TokenId end = 0;
  db.for_each_counted([&](TokenId id, const TokenCounts&) { end = id + 1; });
  slots_.resize(end);
  // Ids with equal counts share one TokenScore, so libm runs once per
  // distinct pair. The key packs (spam, ham) into 64 bits.
  std::unordered_map<std::uint64_t, std::uint32_t> index_of{{0, 0}};
  db.for_each_counted([&](TokenId id, const TokenCounts& c) {
    const auto [at, inserted] = index_of.try_emplace(
        std::uint64_t{c.spam} << 32 | c.ham,
        static_cast<std::uint32_t>(scores_.size()));
    if (inserted) scores_.push_back(token_score(c.spam, c.ham, ns, nh, opts_));
    slots_[id].score = at->second;
  });
  // Only discriminators are ever sorted, so only they need a prefix.
  const TokenInterner& interner = global_interner();
  for (TokenId id = 0; id < end; ++id) {
    Slot& slot = slots_[id];
    if (scores_[slot.score].rank == 0) continue;
    const std::uint64_t prefix = spelling_prefix(interner.spelling(id));
    slot.prefix_hi = static_cast<std::uint32_t>(prefix >> 32);
    slot.prefix_lo = static_cast<std::uint32_t>(prefix);
  }
  scores_.shrink_to_fit();
}

std::size_t ScoreTable::bytes() const {
  return scores_.capacity() * sizeof(TokenScore) +
         slots_.capacity() * sizeof(Slot);
}

ScoreEngine::ScoreEngine(ClassifierOptions opts) : opts_(opts) {}

void ScoreEngine::rebind_options(const ClassifierOptions& opts) {
  if (!same_token_scores(opts, opts_)) {
    table_.reset();
    fresh_generation_ = 0;  // the next call starts counting afresh
  }
  opts_ = opts;
}

void ScoreEngine::check_generation(const TokenDatabase& db,
                                   std::uint64_t bound) const {
  if (db.generation() != bound) {
    throw InvalidArgument(
        "ScoreEngine::score_batch: TokenDatabase mutated mid-batch "
        "(generation moved; a batch scores one database snapshot)");
  }
}

void ScoreEngine::check_options(const ClassifierOptions& table) const {
  if (!same_token_scores(table, opts_)) {
    throw InvalidArgument(
        "ScoreEngine::score_batch: ScoreTable was built under other s, x "
        "or minimum_prob_strength than the engine's options");
  }
}

template <typename Lookup, typename LogsOf>
void ScoreEngine::score_one(const TokenIdList& ids, Lookup&& lookup,
                            LogsOf&& logs_of,
                            std::vector<TokenIdEvidence>& evidence,
                            BatchScore& out) {
  evidence.clear();
  candidates_.clear();
  for (TokenId id : ids) {
    const Looked token = lookup(id);
    evidence.push_back({id, token.f, false});
    if (token.rank != 0) {
      candidates_.push_back(
          {(static_cast<SortKey>(token.rank) << 64) | token.spell_prefix,
           static_cast<std::uint32_t>(evidence.size() - 1)});
    }
  }
  const TokenInterner& interner = global_interner();

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
    const auto [log_f, log_1mf] = logs_of(ev);
    sum_log_f += log_f;
    sum_log_1mf += log_1mf;
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

void ScoreEngine::score_db(const TokenDatabase& db, const TokenIdList& ids,
                           std::size_t upcoming,
                           std::vector<TokenIdEvidence>& evidence,
                           BatchScore& out) {
  if (db.generation() != fresh_generation_) {
    // Another database state: a table of the old one is stale, and the
    // new one has served no lookups yet.
    table_.reset();
    fresh_generation_ = db.generation();
    fresh_ids_ = 0;
  }
  // Rent or buy: a build walks and allocates db.id_range() entries, so
  // build once the fresh lookups against this generation, served and
  // about to be, come to that many.
  if (!table_ && fresh_ids_ + upcoming >= db.id_range()) {
    table_.emplace(db, opts_);
    ++tables_built_;
  }
  if (table_) {
    score_table(*table_, ids, evidence, out);
    return;
  }
  score_fresh_one(db, nullptr, ids, evidence, out);
  fresh_ids_ += ids.size();
}

void ScoreEngine::score_table(const ScoreTable& table, const TokenIdList& ids,
                              std::vector<TokenIdEvidence>& evidence,
                              BatchScore& out) {
  // An id at or past the table's range is past the highest id its
  // database counts (perhaps interned after the build): zero counts.
  const std::size_t size = table.slots_.size();
  score_one(
      ids,
      [&](TokenId id) {
        if (id >= size) {
          const TokenScore& zero = table.scores_[0];
          return Looked{zero.f, zero.rank,
                        zero.rank != 0
                            ? spelling_prefix(global_interner().spelling(id))
                            : 0};
        }
        const ScoreTable::Slot slot = table.slots_[id];
        const TokenScore& t = table.scores_[slot.score];
        return Looked{t.f, t.rank,
                      std::uint64_t{slot.prefix_hi} << 32 | slot.prefix_lo};
      },
      [&](const TokenIdEvidence& ev) {
        const TokenScore& t =
            table.scores_[ev.id < size ? table.slots_[ev.id].score : 0];
        return std::pair{t.log_f, t.log_1mf};
      },
      evidence, out);
}

void ScoreEngine::score_fresh_one(const TokenDatabase& base,
                                  const TokenDatabase* overlay,
                                  const TokenIdList& ids,
                                  std::vector<TokenIdEvidence>& evidence,
                                  BatchScore& out) {
  // No overlay reads as zero counts.
  const bool has = overlay != nullptr;
  const double ns =
      wide_sum(base.spam_count(), has ? overlay->spam_count() : 0);
  const double nh = wide_sum(base.ham_count(), has ? overlay->ham_count() : 0);
  const TokenInterner& interner = global_interner();
  score_one(
      ids,
      [&](TokenId id) {
        const TokenCounts b = base.counts(id);
        const TokenCounts o = has ? overlay->counts(id) : TokenCounts{};
        const double f = detail::score_from_counts(
            wide_sum(b.spam, o.spam), wide_sum(b.ham, o.ham), ns, nh, opts_);
        const std::uint64_t rank =
            rank_of(detail::distance_from_neutral(f), opts_);
        return Looked{
            f, rank, rank != 0 ? spelling_prefix(interner.spelling(id)) : 0};
      },
      [](const TokenIdEvidence& ev) { return log_terms(ev.score); }, evidence,
      out);
}

template <typename ScoreInto>
ScoreIdResult ScoreEngine::to_result(const TokenIdList& ids,
                                     ScoreInto&& score) {
  ScoreIdResult result;
  result.evidence.reserve(ids.size());
  BatchScore scored;
  score(result.evidence, scored);
  result.score = scored.score;
  result.spam_evidence = scored.spam_evidence;
  result.ham_evidence = scored.ham_evidence;
  result.tokens_used = scored.tokens_used;
  result.verdict = scored.verdict;
  return result;
}

ScoreIdResult ScoreEngine::score_ids(const TokenDatabase& db,
                                     const TokenIdList& ids) {
  return to_result(ids, [&](auto& evidence, BatchScore& out) {
    score_db(db, ids, ids.size(), evidence, out);
  });
}

ScoreIdResult ScoreEngine::score_fresh(const TokenDatabase& base,
                                       const TokenDatabase* overlay,
                                       const TokenIdList& ids) {
  return to_result(ids, [&](auto& evidence, BatchScore& out) {
    score_fresh_one(base, overlay, ids, evidence, out);
  });
}

ScoreEngine& ScoreEngine::for_current_thread(const ClassifierOptions& opts) {
  thread_local ScoreEngine engine;
  engine.rebind_options(opts);
  return engine;
}

}  // namespace sbx::spambayes
