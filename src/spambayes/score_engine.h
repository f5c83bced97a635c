// sbx/spambayes/score_engine.h
//
// The one SpamBayes scorer (paper §2.3, Eq. 1-4): per-token f(w), the
// delta(E) selection of the strongest tokens and the Fisher/chi-square
// combination into I(E). Classifier, Filter, the serving frontend and the
// experiment loops all end in one selection/combine routine, which runs
// over one of two per-token value sources:
//
//  * Table (a ScoreTable): an immutable table of one database generation
//    under one s, x and minimum_prob_strength. Per id one slot load, then
//    the slot's TokenScore ({f, log f, log1p(-f), sort rank}), stored once
//    per distinct (NS(w), NH(w)) pair. Ids past the table's range read as
//    zero counts. The serving frontend builds one for its base and passes
//    it in (score_batch over a table), shared by every thread.
//  * Fresh: f(w) from one database's counts, or from the 64-bit sum of a
//    base's and an overlay's counts, per message, with logs only for the
//    <= max_discriminators selected tokens. score_fresh and every batch
//    with an overlay take it.
//
// A call over one database and no overlay (score_ids, score_ids_batch,
// score_batch with a null overlay) picks its source by rent or buy: the
// engine scores fresh and counts the ids it looks up against the
// database's generation. Once that count plus the ids of the call at hand
// (a batch's are known up front) reaches the database's id range
// (TokenDatabase::id_range(), what a table build walks and allocates), it
// builds its own table and reads it until the generation or the options
// move. RONI's train / classify 25 / train never pays for a build; a
// batch as long as the id range (a fold's test set) builds at its start.
// A table's slots take at most 12 bytes per lookup served; nothing is
// tuned.
//
// Both sources run the same floating-point operations on the same inputs
// in the same candidate order, so they agree bit for bit with each other
// and with a database trained on base + overlay messages
// (tests/spambayes/interned_equivalence_test.cpp, EXPECT_EQ on doubles).
//
// Input order: a message is a set of distinct ids in any order. delta(E)
// is selected and summed in a strict total order (distance from 0.5 desc,
// spelling asc), so the score bits do not depend on the order the ids
// arrive in; only the evidence view follows the input order. Served
// classify relies on this and passes its ids in first-occurrence order,
// unsorted (Filter::message_known_token_ids).
//
// Invalidation: TokenDatabase::generation() is process-globally unique
// per mutation, so `generation() == table.generation()` proves a table
// exact; any train/untrain/merge/load moves it, and the next call drops
// the table and counts again. A batch scores one snapshot: mutating a
// database it reads from the sink throws on the next message.
//
// Thread ownership: an engine is mutable scratch, one per thread.
// for_current_thread() hands out a thread_local engine, which is what lets
// a shared *const* Filter be classified from many threads at once. A
// ScoreTable is immutable and read by any number of engines at once.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "spambayes/classifier.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

/// One scored message as seen by a batch sink: the aggregate fields of
/// ScoreIdResult plus an evidence view. `evidence` aliases the engine's
/// reused scratch buffer — valid only for the duration of the sink call
/// (copy it if you need it afterwards). This is what makes the batch path
/// allocation-free per message.
struct BatchScore {
  double score = 0.5;
  double spam_evidence = 0.0;
  double ham_evidence = 0.0;
  std::size_t tokens_used = 0;
  Verdict verdict = Verdict::unsure;
  std::span<const TokenIdEvidence> evidence;  // in input-id order
};

/// What the scorer needs of one token under fixed class totals and
/// options: f(w), and for a discriminator its log pair and its sort rank.
/// A ScoreTable stores one per distinct count pair.
struct TokenScore {
  double f = 0.5;
  double log_f = 0.0;    // log(f); set only when rank != 0
  double log_1mf = 0.0;  // log1p(-f); set only when rank != 0
  /// 0 when the token is not a discriminator (fails minimum_prob_strength),
  /// else the bitwise complement of its distance from 0.5 as IEEE-754 bits.
  /// A distance is >= 0 (or NaN, which is never admitted), so the
  /// complement has its top bit set and is never 0, and ascending rank is
  /// descending distance.
  std::uint64_t rank = 0;
};

/// An immutable TokenScore for every id of one database generation, built
/// eagerly. Per id it holds a 12-byte slot (an index into the distinct
/// count pairs' TokenScores and the spelling's first 8 bytes, the delta(E)
/// tie-break); counts repeat a lot (the 2,000-message serve base has
/// 70,076 ids over 1,480 pairs), so the libm calls run once per pair.
class ScoreTable {
 public:
  /// Scores every id `db` holds a count for under `opts`' s, x and
  /// minimum_prob_strength (the options a TokenScore depends on).
  ScoreTable(const TokenDatabase& db, const ClassifierOptions& opts);

  /// The generation of the database the table was built from.
  std::uint64_t generation() const { return generation_; }
  const ClassifierOptions& options() const { return opts_; }

  /// Ids covered: one past the highest id with counts. Ids at or above it
  /// read as the zero-count entry.
  std::size_t size() const { return slots_.size(); }
  /// Heap bytes held (slots plus distinct scores).
  std::size_t bytes() const;

 private:
  friend class ScoreEngine;

  struct Slot {
    std::uint32_t score = 0;  // index into scores_; 0 is the zero pair
    std::uint32_t prefix_hi = 0;  // spelling prefix, set when admitted
    std::uint32_t prefix_lo = 0;
  };

  std::uint64_t generation_;
  ClassifierOptions opts_;
  std::vector<TokenScore> scores_;  // [0]: counts {0, 0}
  std::vector<Slot> slots_;         // indexed by TokenId
};

/// The scorer. Owns per-message scratch and at most one ScoreTable of its
/// own (see the rent-or-buy rule above).
class ScoreEngine {
 public:
  explicit ScoreEngine(ClassifierOptions opts = {});

  /// Scores one deduplicated id set (any order; evidence entries follow
  /// the input order) against `db`, through this engine's table for db's
  /// generation or fresh.
  ScoreIdResult score_ids(const TokenDatabase& db, const TokenIdList& ids);

  /// Scores `ids` against the summed counts of `base` and `overlay` (null:
  /// `base` alone) on the fresh source, leaving the engine's table and
  /// count alone.
  ScoreIdResult score_fresh(const TokenDatabase& base,
                            const TokenDatabase* overlay,
                            const TokenIdList& ids);

  /// Zero-allocation batch path: scores ids_of(i) for i in [0, count) and
  /// calls sink(i, const BatchScore&) for each. ids_of must return a
  /// reference to a TokenIdList (deduplicated ids, any order). With a
  /// null `overlay` the batch reads the engine's table for base, which it
  /// builds first if the batch's ids take the fresh count to base's id
  /// range, or else scores fresh; with an overlay it scores fresh over
  /// base + overlay. The databases are one snapshot for the whole batch:
  /// mutating either from the sink throws sbx::InvalidArgument on the
  /// next message (generation mismatch).
  template <typename GetIds, typename Sink>
  void score_batch(const TokenDatabase& base, const TokenDatabase* overlay,
                   std::size_t count, GetIds&& ids_of, Sink&& sink) {
    const std::uint64_t base_generation = base.generation();
    const std::uint64_t overlay_generation =
        overlay != nullptr ? overlay->generation() : 0;
    // The ids still to score, seen up front by the rent-or-buy rule.
    std::size_t upcoming = 0;
    for (std::size_t i = 0; overlay == nullptr && i < count; ++i) {
      upcoming += ids_of(i).size();
    }
    BatchScore out;
    for (std::size_t i = 0; i < count; ++i) {
      check_generation(base, base_generation);
      if (overlay == nullptr) {
        const TokenIdList& ids = ids_of(i);
        score_db(base, ids, upcoming, evidence_, out);
        upcoming -= ids.size();
      } else {
        check_generation(*overlay, overlay_generation);
        score_fresh_one(base, overlay, ids_of(i), evidence_, out);
      }
      sink(i, static_cast<const BatchScore&>(out));
    }
  }

  /// The same batch path over a caller's prebuilt table: it reads no
  /// database and leaves the engine's own table and count as they were.
  /// Throws sbx::InvalidArgument when the table was built under another
  /// s, x or minimum_prob_strength than this engine's; cutoffs and
  /// max_discriminators are the engine's.
  template <typename GetIds, typename Sink>
  void score_batch(const ScoreTable& table, std::size_t count,
                   GetIds&& ids_of, Sink&& sink) {
    check_options(table.options());
    BatchScore out;
    for (std::size_t i = 0; i < count; ++i) {
      score_table(table, ids_of(i), evidence_, out);
      sink(i, static_cast<const BatchScore&>(out));
    }
  }

  /// Convenience overload over a contiguous array of id lists.
  template <typename Sink>
  void score_ids_batch(const TokenDatabase& db,
                       std::span<const TokenIdList> messages, Sink&& sink) {
    score_batch(
        db, nullptr, messages.size(),
        [&](std::size_t i) -> const TokenIdList& { return messages[i]; },
        std::forward<Sink>(sink));
  }

  /// Swaps the classifier options. Drops the engine's table and count only
  /// when s, x or minimum_prob_strength actually changed; cutoffs and
  /// max_discriminators apply at combine time and cost nothing to swap.
  void rebind_options(const ClassifierOptions& opts);

  const ClassifierOptions& options() const { return opts_; }

  /// Generation of the table this engine holds (0: none), and how many it
  /// has built. Exposed for tests of the build and invalidation contract.
  std::uint64_t cached_generation() const {
    return table_ ? table_->generation() : 0;
  }
  std::uint64_t tables_built() const { return tables_built_; }

  /// The calling thread's engine, rebound to `opts`. Filter::classify_ids
  /// and Filter::classify_batch route through this, which keeps a shared
  /// const Filter safely classifiable from any number of threads.
  static ScoreEngine& for_current_thread(const ClassifierOptions& opts);

 private:
  /// Sort key packing (distance desc, spelling-prefix asc) into one
  /// 128-bit integer: the high lane is the token's TokenScore::rank, the
  /// low lane the spelling's first 8 bytes as a big-endian integer.
  /// Ascending key order is then exactly the (distance desc, spelling asc)
  /// total order, except for prefix collisions, which the comparator
  /// resolves with a full spelling comparison.
  // GCC/Clang extension; __extension__ silences -Wpedantic (the build has
  // no 128-bit-free fallback need on the supported toolchains).
  __extension__ typedef unsigned __int128 SortKey;

  struct Candidate {
    SortKey key;
    std::uint32_t index;  // into the message's evidence
  };

  /// Throws when db no longer matches the generation a batch bound.
  void check_generation(const TokenDatabase& db, std::uint64_t bound) const;

  /// Throws unless `table` was scored under this engine's s, x and
  /// minimum_prob_strength.
  void check_options(const ClassifierOptions& table) const;

  /// Score one message into `evidence` (cleared first) and `out`.
  /// score_db applies the rent-or-buy rule (`upcoming`: the ids the call
  /// has still to score, this message's included); the others run one
  /// source each. All end in score_one.
  void score_db(const TokenDatabase& db, const TokenIdList& ids,
                std::size_t upcoming, std::vector<TokenIdEvidence>& evidence,
                BatchScore& out);
  void score_table(const ScoreTable& table, const TokenIdList& ids,
                   std::vector<TokenIdEvidence>& evidence, BatchScore& out);
  void score_fresh_one(const TokenDatabase& base,
                       const TokenDatabase* overlay, const TokenIdList& ids,
                       std::vector<TokenIdEvidence>& evidence,
                       BatchScore& out);

  /// The admit/select/combine routine behind every source (defined in the
  /// .cpp, instantiated only there). lookup(id) returns a Looked;
  /// logs_of(evidence entry) the log pair of a selected token.
  template <typename Lookup, typename LogsOf>
  void score_one(const TokenIdList& ids, Lookup&& lookup, LogsOf&& logs_of,
                 std::vector<TokenIdEvidence>& evidence, BatchScore& out);

  /// score_one into a self-contained ScoreIdResult, through `score`, one
  /// of the score_* members above.
  template <typename ScoreInto>
  ScoreIdResult to_result(const TokenIdList& ids, ScoreInto&& score);

  ClassifierOptions opts_;
  std::optional<ScoreTable> table_;     // exact for its own generation
  std::uint64_t fresh_generation_ = 0;  // generation fresh_ids_ counts for
  std::size_t fresh_ids_ = 0;           // ids scored fresh against it
  std::uint64_t tables_built_ = 0;
  // Per-message scratch, reused across the whole batch:
  std::vector<TokenIdEvidence> evidence_;
  std::vector<Candidate> candidates_;
};

}  // namespace sbx::spambayes
