#include "spambayes/token_db.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace sbx::spambayes {

std::uint64_t TokenDatabase::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void TokenDatabase::add(const TokenIdSet& ids, std::uint32_t copies,
                        bool spam) {
  if (copies == 0) return;
  // Validate everything before mutating anything, as remove() does: a
  // count that would wrap past 2^32 - 1 (copies comes straight from a
  // client's TrainRequest) throws with the contents and generation_
  // untouched.
  const std::uint32_t headroom = UINT32_MAX - copies;
  if ((spam ? nspam_ : nham_) > headroom) {
    throw InvalidArgument("TokenDatabase: training overflows the email count");
  }
  for (TokenId id : ids) {
    if (id < counts_.size() &&
        (spam ? counts_[id].spam : counts_[id].ham) > headroom) {
      throw InvalidArgument(
          "TokenDatabase: training overflows the count of token '" +
          std::string(global_interner().spelling(id)) + "'");
    }
  }
  // TokenIdSet is sorted, so one resize covers the whole set; the in-loop
  // guard keeps an unsorted caller (the typedefs cannot forbid one) at
  // worst slow, never out of bounds.
  if (!ids.empty() && ids.back() >= counts_.size()) {
    counts_.resize(ids.back() + 1);
  }
  for (TokenId id : ids) {
    if (id >= counts_.size()) counts_.resize(id + 1);
    TokenCounts& c = counts_[id];
    if (c.spam == 0 && c.ham == 0) ++vocab_;
    (spam ? c.spam : c.ham) += copies;
  }
  (spam ? nspam_ : nham_) += copies;
  generation_ = next_generation();
}

void TokenDatabase::remove(const TokenIdSet& ids, std::uint32_t copies,
                           bool spam) {
  if (copies == 0) return;
  std::uint32_t& total = spam ? nspam_ : nham_;
  if (total < copies) {
    throw InvalidArgument("TokenDatabase: untraining more emails than known");
  }
  // Validate everything before mutating anything: a partial decrement that
  // then threw would change the contents without moving generation_,
  // breaking the "equal generation proves equal contents" invariant
  // ScoreEngine's memoization rests on.
  for (TokenId id : ids) {
    const std::uint32_t have =
        id < counts_.size() ? (spam ? counts_[id].spam : counts_[id].ham) : 0;
    if (have < copies) {
      throw InvalidArgument(
          "TokenDatabase: untraining unknown token '" +
          std::string(global_interner().spelling(id)) + "'");
    }
  }
  for (TokenId id : ids) {
    TokenCounts& c = counts_[id];
    (spam ? c.spam : c.ham) -= copies;
    if (c.spam == 0 && c.ham == 0) --vocab_;
  }
  total -= copies;
  generation_ = next_generation();
}

void TokenDatabase::train_spam_ids(const TokenIdSet& ids,
                                   std::uint32_t copies) {
  add(ids, copies, /*spam=*/true);
}

void TokenDatabase::train_ham_ids(const TokenIdSet& ids,
                                  std::uint32_t copies) {
  add(ids, copies, /*spam=*/false);
}

void TokenDatabase::untrain_spam_ids(const TokenIdSet& ids,
                                     std::uint32_t copies) {
  remove(ids, copies, /*spam=*/true);
}

void TokenDatabase::untrain_ham_ids(const TokenIdSet& ids,
                                    std::uint32_t copies) {
  remove(ids, copies, /*spam=*/false);
}

void TokenDatabase::train_spam(const TokenSet& tokens, std::uint32_t copies) {
  train_spam_ids(intern_tokens(tokens), copies);
}

void TokenDatabase::train_ham(const TokenSet& tokens, std::uint32_t copies) {
  train_ham_ids(intern_tokens(tokens), copies);
}

void TokenDatabase::untrain_spam(const TokenSet& tokens,
                                 std::uint32_t copies) {
  untrain_spam_ids(intern_tokens(tokens), copies);
}

void TokenDatabase::untrain_ham(const TokenSet& tokens,
                                std::uint32_t copies) {
  untrain_ham_ids(intern_tokens(tokens), copies);
}

TokenCounts TokenDatabase::counts(std::string_view token) const {
  const auto id = global_interner().find(token);
  return id ? counts(*id) : TokenCounts{};
}

void TokenDatabase::merge(const TokenDatabase& other) {
  // The same check-then-change pass as add(): class totals first, then
  // every token count, so a merge that would wrap a count throws with the
  // contents and generation_ untouched.
  if (nspam_ > UINT32_MAX - other.nspam_ || nham_ > UINT32_MAX - other.nham_) {
    throw InvalidArgument("TokenDatabase: merge overflows the email count");
  }
  const std::size_t shared = std::min(counts_.size(), other.counts_.size());
  for (TokenId id = 0; id < shared; ++id) {
    const TokenCounts& mine = counts_[id];
    const TokenCounts& theirs = other.counts_[id];
    if (mine.spam > UINT32_MAX - theirs.spam ||
        mine.ham > UINT32_MAX - theirs.ham) {
      throw InvalidArgument(
          "TokenDatabase: merge overflows the count of token '" +
          std::string(global_interner().spelling(id)) + "'");
    }
  }
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size());
  }
  for (TokenId id = 0; id < other.counts_.size(); ++id) {
    const TokenCounts& theirs = other.counts_[id];
    if (theirs.spam == 0 && theirs.ham == 0) continue;
    TokenCounts& mine = counts_[id];
    if (mine.spam == 0 && mine.ham == 0) ++vocab_;
    mine.spam += theirs.spam;
    mine.ham += theirs.ham;
  }
  nspam_ += other.nspam_;
  nham_ += other.nham_;
  generation_ = next_generation();
}

std::vector<std::pair<std::string, TokenCounts>> TokenDatabase::tokens()
    const {
  const TokenInterner& interner = global_interner();
  std::vector<std::pair<std::string, TokenCounts>> out;
  out.reserve(vocab_);
  for (TokenId id = 0; id < counts_.size(); ++id) {
    const TokenCounts& c = counts_[id];
    if (c.spam == 0 && c.ham == 0) continue;
    out.emplace_back(std::string(interner.spelling(id)), c);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void TokenDatabase::save(std::ostream& out) const {
  out << "SBXDB 1\n" << nspam_ << ' ' << nham_ << '\n';
  // Spelling order: stable across runs regardless of id assignment, which
  // also makes save -> load -> save a byte-identical round trip.
  for (const auto& [token, c] : tokens()) {
    out << c.spam << ' ' << c.ham << ' ' << token << '\n';
  }
}

TokenDatabase TokenDatabase::load(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "SBXDB" || version != 1) {
    throw ParseError("TokenDatabase: bad header");
  }
  TokenDatabase db;
  if (!(in >> db.nspam_ >> db.nham_)) {
    throw ParseError("TokenDatabase: bad counts line");
  }
  std::string line;
  std::getline(in, line);  // consume rest of counts line
  TokenInterner& interner = global_interner();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TokenCounts c;
    if (!(ls >> c.spam >> c.ham)) {
      throw ParseError("TokenDatabase: bad token line: " + line);
    }
    std::string token;
    std::getline(ls, token);
    if (!token.empty() && token.front() == ' ') token.erase(0, 1);
    if (token.empty()) {
      throw ParseError("TokenDatabase: empty token in line: " + line);
    }
    if (c.spam == 0 && c.ham == 0) {
      throw ParseError("TokenDatabase: zero-count token: " + token);
    }
    const TokenId id = interner.intern(token);
    if (id >= db.counts_.size()) db.counts_.resize(id + 1);
    TokenCounts& mine = db.counts_[id];
    if (mine.spam == 0 && mine.ham == 0) ++db.vocab_;
    mine = c;
  }
  db.generation_ = next_generation();
  return db;
}

void TokenDatabase::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw IoError("TokenDatabase: cannot open for write: " + path);
  save(f);
  if (!f) throw IoError("TokenDatabase: write failed: " + path);
}

TokenDatabase TokenDatabase::load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("TokenDatabase: cannot open: " + path);
  return load(f);
}

}  // namespace sbx::spambayes
