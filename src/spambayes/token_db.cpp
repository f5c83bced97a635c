#include "spambayes/token_db.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "util/error.h"

#if defined(__SANITIZE_THREAD__)
#define SBX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SBX_TSAN 1
#endif
#endif
#ifndef SBX_TSAN
#define SBX_TSAN 0
#endif

namespace sbx::spambayes {

const TokenDatabase::Leaf TokenDatabase::kZeroLeaf{};

std::uint64_t TokenDatabase::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TokenDatabase::Leaf& TokenDatabase::writable_leaf(std::size_t l) {
  if (l >= spine_.size()) spine_.resize(l + 1);
  std::shared_ptr<Leaf>& slot = spine_[l];
  if (slot.use_count() == 1) {
    // use_count() is a relaxed load. Reading 1 proves every other holder
    // has dropped its reference, but another thread may have read the
    // leaf just before its drop (a reader releasing an old snapshot). That
    // drop is a release decrement of the count just read; an acquire fence
    // after the read pairs with it, so those reads happen-before every
    // write to the leaf that follows.
#if SBX_TSAN
    // TSan does not model fences (and GCC's -Wtsan rejects them). A copy
    // and drop is an acq_rel increment/decrement of that same count: the
    // same edge, in a form TSan sees.
    std::shared_ptr<Leaf>(slot).reset();
#else
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    return *slot;
  }
  slot = slot == nullptr ? std::make_shared<Leaf>()
                         : std::make_shared<Leaf>(*slot);
  return *slot;
}

template <typename Check, typename Apply, typename Undo>
std::size_t TokenDatabase::update(const TokenIdSet& ids, Check&& check,
                                  Apply&& apply, Undo&& undo) {
  // One pass: each id's leaf is made writable, its counts checked, then
  // changed. If a check throws, or cloning or creating a leaf throws
  // bad_alloc, the ids already changed are undone before the exception
  // leaves, so the counts are as they were (a leaf cloned on the way keeps
  // equal contents). The spine is cached in locals and reloaded only after
  // writable_leaf(), the one call that can move it. A database no other
  // ever shared writes its existing leaves directly: the use_count() test
  // and fence in writable_leaf() cost batch training and RONI's
  // train/untrain 1.3-1.6x (README "Token counts").
  const TokenId* const first = ids.data();
  const TokenId* const last = first + ids.size();
  const TokenId* next = first;
  const bool never_shared = never_shared_.get();
  std::shared_ptr<Leaf>* spine = spine_.data();
  std::size_t spine_size = spine_.size();
  std::size_t flipped = 0;
  try {
    while (next != last) {
      // Existing leaves of a database no other ever shared are written in
      // a loop with no call in it, so the running count stays in a
      // register. With the call in the loop it lived on the stack, a
      // store-to-load chain through every id that cost a train + untrain
      // round trip ~25%.
      std::size_t run = 0;
      for (; next != last; ++next) {
        const std::size_t l = *next / kLeafEntries;
        Leaf* leaf = never_shared && l < spine_size ? spine[l].get() : nullptr;
        if (leaf == nullptr) break;
        TokenCounts& c = leaf->entries[*next % kLeafEntries];
        check(*next, c);
        run += apply(c);
      }
      flipped += run;
      if (next == last) break;
      TokenCounts& c =
          writable_leaf(*next / kLeafEntries).entries[*next % kLeafEntries];
      spine = spine_.data();
      spine_size = spine_.size();
      check(*next, c);
      flipped += apply(c);
      ++next;
    }
  } catch (...) {
    for (const TokenId* id = first; id != next; ++id) {
      undo(spine_[*id / kLeafEntries]->entries[*id % kLeafEntries]);
    }
    throw;
  }
  return flipped;
}

void TokenDatabase::add(const TokenIdSet& ids, std::uint32_t copies,
                        bool spam) {
  if (copies == 0) return;
  // A count that would wrap past 2^32 - 1 (copies comes straight from a
  // client's TrainRequest) throws with the contents and generation_
  // untouched: the class total is checked first, then update() checks
  // every token count and undoes its writes if one fails.
  std::uint32_t& total = spam ? nspam_ : nham_;
  const std::uint32_t headroom = UINT32_MAX - copies;
  if (total > headroom) {
    throw InvalidArgument("TokenDatabase: training overflows the email count");
  }
  // A member pointer, not a per-id `spam ? ... : ...`: the loops then
  // address one field at a fixed offset with no select.
  const auto field = spam ? &TokenCounts::spam : &TokenCounts::ham;
  vocab_ += update(
      ids,
      [&](TokenId id, const TokenCounts& c) {
        if (c.*field > headroom) {
          throw InvalidArgument(
              "TokenDatabase: training overflows the count of token '" +
              std::string(global_interner().spelling(id)) + "'");
        }
      },
      [&](TokenCounts& c) {
        const bool was_empty = c.spam == 0 && c.ham == 0;
        c.*field += copies;
        return was_empty;
      },
      [&](TokenCounts& c) { c.*field -= copies; });
  total += copies;
  generation_ = next_generation();
}

void TokenDatabase::remove(const TokenIdSet& ids, std::uint32_t copies,
                           bool spam) {
  if (copies == 0) return;
  std::uint32_t& total = spam ? nspam_ : nham_;
  if (total < copies) {
    throw InvalidArgument("TokenDatabase: untraining more emails than known");
  }
  // Nothing may change if a token was never trained: a partial decrement
  // that then threw would change the contents without moving generation_,
  // breaking the "equal generation proves equal contents" invariant
  // ScoreEngine's score tables rest on. update() undoes its writes when a
  // check fails.
  const auto field = spam ? &TokenCounts::spam : &TokenCounts::ham;
  vocab_ -= update(
      ids,
      [&](TokenId id, const TokenCounts& c) {
        if (c.*field < copies) {
          throw InvalidArgument(
              "TokenDatabase: untraining unknown token '" +
              std::string(global_interner().spelling(id)) + "'");
        }
      },
      [&](TokenCounts& c) {
        c.*field -= copies;
        return c.spam == 0 && c.ham == 0;
      },
      [&](TokenCounts& c) { c.*field += copies; });
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

void TokenDatabase::merge(const TokenDatabase& other) {
  // The same check-then-change pass as add(): class totals first, then
  // every token count, so a merge that would wrap a count throws with the
  // contents and generation_ untouched.
  if (nspam_ > UINT32_MAX - other.nspam_ || nham_ > UINT32_MAX - other.nham_) {
    throw InvalidArgument("TokenDatabase: merge overflows the email count");
  }
  for (std::size_t l = 0; l < other.spine_.size(); ++l) {
    const Leaf* theirs = other.spine_[l].get();
    if (theirs == nullptr) continue;
    const Leaf* mine = leaf_at(l);
    for (std::size_t i = 0; i < kLeafEntries; ++i) {
      if (mine->entries[i].spam > UINT32_MAX - theirs->entries[i].spam ||
          mine->entries[i].ham > UINT32_MAX - theirs->entries[i].ham) {
        const auto id = static_cast<TokenId>(l * kLeafEntries + i);
        throw InvalidArgument(
            "TokenDatabase: merge overflows the count of token '" +
            std::string(global_interner().spelling(id)) + "'");
      }
    }
  }
  if (other.spine_.size() > spine_.size()) spine_.resize(other.spine_.size());
  // Clone every leaf both sides hold before the first count changes, as
  // update() does: a clone can throw bad_alloc. On a self-merge this makes
  // their leaf the one just made writable, so every count doubles, as it
  // should.
  for (std::size_t l = 0; l < other.spine_.size(); ++l) {
    if (other.spine_[l] != nullptr && spine_[l] != nullptr) writable_leaf(l);
  }
  for (std::size_t l = 0; l < other.spine_.size(); ++l) {
    if (other.spine_[l] == nullptr) continue;
    if (spine_[l] == nullptr) {
      // Nothing here to add to: share their leaf instead of copying it.
      spine_[l] = other.spine_[l];
      never_shared_.clear();
      other.never_shared_.clear();
      for (const TokenCounts& c : spine_[l]->entries) {
        if (c.spam != 0 || c.ham != 0) ++vocab_;
      }
      continue;
    }
    Leaf& mine = *spine_[l];
    const Leaf& theirs = *other.spine_[l];
    for (std::size_t i = 0; i < kLeafEntries; ++i) {
      const TokenCounts& t = theirs.entries[i];
      if (t.spam == 0 && t.ham == 0) continue;
      TokenCounts& m = mine.entries[i];
      if (m.spam == 0 && m.ham == 0) ++vocab_;
      m.spam += t.spam;
      m.ham += t.ham;
    }
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
  for_each_counted([&](TokenId id, const TokenCounts& c) {
    out.emplace_back(std::string(interner.spelling(id)), c);
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

TokenDatabase::LeafBytes TokenDatabase::leaf_bytes() const {
  LeafBytes out;
  for (const std::shared_ptr<Leaf>& leaf : spine_) {
    if (leaf == nullptr) continue;
    out.held += kLeafBytes;
    if (leaf.use_count() == 1) out.unshared += kLeafBytes;
  }
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
    TokenCounts& mine =
        db.writable_leaf(id / kLeafEntries).entries[id % kLeafEntries];
    // Zero counts are rejected above, so a counted entry means an earlier
    // line already set this spelling; save() never writes one twice.
    if (mine.spam != 0 || mine.ham != 0) {
      throw ParseError("TokenDatabase: duplicate token: " + token);
    }
    mine = c;
    ++db.vocab_;
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
