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

const TokenDatabase::Leaf TokenDatabase::kZeroLeaf{};

std::uint64_t TokenDatabase::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TokenDatabase::Leaf* TokenDatabase::Leaf::make(std::size_t room) {
  static_assert(sizeof(Leaf) == kLeafHeaderBytes);
  static_assert(alignof(TokenCounts) <= alignof(Leaf));
  void* raw = ::operator new(kLeafHeaderBytes + room * sizeof(TokenCounts));
  Leaf* leaf = new (raw) Leaf;
  leaf->room = static_cast<std::uint16_t>(room);
  return leaf;
}

void TokenDatabase::Leaf::destroy(Leaf* leaf) {
  const std::size_t bytes = leaf->bytes();
  leaf->~Leaf();
  ::operator delete(leaf, bytes);
}

TokenCounts& TokenDatabase::writable_entry(TokenId id,
                                           std::span<const TokenId> ahead) {
  const std::size_t l = id / kLeafEntries;
  const std::size_t i = id % kLeafEntries;
  if (l >= spine_.size()) spine_.resize(l + 1);
  LeafPtr& slot = spine_[l];
  const Leaf* leaf = slot.get();
  // An acquire load of the count: reading 1 proves every other holder has
  // dropped its reference, and each drop is a release decrement, so the
  // reads another thread made through the leaf just before dropping it (a
  // reader releasing an old snapshot) happen-before every write below.
  const bool own =
      leaf != nullptr && leaf->refs.load(std::memory_order_acquire) == 1;
  if (own) {
    if (TokenCounts* entry = slot->find(i)) return *entry;
    if (leaf->size < leaf->room) return slot->insert(i);
  }
  // A new leaf replaces this one: a clone of a shared leaf, a first leaf,
  // or a sparse leaf grown or promoted. A dense leaf is cloned as is. A
  // sparse one keeps only its nonzero entries, sized for those and the
  // ones the caller writes next in this leaf: dense past kSparseMax, else
  // with room for all, so the rest are written in place. Dropping zero
  // entries loses nothing update() still needs: every entry a train has
  // applied is nonzero, and an untrain inserts nothing (its check fails
  // on an absent id first).
  const Leaf& from = leaf != nullptr ? *leaf : kZeroLeaf;
  const auto counted = [](const TokenCounts& c) {
    return c.spam != 0 || c.ham != 0;
  };
  Leaf* fresh = nullptr;
  if (from.dense()) {
    fresh = Leaf::make(kLeafEntries);
    std::copy_n(from.entries(), kLeafEntries, fresh->entries());
  } else {
    std::size_t stored = 0;  // its nonzero entries
    from.for_each_entry(
        [&](std::size_t, const TokenCounts& c) { stored += counted(c); });
    std::size_t n = stored;
    for (TokenId a : ahead) {  // stops once the leaf must be dense
      if (a / kLeafEntries != l || n > kSparseMax) break;
      n += !counted(from.get(a % kLeafEntries));
    }
    // A leaf of this database's own that filled up is being trained in
    // place: grow it fourfold, so batch training allocates it at 4, 16,
    // kSparseMax and past kSparseMax ids, not at every doubling.
    if (own) n = std::max(n, std::min(4 * stored, kSparseMax));
    if (n > kSparseMax) {
      fresh = Leaf::make(kLeafEntries);
      std::fill_n(fresh->entries(), kLeafEntries, TokenCounts{});
      from.for_each_entry([&](std::size_t offset, const TokenCounts& c) {
        fresh->entries()[offset] = c;
      });
    } else {
      fresh = Leaf::make(sparse_room(n));
      if (stored == from.size) {  // no zero entries: copy the leaf as is
        fresh->size = from.size;
        fresh->base = from.base;
        fresh->bits = from.bits;
        std::copy_n(from.entries(), from.size, fresh->entries());
      } else {
        from.for_each_entry([&](std::size_t offset, const TokenCounts& c) {
          if (counted(c)) fresh->insert(offset) = c;
        });
      }
    }
  }
  slot = LeafPtr(fresh);
  TokenCounts* entry = fresh->find(i);
  return entry != nullptr ? *entry : fresh->insert(i);
}

template <typename Check, typename Apply, typename Undo>
std::size_t TokenDatabase::update(const TokenIdSet& ids, Check&& check,
                                  Apply&& apply, Undo&& undo) {
  // One pass: each id's counts are checked, then its entry made writable
  // and changed. If a check throws, or cloning or creating a leaf throws
  // bad_alloc, the ids already changed are undone before the exception
  // leaves, so the counts are as they were (a leaf cloned on the way keeps
  // equal contents). The spine is cached in locals and reloaded only after
  // writable_entry(), the one call that can move it. A database no other
  // ever shared writes the entries its leaves store directly: the reference
  // count test and acquire in writable_entry() cost batch training and
  // RONI's train/untrain 1.3-1.6x (README "Token counts").
  const TokenId* const first = ids.data();
  const TokenId* const last = first + ids.size();
  const TokenId* next = first;
  const bool never_shared = never_shared_.get();
  const LeafPtr* spine = spine_.data();
  std::size_t spine_size = spine_.size();
  std::size_t flipped = 0;
  try {
    while (next != last) {
      // Stored entries of a database no other ever shared are written in a
      // loop with no call in it, so the running count stays in a register.
      // With the call in the loop it lived on the stack, a store-to-load
      // chain through every id that cost a train + untrain round trip ~25%.
      std::size_t run = 0;
      for (; next != last; ++next) {
        const std::size_t l = *next / kLeafEntries;
        Leaf* leaf = never_shared && l < spine_size ? spine[l].get() : nullptr;
        TokenCounts* c =
            leaf != nullptr ? leaf->find(*next % kLeafEntries) : nullptr;
        if (c == nullptr) break;
        check(*next, *c);
        run += apply(*c);
      }
      flipped += run;
      if (next == last) break;
      // Checked before the entry is made writable, so an untrain of an id
      // this database does not count inserts nothing.
      check(*next, counts(*next));
      TokenCounts& c = writable_entry(
          *next, {next, static_cast<std::size_t>(last - next)});
      spine = spine_.data();
      spine_size = spine_.size();
      flipped += apply(c);
      ++next;
    }
  } catch (...) {
    for (const TokenId* id = first; id != next; ++id) {
      undo(*spine_[*id / kLeafEntries]->find(*id % kLeafEntries));
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
  // Check and build, then commit. The class totals are checked first;
  // then each leaf both sides hold is summed into a new leaf, checking
  // every token count for a wrap. Only then does the spine change, by
  // moves that cannot throw, so a wrap or a bad_alloc leaves the contents
  // and generation_ untouched. On a self-merge both sides are the same
  // leaves, all read before any is replaced, so every count doubles, as it
  // should.
  if (nspam_ > UINT32_MAX - other.nspam_ || nham_ > UINT32_MAX - other.nham_) {
    throw InvalidArgument("TokenDatabase: merge overflows the email count");
  }
  const auto counted = [](const TokenCounts& c) {
    return c.spam != 0 || c.ham != 0;
  };
  std::vector<std::pair<std::size_t, LeafPtr>> merged;
  std::size_t vocab = vocab_;
  bool shares = false;
  for (std::size_t l = 0; l < other.spine_.size(); ++l) {
    const LeafPtr& theirs = other.spine_[l];
    if (theirs == nullptr) continue;
    const Leaf* mine = leaf_at(l);
    if (mine == &kZeroLeaf) {
      // Nothing here to add to: share their leaf instead of copying it.
      theirs->for_each_entry([&](std::size_t, const TokenCounts& c) {
        vocab += counted(c);
      });
      merged.emplace_back(l, theirs);
      shares = true;
      continue;
    }
    std::array<TokenCounts, kLeafEntries> sum{};
    mine->for_each_entry([&](std::size_t offset, const TokenCounts& c) {
      sum[offset] = c;
      vocab -= counted(c);
    });
    theirs->for_each_entry([&](std::size_t offset, const TokenCounts& c) {
      TokenCounts& s = sum[offset];
      if (s.spam > UINT32_MAX - c.spam || s.ham > UINT32_MAX - c.ham) {
        const auto id = static_cast<TokenId>(l * kLeafEntries + offset);
        throw InvalidArgument(
            "TokenDatabase: merge overflows the count of token '" +
            std::string(global_interner().spelling(id)) + "'");
      }
      s.spam += c.spam;
      s.ham += c.ham;
    });
    const auto n = static_cast<std::size_t>(
        std::count_if(sum.begin(), sum.end(), counted));
    vocab += n;
    LeafPtr leaf(Leaf::make(n > kSparseMax ? kLeafEntries : sparse_room(n)));
    for (std::size_t i = 0; i < kLeafEntries; ++i) {
      if (leaf->dense()) {
        leaf->entries()[i] = sum[i];
      } else if (counted(sum[i])) {
        leaf->insert(i) = sum[i];
      }
    }
    merged.emplace_back(l, std::move(leaf));
  }
  if (other.spine_.size() > spine_.size()) spine_.resize(other.spine_.size());
  for (auto& [l, leaf] : merged) spine_[l] = std::move(leaf);
  if (shares) {
    never_shared_.clear();
    other.never_shared_.clear();
  }
  vocab_ = vocab;
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
  for (const LeafPtr& leaf : spine_) {
    if (leaf == nullptr) continue;
    out.held += leaf->bytes();
    ++out.held_leaves;
    if (leaf->refs.load(std::memory_order_relaxed) == 1) {
      out.unshared += leaf->bytes();
      ++out.unshared_leaves;
    }
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
    TokenCounts& mine = db.writable_entry(id, {&id, 1});
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
