// tests/support/token_ids.h
//
// How tests spell tokens. The library trains, untrains and scores interned
// TokenIdSets only; tests write tokens as words and convert them here, and
// read results back as spellings.
//
// Always go through ids(): never pass a braced string list straight to a
// *_ids method. train_spam_ids({"a", "b"}) compiles — vector<uint32_t>'s
// iterator-pair constructor takes the two char pointers — and trains
// whatever lies between them.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/tokenizer.h"

namespace sbx::test {

/// Interns one token.
inline spambayes::TokenId token_id(
    std::string_view word,
    spambayes::TokenInterner& interner = spambayes::global_interner()) {
  return interner.intern(word);
}

/// Interns `words` into the ascending, deduplicated id set the *_ids
/// methods take.
template <typename Words>
spambayes::TokenIdSet ids(
    const Words& words,
    spambayes::TokenInterner& interner = spambayes::global_interner()) {
  spambayes::TokenIdList out;
  for (const auto& w : words) out.push_back(interner.intern(w));
  return spambayes::unique_token_ids(std::move(out));
}

inline spambayes::TokenIdSet ids(
    std::initializer_list<std::string_view> words,
    spambayes::TokenInterner& interner = spambayes::global_interner()) {
  return ids<std::initializer_list<std::string_view>>(words, interner);
}

/// The spelling of one id.
inline std::string_view spelling(
    spambayes::TokenId id,
    const spambayes::TokenInterner& interner = spambayes::global_interner()) {
  return interner.spelling(id);
}

/// The spellings of `ids`, in the order given.
inline std::vector<std::string> spellings(
    const spambayes::TokenIdList& ids,
    const spambayes::TokenInterner& interner = spambayes::global_interner()) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (spambayes::TokenId id : ids) out.emplace_back(interner.spelling(id));
  return out;
}

}  // namespace sbx::test
