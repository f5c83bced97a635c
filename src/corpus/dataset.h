// sbx/corpus/dataset.h
//
// Labeled datasets and the K-fold cross-validation split used throughout
// the paper's evaluation (§4.1): partition into K subsets, train on K-1 and
// test on the held-out fold, so every email serves as both training and
// test data.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "email/message.h"
#include "spambayes/tokenizer.h"
#include "util/random.h"

namespace sbx::corpus {

/// Ground-truth label of a corpus message.
enum class TrueLabel { ham, spam };

/// Human-readable label name.
std::string_view to_string(TrueLabel label);

/// One corpus email with its ground truth.
struct LabeledMessage {
  email::Message message;
  TrueLabel label = TrueLabel::ham;
};

/// A labeled corpus sample.
struct Dataset {
  std::vector<LabeledMessage> items;

  std::size_t size() const { return items.size(); }
  std::size_t count(TrueLabel label) const;
};

/// A corpus message reduced to its deduplicated interned token set — the
/// form the evaluation harness uses so each message is tokenized exactly
/// once (resolve spellings on demand via TokenInterner::spelling).
struct TokenizedMessage {
  spambayes::TokenIdSet ids;
  TrueLabel label = TrueLabel::ham;

  TokenizedMessage() = default;
  TokenizedMessage(spambayes::TokenIdSet ids_in, TrueLabel label_in);
};

/// Tokenized view of a Dataset.
struct TokenizedDataset {
  std::vector<TokenizedMessage> items;
  /// Raw (with duplicates) token count over every message — the §4.2
  /// token-ratio denominator, collected in the same pass as tokenization.
  std::size_t raw_tokens = 0;

  std::size_t size() const { return items.size(); }
  std::size_t count(TrueLabel label) const;
};

/// Tokenizes every message with the given tokenizer (one pass per message;
/// fills the interned id sets and raw_tokens).
TokenizedDataset tokenize_dataset(const Dataset& dataset,
                                  const spambayes::Tokenizer& tokenizer);

/// One train/test split: indices into the dataset.
struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Produces K cross-validation splits of [0, size). Indices are shuffled
/// with `rng` first, then dealt round-robin so fold sizes differ by at most
/// one. Throws InvalidArgument if k < 2 or k > size.
std::vector<FoldSplit> k_fold_splits(std::size_t size, std::size_t k,
                                     util::Rng& rng);

}  // namespace sbx::corpus
