#include "corpus/dataset.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace sbx::corpus {

std::string_view to_string(TrueLabel label) {
  return label == TrueLabel::ham ? "ham" : "spam";
}

std::size_t Dataset::count(TrueLabel label) const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(),
                    [label](const LabeledMessage& m) {
                      return m.label == label;
                    }));
}

std::size_t TokenizedDataset::count(TrueLabel label) const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(),
                    [label](const TokenizedMessage& m) {
                      return m.label == label;
                    }));
}

TokenizedMessage::TokenizedMessage(spambayes::TokenIdSet ids_in,
                                   TrueLabel label_in)
    : ids(std::move(ids_in)), label(label_in) {}

TokenizedDataset tokenize_dataset(const Dataset& dataset,
                                  const spambayes::Tokenizer& tokenizer) {
  TokenizedDataset out;
  out.items.reserve(dataset.items.size());
  for (const auto& item : dataset.items) {
    spambayes::TokenIdList raw = tokenizer.tokenize_ids(item.message);
    out.raw_tokens += raw.size();
    out.items.emplace_back(spambayes::unique_token_ids(std::move(raw)),
                           item.label);
  }
  return out;
}

std::vector<FoldSplit> k_fold_splits(std::size_t size, std::size_t k,
                                     util::Rng& rng) {
  if (k < 2) throw InvalidArgument("k_fold_splits: k < 2");
  if (k > size) throw InvalidArgument("k_fold_splits: k > dataset size");
  std::vector<std::size_t> order(size);
  for (std::size_t i = 0; i < size; ++i) order[i] = i;
  rng.shuffle(order);

  std::vector<FoldSplit> folds(k);
  for (std::size_t i = 0; i < size; ++i) {
    folds[i % k].test.push_back(order[i]);
  }
  for (std::size_t f = 0; f < k; ++f) {
    auto& split = folds[f];
    split.train.reserve(size - split.test.size());
    for (std::size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      split.train.insert(split.train.end(), folds[g].test.begin(),
                         folds[g].test.end());
    }
  }
  return folds;
}

}  // namespace sbx::corpus
