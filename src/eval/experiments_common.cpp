#include "eval/experiments.h"

namespace sbx::eval {

void train_on_indices(spambayes::Filter& filter,
                      const corpus::TokenizedDataset& data,
                      const std::vector<std::size_t>& indices) {
  for (std::size_t i : indices) {
    const auto& item = data.items[i];
    if (item.label == corpus::TrueLabel::spam) {
      filter.train_spam_ids(item.ids);
    } else {
      filter.train_ham_ids(item.ids);
    }
  }
}

ConfusionMatrix classify_indices(const spambayes::Filter& filter,
                                 const corpus::TokenizedDataset& data,
                                 const std::vector<std::size_t>& indices) {
  ConfusionMatrix matrix;
  filter.classify_batch(
      indices.size(),
      [&](std::size_t i) -> const spambayes::TokenIdList& {
        return data.items[indices[i]].ids;
      },
      [&](std::size_t i, const spambayes::BatchScore& scored) {
        matrix.add(data.items[indices[i]].label, scored.verdict);
      });
  return matrix;
}

}  // namespace sbx::eval
