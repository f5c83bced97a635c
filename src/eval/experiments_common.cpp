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

VictimInbox::VictimInbox(const corpus::TrecLikeGenerator& gen,
                         std::size_t size, double spam_fraction,
                         const spambayes::FilterOptions& filter_options,
                         util::Rng& rng)
    : inbox(gen.sample_mailbox(size, spam_fraction, rng)),
      tokenized(corpus::tokenize_dataset(
          inbox, spambayes::Tokenizer(filter_options.tokenizer))),
      filter(filter_options) {
  for (std::size_t i = 0; i < inbox.items.size(); ++i) {
    const auto& item = tokenized.items[i];
    if (item.label == corpus::TrueLabel::spam) {
      filter.train_spam_ids(item.ids);
      spam_headers.push_back(&inbox.items[i].message);
    } else {
      filter.train_ham_ids(item.ids);
    }
  }
}

}  // namespace sbx::eval
