#include "spambayes/filter.h"

namespace sbx::spambayes {

Filter::Filter(FilterOptions opts)
    : opts_(opts), tokenizer_(opts.tokenizer), classifier_(opts.classifier) {}

TokenIdSet Filter::message_token_ids(const email::Message& msg) const {
  return unique_token_ids(tokenizer_.tokenize_ids(msg));
}

TokenIdList Filter::message_known_token_ids(const email::Message& msg) const {
  return tokenizer_.tokenize_known_ids(msg);
}

void Filter::train_ham(const email::Message& msg) {
  db_.train_ham_ids(message_token_ids(msg));
}

void Filter::train_spam(const email::Message& msg) {
  db_.train_spam_ids(message_token_ids(msg));
}

void Filter::train_spam_copies(const email::Message& msg,
                               std::uint32_t copies) {
  db_.train_spam_ids(message_token_ids(msg), copies);
}

void Filter::untrain_ham(const email::Message& msg) {
  db_.untrain_ham_ids(message_token_ids(msg));
}

void Filter::untrain_spam(const email::Message& msg) {
  db_.untrain_spam_ids(message_token_ids(msg));
}

void Filter::train_ham_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.train_ham_ids(ids, copies);
}

void Filter::train_spam_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.train_spam_ids(ids, copies);
}

void Filter::untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.untrain_ham_ids(ids, copies);
}

void Filter::untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.untrain_spam_ids(ids, copies);
}

ScoreIdResult Filter::classify(const email::Message& msg) const {
  return classifier_.score_ids(db_, message_token_ids(msg));
}

ScoreIdResult Filter::classify_ids(const TokenIdSet& ids) const {
  return ScoreEngine::for_current_thread(opts_.classifier)
      .score_ids(db_, ids);
}

void Filter::set_cutoffs(double ham_cutoff, double spam_cutoff) {
  ClassifierOptions next = opts_.classifier;
  next.ham_cutoff = ham_cutoff;
  next.spam_cutoff = spam_cutoff;
  classifier_ = Classifier(next);  // validates; throws before any change
  opts_.classifier = next;
}

}  // namespace sbx::spambayes
