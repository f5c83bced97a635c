#include "spambayes/filter.h"

#include "util/error.h"

namespace sbx::spambayes {

Filter::Filter(FilterOptions opts)
    : opts_(opts), tokenizer_(opts.tokenizer), classifier_(opts.classifier) {}

TokenSet Filter::message_tokens(const email::Message& msg) const {
  return unique_tokens(tokenizer_.tokenize(msg));
}

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

void Filter::train_ham_tokens(const TokenSet& tokens, std::uint32_t copies) {
  db_.train_ham(tokens, copies);
}

void Filter::train_spam_tokens(const TokenSet& tokens, std::uint32_t copies) {
  db_.train_spam(tokens, copies);
}

void Filter::untrain_ham_tokens(const TokenSet& tokens,
                                std::uint32_t copies) {
  db_.untrain_ham(tokens, copies);
}

void Filter::untrain_spam_tokens(const TokenSet& tokens,
                                 std::uint32_t copies) {
  db_.untrain_spam(tokens, copies);
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

ScoreResult Filter::classify(const email::Message& msg) const {
  return classifier_.score(db_, message_tokens(msg));
}

ScoreResult Filter::classify_tokens(const TokenSet& tokens) const {
  return classifier_.score(db_, tokens);
}

ScoreIdResult Filter::classify_ids(const TokenIdSet& ids) const {
  return ScoreEngine::for_current_thread(opts_.classifier)
      .score_ids(db_, ids);
}

void Filter::set_cutoffs(double ham_cutoff, double spam_cutoff) {
  if (ham_cutoff < 0 || spam_cutoff > 1 || ham_cutoff > spam_cutoff) {
    throw InvalidArgument("Filter::set_cutoffs: invalid thresholds");
  }
  opts_.classifier.ham_cutoff = ham_cutoff;
  opts_.classifier.spam_cutoff = spam_cutoff;
  classifier_ = Classifier(opts_.classifier);
}

}  // namespace sbx::spambayes
