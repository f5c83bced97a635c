#include "core/good_word_attack.h"

#include "util/error.h"

namespace sbx::core {

using spambayes::verdict_at_most;

GoodWordAttack::GoodWordAttack(std::vector<std::string> candidate_words,
                               std::size_t batch_size)
    : candidates_(std::move(candidate_words)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {
  if (candidates_.empty()) {
    throw InvalidArgument("GoodWordAttack: no candidate words");
  }
}

GoodWordAttack::Result GoodWordAttack::evade(const spambayes::Filter& filter,
                                             const email::Message& spam,
                                             std::size_t max_words,
                                             spambayes::Verdict goal) const {
  Result result;
  result.message = spam;

  spambayes::ScoreIdResult initial = filter.classify(result.message);
  result.queries = 1;
  result.score_before = initial.score;
  result.score_after = initial.score;
  if (verdict_at_most(initial.verdict, goal)) {
    result.evaded = true;  // nothing to do
    return result;
  }

  std::string padded_body = result.message.body();
  if (!padded_body.empty() && padded_body.back() != '\n') {
    padded_body.push_back('\n');
  }
  std::size_t next_candidate = 0;
  const std::size_t limit = std::min(max_words, candidates_.size());
  while (result.words_added < limit) {
    std::size_t batch =
        std::min(batch_size_, limit - result.words_added);
    for (std::size_t i = 0; i < batch; ++i) {
      padded_body += candidates_[next_candidate++];
      padded_body.push_back(i + 1 == batch ? '\n' : ' ');
    }
    result.words_added += batch;
    result.message.set_body(padded_body);
    spambayes::ScoreIdResult r = filter.classify(result.message);
    result.queries += 1;
    result.score_after = r.score;
    if (verdict_at_most(r.verdict, goal)) {
      result.evaded = true;
      return result;
    }
  }
  return result;
}

}  // namespace sbx::core
