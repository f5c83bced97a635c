#include "core/focused_attack.h"

#include <algorithm>
#include <string_view>

#include "email/builder.h"
#include "email/mime.h"
#include "util/error.h"

namespace sbx::core {

FocusedAttack::FocusedAttack(FocusedAttackConfig config,
                             std::vector<std::string> target_body_words,
                             util::Rng& rng)
    : config_(config), target_words_(std::move(target_body_words)) {
  if (config_.guess_probability < 0.0 || config_.guess_probability > 1.0) {
    throw InvalidArgument("FocusedAttack: guess_probability outside [0,1]");
  }
  if (target_words_.empty()) {
    throw InvalidArgument("FocusedAttack: target has no attackable words");
  }
  if (!config_.fresh_guess_per_email) {
    guessed_ = draw_guess(rng);
  }
}

std::vector<std::string> FocusedAttack::draw_guess(util::Rng& rng) const {
  std::vector<std::string> out;
  out.reserve(target_words_.size() + config_.extra_words);
  for (const auto& w : target_words_) {
    if (rng.bernoulli(config_.guess_probability)) out.push_back(w);
  }
  // §3.3: "the attack email may include additional words as well" — e.g.
  // cover text making the message look like ordinary spam. The filler
  // tokens come from a reserved namespace disjoint from the corpus
  // vocabulary, so they add spam-trained mass without touching the target
  // (by §3.4's independence, they cannot weaken the attack).
  for (std::size_t i = 0; i < config_.extra_words; ++i) {
    out.push_back("xfiller" + std::to_string(rng.index(10'000)));
  }
  // An attack email must have *some* body; with very low p the attacker may
  // guess nothing, in which case it sends a minimal junk payload (the
  // attack is simply ineffective, as the paper's p=0.1 bars show).
  if (out.empty()) out.push_back("regards");
  return out;
}

std::vector<email::Message> FocusedAttack::generate(
    const std::vector<const email::Message*>& spam_header_pool,
    std::size_t count, util::Rng& rng) const {
  if (spam_header_pool.empty()) {
    throw InvalidArgument("FocusedAttack::generate: empty header pool");
  }
  std::vector<email::Message> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const email::Message* donor =
        spam_header_pool[rng.index(spam_header_pool.size())];
    email::Message msg;
    msg.set_headers(donor->headers());
    // The donor's MIME framing must not survive: the attack body is plain
    // text, so a cloned Content-Type (e.g. multipart boundary) would hide
    // the payload from the tokenizer.
    msg.remove_headers("Content-Type");
    msg.remove_headers("Content-Transfer-Encoding");
    const std::vector<std::string>& payload =
        config_.fresh_guess_per_email ? draw_guess(rng) : guessed_;
    email::Message body_holder =
        email::MessageBuilder().body_from_words(payload).build();
    msg.set_body(body_holder.body());
    out.push_back(std::move(msg));
  }
  return out;
}

std::vector<std::string> attackable_body_words(
    const email::Message& msg, const spambayes::Tokenizer& tok) {
  const spambayes::TokenInterner& interner = spambayes::global_interner();
  std::vector<std::string> words;
  for (spambayes::TokenId id : spambayes::unique_token_ids(
           tok.tokenize_text_ids(email::extract_text(msg)))) {
    const std::string_view t = interner.spelling(id);
    // Skip pseudo-tokens: the attacker writes words into a body, so only
    // tokens that re-tokenize to themselves are usable.
    if (t.starts_with("skip:") || t.starts_with("url:")) continue;
    words.emplace_back(t);
  }
  // FocusedAttack draws one Bernoulli per word in this order.
  std::sort(words.begin(), words.end());
  return words;
}

}  // namespace sbx::core
