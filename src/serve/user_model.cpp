#include "serve/user_model.h"

#include <utility>

#include "util/error.h"

namespace sbx::serve {

OverlaySnapshot UserModel::prepare(const spambayes::TokenIdSet& ids,
                                   bool as_spam, std::uint32_t copies,
                                   bool is_train, util::Mutex& mu) {
  (void)mu;  // capability parameter: consumed by SBX_REQUIRES(mu)
  const OverlaySnapshot current = snapshot();
  if (!is_train && !current) {
    throw InvalidArgument(
        "untrain: user has no trained messages (empty overlay)");
  }
  auto next = current
                  ? std::make_shared<spambayes::TokenDatabase>(*current)
                  : std::make_shared<spambayes::TokenDatabase>();
  // TokenDatabase throws InvalidArgument when an untrained message is
  // untrained; the unpublished copy is discarded and the published overlay
  // stays as it was.
  if (is_train) {
    if (as_spam) {
      next->train_spam_ids(ids, copies);
    } else {
      next->train_ham_ids(ids, copies);
    }
  } else {
    if (as_spam) {
      next->untrain_spam_ids(ids, copies);
    } else {
      next->untrain_ham_ids(ids, copies);
    }
  }
  return next;
}

void UserModel::publish(OverlaySnapshot next, util::Mutex& mu) {
  (void)mu;
  overlay_.store(std::move(next), std::memory_order_release);
  mutations_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace sbx::serve
