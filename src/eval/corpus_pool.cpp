#include "eval/corpus_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace sbx::eval {
namespace {

/// Every input a pool depends on, compared whole.
struct PoolKey {
  corpus::GeneratorConfig generator;
  std::size_t size = 0;
  double spam_fraction = 0.0;
  util::Rng rng;
  spambayes::TokenizerOptions tokenizer;

  bool operator==(const PoolKey&) const = default;
};

/// One build in progress. Its fields are guarded by PoolTable::mutex;
/// waiters keep the flight alive until they have read its outcome.
struct Flight {
  bool done = false;
  std::shared_ptr<const corpus::TokenizedDataset> pool;
  std::exception_ptr error;
};

struct Entry {
  PoolKey key;
  std::weak_ptr<const corpus::TokenizedDataset> pool;
  std::shared_ptr<Flight> flight;  // set while the pool is being built
};

struct PoolTable {
  util::Mutex mutex{util::LockRank::kLeaf, "eval::PoolTable::mutex"};
  util::CondVar landed;
  std::vector<Entry> entries SBX_GUARDED_BY(mutex);
};

PoolTable& pool_table() {
  static PoolTable table;
  return table;
}

std::atomic<std::size_t> pools_built{0};

std::shared_ptr<const corpus::TokenizedDataset> build_pool(
    const corpus::TrecLikeGenerator& gen, const PoolKey& key) {
  pools_built.fetch_add(1, std::memory_order_relaxed);
  util::Rng rng = key.rng;
  corpus::TokenizedDataset tokenized;
  {
    const corpus::Dataset dataset =
        gen.sample_mailbox(key.size, key.spam_fraction, rng);
    tokenized =
        corpus::tokenize_dataset(dataset, spambayes::Tokenizer(key.tokenizer));
  }  // the rendered messages are freed before the pool is published
  return std::make_shared<const corpus::TokenizedDataset>(std::move(tokenized));
}

}  // namespace

std::shared_ptr<const corpus::TokenizedDataset> tokenized_pool(
    const corpus::TrecLikeGenerator& gen, std::size_t size,
    double spam_fraction, util::Rng rng,
    const spambayes::TokenizerOptions& tokenizer) {
  const PoolKey key{gen.config(), size, spam_fraction, rng, tokenizer};
  PoolTable& table = pool_table();
  std::shared_ptr<Flight> flight;
  {
    util::MutexLock lock(table.mutex);
    const auto it =
        std::find_if(table.entries.begin(), table.entries.end(),
                     [&](const Entry& e) { return e.key == key; });
    if (it != table.entries.end()) {
      if (it->flight) {
        const std::shared_ptr<Flight> waited = it->flight;
        while (!waited->done) table.landed.wait(lock);
        if (waited->error) std::rethrow_exception(waited->error);
        return waited->pool;
      }
      if (auto pool = it->pool.lock()) return pool;
    }
    // Absent, or its last holder has dropped it: this caller builds. Dead
    // entries (this key's included) go first, so the table holds only
    // live pools and builds in flight.
    std::erase_if(table.entries, [](const Entry& e) {
      return !e.flight && e.pool.expired();
    });
    flight = std::make_shared<Flight>();
    table.entries.push_back(Entry{key, {}, flight});
  }

  std::shared_ptr<const corpus::TokenizedDataset> pool;
  std::exception_ptr error;
  try {
    pool = build_pool(gen, key);
  } catch (...) {
    error = std::current_exception();
  }

  {
    util::MutexLock lock(table.mutex);
    const auto it =
        std::find_if(table.entries.begin(), table.entries.end(),
                     [&](const Entry& e) { return e.flight == flight; });
    if (error) {
      table.entries.erase(it);
    } else {
      it->pool = pool;
      it->flight.reset();
    }
    flight->done = true;
    flight->pool = pool;
    flight->error = error;
  }
  table.landed.notify_all();
  if (error) std::rethrow_exception(error);
  return pool;
}

std::size_t tokenized_pools_built() {
  return pools_built.load(std::memory_order_relaxed);
}

}  // namespace sbx::eval
