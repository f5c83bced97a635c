// Tests for corpus/dataset: labels, tokenized views, K-fold properties.
#include "corpus/dataset.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "email/builder.h"
#include "util/error.h"

namespace sbx::corpus {
namespace {

Dataset tiny_dataset(std::size_t n) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    email::Message m = email::MessageBuilder()
                           .subject("msg " + std::to_string(i))
                           .body("token" + std::to_string(i) + " shared\n")
                           .build();
    d.items.push_back(
        {std::move(m), i % 2 == 0 ? TrueLabel::ham : TrueLabel::spam});
  }
  return d;
}

TEST(Dataset, Counts) {
  Dataset d = tiny_dataset(10);
  EXPECT_EQ(d.size(), 10u);
  EXPECT_EQ(d.count(TrueLabel::ham), 5u);
  EXPECT_EQ(d.count(TrueLabel::spam), 5u);
}

TEST(Dataset, LabelNames) {
  EXPECT_EQ(to_string(TrueLabel::ham), "ham");
  EXPECT_EQ(to_string(TrueLabel::spam), "spam");
}

TEST(TokenizeDataset, PreservesLabelsAndDedupes) {
  Dataset d = tiny_dataset(4);
  spambayes::Tokenizer tok;
  TokenizedDataset td = tokenize_dataset(d, tok);
  ASSERT_EQ(td.size(), 4u);
  EXPECT_EQ(td.count(TrueLabel::ham), 2u);
  for (std::size_t i = 0; i < td.size(); ++i) {
    EXPECT_EQ(td.items[i].label, d.items[i].label);
    // Id sets are sorted and unique.
    EXPECT_TRUE(std::is_sorted(td.items[i].ids.begin(),
                               td.items[i].ids.end()));
    EXPECT_EQ(std::adjacent_find(td.items[i].ids.begin(),
                                 td.items[i].ids.end()),
              td.items[i].ids.end());
  }
}

TEST(KFold, PartitionProperties) {
  util::Rng rng(5);
  const std::size_t n = 103;
  const std::size_t k = 10;
  auto folds = k_fold_splits(n, k, rng);
  ASSERT_EQ(folds.size(), k);

  std::set<std::size_t> all_test;
  for (const auto& fold : folds) {
    // Train and test are disjoint and together cover [0, n).
    EXPECT_EQ(fold.train.size() + fold.test.size(), n);
    std::set<std::size_t> train(fold.train.begin(), fold.train.end());
    for (std::size_t t : fold.test) {
      EXPECT_EQ(train.count(t), 0u);
      all_test.insert(t);
    }
    // Fold sizes differ by at most one.
    EXPECT_GE(fold.test.size(), n / k);
    EXPECT_LE(fold.test.size(), n / k + 1);
  }
  // Every index is a test item in exactly one fold.
  EXPECT_EQ(all_test.size(), n);
}

TEST(KFold, EveryIndexTestedExactlyOnce) {
  util::Rng rng(6);
  auto folds = k_fold_splits(50, 5, rng);
  std::vector<int> tested(50, 0);
  for (const auto& fold : folds) {
    for (std::size_t t : fold.test) tested[t] += 1;
  }
  for (int c : tested) EXPECT_EQ(c, 1);
}

TEST(KFold, DeterministicGivenRngSeed) {
  util::Rng a(9), b(9);
  auto fa = k_fold_splits(30, 3, a);
  auto fb = k_fold_splits(30, 3, b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].test, fb[i].test);
    EXPECT_EQ(fa[i].train, fb[i].train);
  }
}

TEST(KFold, Validation) {
  util::Rng rng(1);
  EXPECT_THROW(k_fold_splits(10, 1, rng), InvalidArgument);
  EXPECT_THROW(k_fold_splits(3, 4, rng), InvalidArgument);
  // k == size is legal (leave-one-out).
  auto folds = k_fold_splits(4, 4, rng);
  for (const auto& f : folds) EXPECT_EQ(f.test.size(), 1u);
}

}  // namespace
}  // namespace sbx::corpus
