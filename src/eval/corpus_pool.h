// sbx/eval/corpus_pool.h
//
// One tokenized corpus pool per distinct sampling, shared by every
// configuration in flight that asks for it. The cross-validated drivers
// (dictionary, threshold, RONI) each sample a mailbox from the generator
// and tokenize it before any trial runs; a sweep over an axis the pool
// does not depend on (attack=optimal,usenet,aspell) used to render and
// tokenize the same pool once per configuration. tokenized_pool() builds
// it once and hands every concurrent requester the same immutable object.
//
// Key. Every input the pool depends on, compared whole: the generator's
// GeneratorConfig, the size, the spam fraction, the corpus Rng's full
// state and the TokenizerOptions. Equal keys give equal contents, so who
// builds a pool never shows in any result.
//
// Single flight. The first requester of a key builds it with
// TrecLikeGenerator::sample_mailbox + corpus::tokenize_dataset, holding
// no lock, and drops the rendered Dataset before it publishes the pool.
// Concurrent requesters of an equal key block until it is published and
// receive the same pointer. A build that throws hands its exception to
// every waiter and leaves no entry behind, so the next request retries.
//
// Lifetime. Entries are held weakly: a pool lives exactly as long as some
// configuration holds it, so memory never exceeds one pool per
// configuration in flight (what each configuration held when it sampled
// its own). Configurations that run one after another, as in a
// one-thread sweep, each build their pool. There is no capacity and no
// knob.
//
// Invariant: a build submits and waits on no util::ThreadPool work.
// Waiters block pool workers (a sweep runs its configurations on them),
// so a build that needed a worker could starve; one that needs none
// always finishes. The table's mutex (rank kLeaf) is never held while
// building, interning or waiting on anything but its own CondVar.
#pragma once

#include <cstddef>
#include <memory>

#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "spambayes/options.h"
#include "util/random.h"

namespace sbx::eval {

/// The tokenized pool gen.sample_mailbox(size, spam_fraction, rng) under
/// a Tokenizer(tokenizer) produces, shared with every in-flight requester
/// of an equal key (see the file comment). `rng` is the corpus stream as
/// taken, by value: the caller's own stream is neither read nor advanced.
/// Rethrows whatever sampling or tokenizing throws.
std::shared_ptr<const corpus::TokenizedDataset> tokenized_pool(
    const corpus::TrecLikeGenerator& gen, std::size_t size,
    double spam_fraction, util::Rng rng,
    const spambayes::TokenizerOptions& tokenizer);

/// Pools built by tokenized_pool() since process start, failed builds
/// included (test introspection).
std::size_t tokenized_pools_built();

}  // namespace sbx::eval
