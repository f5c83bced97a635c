// sbx/util/lock_rank.h
//
// The declared lock hierarchy, and the debug-build tracker that enforces
// it at runtime. PR 8's thread-safety annotations prove WHO guards WHAT;
// they are ordering-blind — a shard → WAL → replicator acquisition cycle
// compiles clean under -Wthread-safety and only surfaces as a production
// hang. This header makes the acquisition ORDER itself a declared,
// machine-checked invariant (the lock-ranking discipline of large
// concurrent systems; the runtime half is a per-thread lockdep):
//
//  * every util::Mutex names its LockRank (and itself) at construction —
//    there is no unranked mutex;
//  * a thread may only acquire a mutex of STRICTLY GREATER rank than
//    every mutex it already holds (equal rank counts as a violation:
//    two locks of one rank held together is an undeclared ordering);
//  * under SBX_LOCK_RANK (Debug / sanitizer builds; compiled out of
//    Release) each thread keeps a held-locks stack and abort()s — with
//    both lock names and the held stack — on any rank inversion, on
//    re-entrant acquisition (std::mutex re-lock is UB, not a deadlock
//    you can observe), and on a CondVar wait entered while OTHER locks
//    are held (the wait releases only its own mutex; anything below it
//    on the stack stays held across the block and can deadlock the
//    notifier);
//  * tools/sbx_lockgraph.py checks the same hierarchy statically across
//    translation units and emits the acquisition graph as DOT.
//
// The hierarchy (a lower value is an OUTER lock — acquired first):
//
//   rank         mutex                              outer of
//   ----------   --------------------------------   ------------------
//   kThreadPool  ThreadPool::mutex_,                nothing — pool
//                SharedPoolState::mutex             internals never
//                                                   call out while held
//   kServer      Server::threads_mutex_             (leaf in practice)
//   kShard       ModelShard::mutation_mutex_        commit, chain, WAL,
//                                                   replicator
//   kCommit      Durability::commit_mutex_          WAL (group-commit
//                                                   leader fsync pass)
//   kChain       Durability::chain_mutex_           (leaf: snapshot file
//                                                   writes only)
//   kWal         WalWriter::io_mutex_               (leaf: fd ops only)
//   kReplicator  Replicator::mutex_                 (leaf: queue ops
//                                                   only; the shipper's
//                                                   socket I/O runs
//                                                   unlocked)
//   kLeaf        TokenInterner::write_mutex_,       nothing, ever (the
//                eval::PoolTable::mutex             pool table is never
//                                                   held while interning)
//
// Why kThreadPool is the LOWEST rank even though pool internals are
// leaf-like: pool workers execute arbitrary tasks, so a task must never
// reach pool internals while holding an sbx lock — ranking the pool
// below everything turns "submit()/wait() while holding a shard lock"
// into an immediate abort instead of a starvation hang.
//
// Reading a rank-violation abort: see README "Static analysis &
// sanitizers".
#pragma once

namespace sbx::util {

/// Global lock ordering. Gaps are deliberate — a future lock slots in
/// without renumbering (tools/sbx_lockgraph.py parses these values, so
/// keep the `kName = value,` spelling).
enum class LockRank : int {
  kThreadPool = 10,
  kServer = 20,
  kShard = 30,
  kCommit = 40,
  kChain = 50,
  kWal = 60,
  kReplicator = 70,
  kLeaf = 90,
};

/// The enumerator's spelling ("kShard"), for diagnostics.
const char* lock_rank_name(LockRank rank);

#ifdef SBX_LOCK_RANK

/// Runtime tracker internals, called from util::Mutex / util::CondVar
/// (src/util/thread_annotations.h) only. Each function either returns
/// normally or prints the violation + this thread's held stack to stderr
/// and abort()s — the failure mode is a crash at the acquisition site,
/// not a hang at the deadlock site.
namespace lock_rank_detail {

/// Records `mutex` as held by this thread after checking rank order and
/// re-entrancy. Call BEFORE blocking on the underlying lock, so the
/// abort fires even when the inverted acquisition would deadlock.
void note_acquire(const void* mutex, LockRank rank, const char* name);

/// Pops `mutex` from this thread's held stack (any position: manual
/// lock()/unlock() pairs need not be LIFO, RAII guards always are).
void note_release(const void* mutex);

/// Checks a CondVar wait about to run on `mutex`: aborts when this
/// thread holds any OTHER lock (necessarily of lower rank — acquisition
/// order guarantees it) across the wait.
void note_cond_wait(const void* mutex);

/// Number of locks this thread currently holds (test introspection).
int held_count();

}  // namespace lock_rank_detail

#endif  // SBX_LOCK_RANK

}  // namespace sbx::util
