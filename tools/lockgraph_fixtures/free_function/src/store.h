// Fixture: two structs whose mutexes share one member name, so only the
// receiver's declared type tells them apart. A free function locks them
// through its parameters, a method through a member and a local
// reference; both must yield the edge Registry::mutex -> Journal::mutex.
#pragma once
#include "util/lock_rank.h"

struct Registry {
  util::Mutex mutex{util::LockRank::kRegistry, "Registry::mutex"};
};

struct Journal {
  util::Mutex mutex{util::LockRank::kJournal, "Journal::mutex"};
};

Journal& journal();
void record(Registry& registry, Journal& log);

class Store {
 public:
  void flush();

 private:
  Registry registry_;
};
