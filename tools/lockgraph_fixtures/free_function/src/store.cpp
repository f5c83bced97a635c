#include "store.h"

Journal& journal() {
  static Journal instance;
  return instance;
}

void record(Registry& registry, Journal& log) {
  util::MutexLock outer(registry.mutex);
  util::MutexLock inner(log.mutex);  // Registry -> Journal: ascends
}

void Store::flush() {
  util::MutexLock outer(registry_.mutex);
  Journal& sink = journal();
  util::MutexLock inner(sink.mutex);  // the same edge, through a local
}
