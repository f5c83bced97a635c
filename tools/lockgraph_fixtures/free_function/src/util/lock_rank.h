// Fixture hierarchy: a registry (outer) may acquire a journal (inner).
#pragma once
namespace fix {
enum class LockRank : int {
  kRegistry = 10,
  kJournal = 20,
};
}
