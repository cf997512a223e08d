// Candidate evaluation cache.
//
// Paper Table III note: "potential NNA/HW candidates are first analyzed for
// similarities to previous evaluations and duplicates are not evaluated
// twice."  Keys are canonical genome strings; thread-safe because the master
// evaluates offspring batches in parallel.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "evo/fitness.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ecad::evo {

class EvalCache {
 public:
  /// Returns the cached result (and counts a hit), or nullopt (a miss).
  std::optional<EvalResult> lookup(const std::string& key) ECAD_EXCLUDES(mutex_);

  /// Insert/overwrite a result. Overwriting a settled result (one written by
  /// an earlier store) counts in evo.cache_races_total; settling a
  /// reservation does not.
  void store(const std::string& key, const EvalResult& result) ECAD_EXCLUDES(mutex_);

  /// Claims `key` for an evaluation in flight: inserts a placeholder
  /// EvalResult{} that a later store() settles. A key that is already
  /// present is left as it is.
  void reserve(const std::string& key) ECAD_EXCLUDES(mutex_);

  /// True if present, without counting a hit against this instance's
  /// hits()/misses() tallies (the process-wide evo.cache_* metrics do count
  /// it: the breeding loops probe with contains, so it is real traffic).
  bool contains(const std::string& key) const ECAD_EXCLUDES(mutex_);

  std::size_t size() const ECAD_EXCLUDES(mutex_);
  std::size_t hits() const ECAD_EXCLUDES(mutex_);
  std::size_t misses() const ECAD_EXCLUDES(mutex_);

  /// Checkpoint restore: overwrite the hit/miss tallies so a resumed search
  /// reports the same dedup stats an uninterrupted run would.  Entries are
  /// replayed separately via store().
  void restore_stats(std::size_t hits, std::size_t misses) ECAD_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  struct Entry {
    EvalResult result;
    bool settled = false;  // false while only reserve() has written it
  };
  std::unordered_map<std::string, Entry> entries_ ECAD_GUARDED_BY(mutex_);
  std::size_t hits_ ECAD_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ ECAD_GUARDED_BY(mutex_) = 0;
};

}  // namespace ecad::evo
