#pragma once
// Shared-work caches for the batch engine and the serve daemon. Both are
// thread-safe behind a coarse mutex — every cached unit of work is orders
// of magnitude more expensive than the lock.
//
// TextCache — model-file contents keyed by path, so N jobs over the same
// .muml file read it once. prime() registers in-memory models under virtual
// paths (benches and tests run whole batches without touching the disk).
// Entries read from disk are revalidated against the file's mtime and size
// on every get(), so a long-running daemon serving a re-saved model file
// re-reads it instead of returning a stale parse; primed entries are never
// invalidated. A file that disappears after being cached keeps serving the
// cached copy (daemon robustness over strictness).
//
// ResultCache — completed integration outcomes keyed by a content hash of
// everything that determines the loop's behavior: the model text (which
// fixes the context automata and the hidden component, i.e. every
// composition and chaotic closure the loop will build), the pattern / role
// / hidden-automaton names, the property, and the iteration and deadline
// budgets. Repeated jobs over the same model revision therefore share the
// whole verification/testing/learning effort, not just the parse. Keying
// by content (not path) means two manifests pointing different paths at
// identical model revisions still share. Timeout and engine-error outcomes
// are never stored: they are not functions of the key alone.
//
// Concurrent duplicates run once. engine::runJob looks keys up through
// claim(): the first miss marks the key in flight, and a duplicate that
// starts while its twin runs waits for it and is reported as a hit. If the
// twin ends without storing (timeout, engine error, adapter failure), the
// waiter runs the job itself. Jobs on an external legacy release their
// claim as soon as the binding says so: they are never stored, so their
// duplicates never wait for a result and run side by side.
//
// A JobKey carries both the 64-bit fnv1a digest (the map key) and the full
// length-prefixed key material it digests. Lookups compare the material on
// a hash match, so a 64-bit collision is detected and reported as a miss
// instead of silently serving the wrong verdict. The cache is bounded by
// an LRU entry cap (a long-running daemon cannot tolerate unbounded
// growth) and can be layered over a PersistentResultCache
// (persistent_cache.hpp) so outcomes survive across runs and clients.

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/job.hpp"

namespace mui::engine {

class PersistentResultCache;

/// 64-bit FNV-1a digest of `data`; chain fields by passing the previous
/// digest as `seed` (the key material embeds length prefixes so chained
/// fields cannot alias across boundaries).
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t seed = 14695981039346656037ull);

/// Content key of one job: `material` is the injective length-prefixed
/// concatenation of model text, pattern, role, hidden automaton, formula,
/// and budgets; `hash` is fnv1a(material). Two keys are equal iff their
/// materials are byte-identical — the hash alone is only a map index.
struct JobKey {
  std::uint64_t hash = 0;
  std::string material;
};

/// Builds the key for (modelText, job, effective timeout). Every field is
/// encoded as `<decimal length>:<bytes>\x1f`, which makes the material an
/// injective function of the tuple and mixes the field lengths into the
/// digest.
JobKey makeJobKey(std::string_view modelText, const Job& job,
                  std::uint64_t timeoutMs);

class TextCache {
 public:
  /// Registers in-memory content under a (virtual) path, replacing any
  /// previous entry. Primed entries are never invalidated.
  void prime(std::string path, std::string text);

  /// Returns the content for `path`, reading the file on first use and
  /// re-reading it when its mtime or size changed since it was cached.
  /// Throws std::runtime_error if the file cannot be read.
  std::string get(const std::string& path);

 private:
  struct Entry {
    std::string text;
    bool fromDisk = false;  // primed entries skip revalidation
    std::filesystem::file_time_type mtime{};
    std::uintmax_t size = 0;
  };

  static Entry readFile(const std::string& path);

  std::mutex mu_;
  std::unordered_map<std::string, Entry> texts_;
};

/// The terminal outcome of a job key — everything a duplicate job needs to
/// report without re-running the loop.
struct CachedOutcome {
  JobStatus status = JobStatus::EngineError;
  std::string explanation;
  std::size_t iterations = 0;
  std::uint64_t testPeriods = 0;
  std::size_t learnedFacts = 0;
};

class ResultCache {
 public:
  /// Generous default for the LRU entry cap: far beyond any batch, small
  /// enough that a daemon full of multi-KB model texts stays in the
  /// hundreds of MB.
  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;

  explicit ResultCache(std::size_t maxEntries = kDefaultMaxEntries);

  /// The in-flight mark on a key whose outcome one job is computing (see
  /// claim()). Releasing it, explicitly or by destruction, without a
  /// store() of the key hands the key to the next waiting claimant.
  class Claim {
   public:
    Claim() = default;
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim() { release(); }
    void release();

   private:
    friend class ResultCache;
    ResultCache* cache_ = nullptr;
    std::uint64_t hash_ = 0;
    std::uint64_t token_ = 0;
  };

  /// Layers a durable cache underneath: memory misses consult it, stores
  /// append to it, and hits found there are promoted into memory. The
  /// backing must outlive this cache.
  void attachPersistent(PersistentResultCache* backing);

  /// Returns the cached outcome and counts a hit, or counts a miss. A
  /// hash match whose material differs is a detected collision: counted,
  /// reported as a miss, and the resident entry is left alone.
  std::optional<CachedOutcome> lookup(const JobKey& key);
  /// Single-flight lookup. A hit returns the outcome as lookup() does. A
  /// miss marks the key in flight, hands the mark to `out` and returns
  /// nullopt; the caller computes the outcome and stores it, or lets the
  /// claim go. If the key is already in flight, waits until its owner
  /// stores it (then counts one hit and no miss) or releases it (then
  /// becomes the owner). Each call counts exactly one hit or one miss.
  std::optional<CachedOutcome> claim(const JobKey& key, Claim& out);
  /// Stores the outcome and wakes every claimant waiting on the key.
  void store(const JobKey& key, CachedOutcome outcome);

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t evictions() const;
  [[nodiscard]] std::size_t collisions() const;
  /// Claims that had to wait for a duplicate in flight.
  [[nodiscard]] std::size_t waits() const;
  [[nodiscard]] std::size_t size() const;
  /// Approximate resident bytes (key material + outcome payloads).
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string material;
    CachedOutcome outcome;
  };
  using LruList = std::list<Entry>;

  static std::size_t entryBytes(const Entry& e);
  void evictIfNeeded();  // callers hold mu_
  // Lookup without hit/miss counting, and the counting; callers hold mu_.
  std::optional<CachedOutcome> findLocked(const JobKey& key);
  void countLocked(bool hit);
  void releaseClaim(std::uint64_t hash, std::uint64_t token);

  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> map_;
  // Keys in flight, by hash, with the owning claim's token. A colliding key
  // only waits for the other one to land, then misses and claims.
  std::unordered_map<std::uint64_t, std::uint64_t> inFlight_;
  std::condition_variable landed_;
  std::uint64_t lastToken_ = 0;
  PersistentResultCache* persistent_ = nullptr;
  std::size_t maxEntries_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t collisions_ = 0;
  std::size_t waits_ = 0;
};

}  // namespace mui::engine
