// Cache layer under the engine and the serve daemon: JobKey injectivity,
// the ResultCache LRU bound and 64-bit-collision detection, TextCache
// disk revalidation, the PersistentResultCache log (replay, truncated
// tails, superseded records, compaction), the in-memory/durable layering,
// and concurrent access (the TSan CI job runs these tests).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache.hpp"
#include "engine/persistent_cache.hpp"

namespace {

using namespace mui;
using engine::CachedOutcome;
using engine::JobKey;
using engine::JobStatus;
using engine::PersistentResultCache;
using engine::ResultCache;
using engine::TextCache;

/// Fresh scratch directory per test, under the system temp dir.
std::filesystem::path testDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mui_cache_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  out << text;
}

engine::Job job(std::string pattern, std::string role, std::string hidden,
                std::string formula = "") {
  engine::Job j;
  j.pattern = std::move(pattern);
  j.legacyRole = std::move(role);
  j.hidden = std::move(hidden);
  j.formula = std::move(formula);
  return j;
}

CachedOutcome proven(std::string explanation) {
  return CachedOutcome{JobStatus::Proven, std::move(explanation), 2, 6, 1};
}

// ------------------------------------------------------------------ JobKey

TEST(JobKey, HashDigestsTheMaterial) {
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 100);
  EXPECT_EQ(key.hash, engine::fnv1a(key.material));
  EXPECT_NE(key.material.find("model"), std::string::npos);
}

TEST(JobKey, FieldBoundariesCannotAlias) {
  // Same concatenated bytes, different field split: the length prefixes
  // must keep the materials (and hence the hashes) apart.
  const JobKey ab_c = engine::makeJobKey("m", job("ab", "c", "h"), 0);
  const JobKey a_bc = engine::makeJobKey("m", job("a", "bc", "h"), 0);
  EXPECT_NE(ab_c.material, a_bc.material);
  EXPECT_NE(ab_c.hash, a_bc.hash);
}

TEST(JobKey, BudgetsArePartOfTheKey) {
  const auto j = job("P", "r", "h");
  const JobKey t0 = engine::makeJobKey("m", j, 0);
  const JobKey t5 = engine::makeJobKey("m", j, 5000);
  EXPECT_NE(t0.hash, t5.hash);
  auto capped = j;
  capped.maxIterations = 3;
  EXPECT_NE(engine::makeJobKey("m", capped, 0).hash, t0.hash);
}

// --------------------------------------------------------- ResultCache LRU

TEST(ResultCacheLru, EvictsLeastRecentlyUsedAtTheCap) {
  ResultCache cache(/*maxEntries=*/2);
  const JobKey k1 = engine::makeJobKey("m1", job("P", "r", "h"), 0);
  const JobKey k2 = engine::makeJobKey("m2", job("P", "r", "h"), 0);
  const JobKey k3 = engine::makeJobKey("m3", job("P", "r", "h"), 0);
  cache.store(k1, proven("one"));
  cache.store(k2, proven("two"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GT(cache.bytes(), 0u);

  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  cache.store(k3, proven("three"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(k2).has_value());
  ASSERT_TRUE(cache.lookup(k1).has_value());
  EXPECT_EQ(cache.lookup(k1)->explanation, "one");
  EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(ResultCacheLru, ByteAccountingShrinksOnEviction) {
  ResultCache cache(/*maxEntries=*/1);
  const JobKey k1 = engine::makeJobKey(std::string(1024, 'a'),
                                       job("P", "r", "h"), 0);
  const JobKey k2 = engine::makeJobKey("tiny", job("P", "r", "h"), 0);
  cache.store(k1, proven("big"));
  const std::size_t bigBytes = cache.bytes();
  cache.store(k2, proven("small"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LT(cache.bytes(), bigBytes);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ResultCacheCollision, SameHashDifferentMaterialIsAMissNotAHit) {
  ResultCache cache;
  // Fabricated 64-bit collision: same hash, different key material.
  const JobKey a{42, "material-A"};
  const JobKey b{42, "material-B"};
  cache.store(a, proven("A's verdict"));
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.collisions(), 1u);
  // The resident entry must not be clobbered by the colliding store...
  cache.store(b, proven("B's verdict"));
  EXPECT_EQ(cache.collisions(), 2u);
  // ...and A keeps getting A's verdict.
  const auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->explanation, "A's verdict");
}

// ------------------------------------------------------------ single flight

TEST(ResultCacheClaim, WaitersGetTheStoredOutcomeOrInheritAReleasedKey) {
  ResultCache cache;
  const auto blockOn = [&cache](const JobKey& key,
                                std::optional<CachedOutcome>& seen) {
    return std::thread([&cache, &key, &seen] {
      ResultCache::Claim claim;
      seen = cache.claim(key, claim);
      if (!seen) cache.store(key, proven("the waiter's run"));
    });
  };
  const auto waitUntilBlocked = [&cache](std::size_t waits) {
    while (cache.waits() < waits) std::this_thread::yield();
  };

  // The owner stores: the waiter is served its outcome as one hit.
  const JobKey stored = engine::makeJobKey("stored", job("P", "r", "h"), 0);
  ResultCache::Claim owner;
  EXPECT_FALSE(cache.claim(stored, owner).has_value());
  std::optional<CachedOutcome> seen;
  std::thread waiter = blockOn(stored, seen);
  waitUntilBlocked(1);
  cache.store(stored, proven("the owner's run"));
  waiter.join();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->explanation, "the owner's run");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // The owner lets go without storing (a timeout, say): the waiter becomes
  // the owner and runs the job itself.
  const JobKey released = engine::makeJobKey("released", job("P", "r", "h"), 0);
  EXPECT_FALSE(cache.claim(released, owner).has_value());
  waiter = blockOn(released, seen);
  waitUntilBlocked(2);
  owner.release();
  waiter.join();
  EXPECT_FALSE(seen.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  const auto hit = cache.lookup(released);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->explanation, "the waiter's run");
}

// --------------------------------------------------------------- TextCache

TEST(TextCache, ReloadsWhenTheFileChangesOnDisk) {
  const auto dir = testDir("text_reload");
  const auto path = (dir / "model.muml").string();
  writeFile(path, "rev one");
  TextCache texts;
  EXPECT_EQ(texts.get(path), "rev one");
  // A daemon must notice a re-saved model. Different size guarantees the
  // revalidation fires even on coarse-mtime filesystems.
  writeFile(path, "rev two, longer");
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now());
  EXPECT_EQ(texts.get(path), "rev two, longer");
}

TEST(TextCache, ServesCachedCopyWhenTheFileVanishes) {
  const auto dir = testDir("text_vanish");
  const auto path = (dir / "model.muml").string();
  writeFile(path, "content");
  TextCache texts;
  EXPECT_EQ(texts.get(path), "content");
  std::filesystem::remove(path);
  EXPECT_EQ(texts.get(path), "content");  // robustness over strictness
}

TEST(TextCache, PrimedEntriesAreNeverRevalidated) {
  const auto dir = testDir("text_primed");
  const auto path = (dir / "model.muml").string();
  writeFile(path, "on disk");
  TextCache texts;
  texts.prime(path, "primed");
  EXPECT_EQ(texts.get(path), "primed");
  writeFile(path, "changed on disk");
  EXPECT_EQ(texts.get(path), "primed");
}

// --------------------------------------------------------- persistent log

TEST(PersistentCache, RoundTripsAcrossReopen) {
  const auto dir = testDir("persist_roundtrip");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  {
    PersistentResultCache cache(log);
    EXPECT_EQ(cache.size(), 0u);
    cache.append(key.hash, key.material, proven("persisted"));
    EXPECT_EQ(cache.size(), 1u);
  }
  PersistentResultCache reopened(log);
  EXPECT_EQ(reopened.replayStats().replayed, 1u);
  EXPECT_EQ(reopened.replayStats().skipped, 0u);
  EXPECT_FALSE(reopened.replayStats().truncatedTail);
  const auto hit = reopened.lookup(key.hash, key.material);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->explanation, "persisted");
  EXPECT_EQ(hit->status, JobStatus::Proven);
  // A different material behind the same hash must not be served.
  EXPECT_FALSE(reopened.lookup(key.hash, "someone else").has_value());
}

TEST(PersistentCache, ReplayToleratesATruncatedTail) {
  const auto dir = testDir("persist_truncated");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  const std::string good =
      PersistentResultCache::encodeRecord(key.hash, key.material,
                                          proven("survives"));
  // A crash mid-append leaves a partial final line with no newline.
  writeFile(log, good + "\n" + good.substr(0, good.size() / 2));
  {
    PersistentResultCache cache(log);
    EXPECT_EQ(cache.replayStats().replayed, 1u);
    EXPECT_EQ(cache.replayStats().skipped, 1u);
    EXPECT_TRUE(cache.replayStats().truncatedTail);
    EXPECT_TRUE(cache.lookup(key.hash, key.material).has_value());
    // The next append must start on a fresh line despite the torn tail.
    const JobKey other = engine::makeJobKey("other", job("P", "r", "h"), 0);
    cache.append(other.hash, other.material, proven("after the tear"));
  }
  PersistentResultCache reopened(log);
  EXPECT_EQ(reopened.replayStats().replayed, 2u);
  EXPECT_FALSE(reopened.replayStats().truncatedTail);
}

TEST(PersistentCache, NewerRecordForTheSameKeySupersedes) {
  const auto dir = testDir("persist_supersede");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  writeFile(log,
            PersistentResultCache::encodeRecord(key.hash, key.material,
                                                proven("old")) +
                "\n" +
                PersistentResultCache::encodeRecord(key.hash, key.material,
                                                    proven("new")) +
                "\n");
  PersistentResultCache cache(log);
  EXPECT_EQ(cache.replayStats().replayed, 1u);
  EXPECT_EQ(cache.replayStats().superseded, 1u);
  EXPECT_EQ(cache.lookup(key.hash, key.material)->explanation, "new");
}

TEST(PersistentCache, ReplayRejectsRecordsWhoseKeyDoesNotDigestFromMaterial) {
  const auto dir = testDir("persist_badkey");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  // Hand-edited material: the stored key no longer digests from it.
  writeFile(log,
            PersistentResultCache::encodeRecord(key.hash, "tampered material",
                                                proven("evil")) +
                "\nnot json at all\n");
  PersistentResultCache cache(log);
  EXPECT_EQ(cache.replayStats().replayed, 0u);
  EXPECT_EQ(cache.replayStats().skipped, 2u);
  EXPECT_FALSE(cache.lookup(key.hash, key.material).has_value());
}

TEST(PersistentCache, ReplaySkipsRecordsWithInvalidIntegerFields) {
  const auto dir = testDir("persist_badint");
  const auto log = (dir / "cache.jsonl").string();
  // Each record is well-formed apart from one integer field that is not a
  // plain non-negative integer literal; only the untouched one replays.
  const auto record = [](const std::string& model, const std::string& from,
                         const std::string& to) {
    const JobKey key = engine::makeJobKey(model, job("P", "r", "h"), 0);
    std::string line =
        PersistentResultCache::encodeRecord(key.hash, key.material,
                                            proven("x"));
    const auto at = line.find(from);
    EXPECT_NE(at, std::string::npos) << line;
    if (at != std::string::npos) line.replace(at, from.size(), to);
    return line + "\n";
  };
  writeFile(log,
            record("ok", "", "") +
                record("neg", "\"iterations\":2", "\"iterations\":-1") +
                record("huge", "\"testPeriods\":6", "\"testPeriods\":1e999") +
                record("frac", "\"learnedFacts\":1", "\"learnedFacts\":2.5") +
                record("schema", "\"schema\":1", "\"schema\":1.5"));
  PersistentResultCache cache(log);
  EXPECT_EQ(cache.replayStats().replayed, 1u);
  EXPECT_EQ(cache.replayStats().skipped, 4u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PersistentCache, ReplaySkipsADeeplyNestedLine) {
  const auto dir = testDir("persist_nested");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  writeFile(log, "{\"schema\":1,\"type\":\"result\",\"x\":" +
                     std::string(100000, '[') + "\n" +
                     PersistentResultCache::encodeRecord(
                         key.hash, key.material, proven("after")) +
                     "\n");
  PersistentResultCache cache(log);
  EXPECT_EQ(cache.replayStats().skipped, 1u);
  EXPECT_EQ(cache.replayStats().replayed, 1u);
  EXPECT_EQ(cache.lookup(key.hash, key.material)->explanation, "after");
}

TEST(PersistentCache, RuntimeCollisionPoisonsTheHash) {
  const auto dir = testDir("persist_poison");
  const auto log = (dir / "cache.jsonl").string();
  PersistentResultCache cache(log);
  cache.append(7, "material-A", proven("A"));
  ASSERT_TRUE(cache.lookup(7, "material-A").has_value());
  // A second material behind the same hash is a detected collision: the
  // hash is poisoned and neither verdict is served from then on.
  cache.append(7, "material-B", proven("B"));
  EXPECT_FALSE(cache.lookup(7, "material-A").has_value());
  EXPECT_FALSE(cache.lookup(7, "material-B").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PersistentCache, CompactKeepsOneLiveRecordPerKey) {
  const auto dir = testDir("persist_compact");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey k1 = engine::makeJobKey("m1", job("P", "r", "h"), 0);
  const JobKey k2 = engine::makeJobKey("m2", job("P", "r", "h"), 0);
  writeFile(log,
            PersistentResultCache::encodeRecord(k1.hash, k1.material,
                                                proven("old")) +
                "\ngarbage line\n" +
                PersistentResultCache::encodeRecord(k1.hash, k1.material,
                                                    proven("new")) +
                "\n" +
                PersistentResultCache::encodeRecord(k2.hash, k2.material,
                                                    proven("two")) +
                "\n");
  EXPECT_EQ(PersistentResultCache::compact(log), 2u);
  PersistentResultCache reopened(log);
  EXPECT_EQ(reopened.replayStats().replayed, 2u);
  EXPECT_EQ(reopened.replayStats().skipped, 0u);
  EXPECT_EQ(reopened.replayStats().superseded, 0u);
  EXPECT_EQ(reopened.lookup(k1.hash, k1.material)->explanation, "new");
}

// ---------------------------------------------------------------- layering

TEST(LayeredCache, MemoryMissIsServedFromThePersistentLogAndPromoted) {
  const auto dir = testDir("layered_promote");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  PersistentResultCache persistent(log);
  persistent.append(key.hash, key.material, proven("from the log"));

  ResultCache memory;
  memory.attachPersistent(&persistent);
  const auto hit = memory.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->explanation, "from the log");
  EXPECT_EQ(memory.hits(), 1u);
  EXPECT_EQ(memory.misses(), 0u);
  EXPECT_EQ(memory.size(), 1u);  // promoted into the LRU
}

TEST(LayeredCache, StoresReachThePersistentLog) {
  const auto dir = testDir("layered_store");
  const auto log = (dir / "cache.jsonl").string();
  const JobKey key = engine::makeJobKey("model", job("P", "r", "h"), 0);
  {
    PersistentResultCache persistent(log);
    ResultCache memory;
    memory.attachPersistent(&persistent);
    memory.store(key, proven("written through"));
    EXPECT_EQ(persistent.size(), 1u);
  }
  // A brand-new pair — the restart scenario — answers from the replayed log.
  PersistentResultCache reopened(log);
  ResultCache fresh;
  fresh.attachPersistent(&reopened);
  const auto hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->explanation, "written through");
}

// -------------------------------------------------------------- concurrency

TEST(CacheConcurrency, ParallelLookupsAndStoresStayConsistent) {
  const auto dir = testDir("concurrent");
  const auto log = (dir / "cache.jsonl").string();
  PersistentResultCache persistent(log, /*fsyncEachAppend=*/false);
  ResultCache cache(/*maxEntries=*/64);
  cache.attachPersistent(&persistent);
  TextCache texts;
  texts.prime("mem:shared", "shared text");

  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  std::vector<JobKey> keys;
  keys.reserve(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(engine::makeJobKey("model " + std::to_string(k),
                                      job("P", "r", "h"), 0));
  }

  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const JobKey& key = keys[(t * 13 + round) % kKeys];
        if (const auto hit = cache.lookup(key)) {
          if (hit->status == JobStatus::Proven) served.fetch_add(1);
        } else {
          cache.store(key, proven("t" + std::to_string(t)));
        }
        texts.prime("mem:t" + std::to_string(t), "private");
        if (texts.get("mem:shared") != "shared text") std::abort();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(served.load(), 0);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.collisions(), 0u);
  for (const auto& key : keys) {
    EXPECT_TRUE(persistent.lookup(key.hash, key.material).has_value());
  }
}

}  // namespace
