#include "engine/cache.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/persistent_cache.hpp"
#include "obs/metrics.hpp"

namespace mui::engine {

std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

JobKey makeJobKey(std::string_view modelText, const Job& job,
                  std::uint64_t timeoutMs) {
  const std::string budgets =
      std::to_string(timeoutMs) + "\x1f" + std::to_string(job.maxIterations);
  const std::string_view fields[] = {modelText,  job.pattern, job.legacyRole,
                                     job.hidden, job.formula, budgets};
  JobKey key;
  std::size_t total = budgets.size();
  for (const std::string_view f : fields) total += f.size() + 24;
  key.material.reserve(total);
  for (const std::string_view f : fields) {
    key.material += std::to_string(f.size());
    key.material += ':';
    key.material += f;
    key.material += '\x1f';
  }
  key.hash = fnv1a(key.material);
  return key;
}

void TextCache::prime(std::string path, std::string text) {
  std::unique_lock lock(mu_);
  texts_[std::move(path)] = Entry{std::move(text), /*fromDisk=*/false, {}, 0};
}

TextCache::Entry TextCache::readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Entry entry{buf.str(), /*fromDisk=*/true, {}, 0};
  // Stat after the read: a writer racing the read is caught by the next
  // get() seeing a newer mtime/size than the one recorded here.
  std::error_code ec;
  entry.mtime = std::filesystem::last_write_time(path, ec);
  if (!ec) entry.size = std::filesystem::file_size(path, ec);
  return entry;
}

std::string TextCache::get(const std::string& path) {
  std::unique_lock lock(mu_);
  if (const auto it = texts_.find(path); it != texts_.end()) {
    if (!it->second.fromDisk) return it->second.text;
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec) return it->second.text;  // file vanished: serve the cached copy
    const auto size = std::filesystem::file_size(path, ec);
    if (ec || (mtime == it->second.mtime && size == it->second.size)) {
      return it->second.text;
    }
    static obs::Counter& reloads = obs::Registry::global().counter(
        "mui_engine_text_cache_reloads_total",
        "Model files re-read after an mtime/size change");
    reloads.inc();
    it->second = readFile(path);
    return it->second.text;
  }
  return texts_.emplace(path, readFile(path)).first->second.text;
}

ResultCache::ResultCache(std::size_t maxEntries)
    : maxEntries_(maxEntries == 0 ? 1 : maxEntries) {}

void ResultCache::attachPersistent(PersistentResultCache* backing) {
  std::unique_lock lock(mu_);
  persistent_ = backing;
}

std::size_t ResultCache::entryBytes(const Entry& e) {
  return sizeof(Entry) + e.material.size() + e.outcome.explanation.size();
}

void ResultCache::evictIfNeeded() {
  static obs::Counter& evictions = obs::Registry::global().counter(
      "mui_engine_cache_evictions_total", "Result-cache LRU evictions");
  static obs::Gauge& bytes = obs::Registry::global().gauge(
      "mui_engine_cache_bytes", "Approximate resident result-cache bytes",
      "bytes");
  while (map_.size() > maxEntries_) {
    const Entry& victim = lru_.back();
    bytes_ -= entryBytes(victim);
    map_.erase(victim.hash);
    lru_.pop_back();
    ++evictions_;
    evictions.inc();
  }
  bytes.set(static_cast<std::int64_t>(bytes_));
}

std::optional<CachedOutcome> ResultCache::findLocked(const JobKey& key) {
  static obs::Counter& collisions = obs::Registry::global().counter(
      "mui_engine_cache_collisions_total",
      "Result-cache lookups whose hash matched but key material differed");
  if (const auto it = map_.find(key.hash); it != map_.end()) {
    if (it->second->material == key.material) {
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
      return it->second->outcome;
    }
    ++collisions_;
    collisions.inc();
    return std::nullopt;
  }
  if (persistent_ != nullptr) {
    if (auto hit = persistent_->lookup(key.hash, key.material)) {
      // Promote to memory so repeated duplicates stop touching the log map.
      lru_.push_front(Entry{key.hash, key.material, *hit});
      map_[key.hash] = lru_.begin();
      bytes_ += entryBytes(lru_.front());
      evictIfNeeded();
      return hit;
    }
  }
  return std::nullopt;
}

void ResultCache::countLocked(bool hit) {
  static obs::Counter& hits = obs::Registry::global().counter(
      "mui_engine_cache_hits_total", "Result-cache hits");
  static obs::Counter& misses = obs::Registry::global().counter(
      "mui_engine_cache_misses_total", "Result-cache misses");
  if (hit) {
    ++hits_;
    hits.inc();
  } else {
    ++misses_;
    misses.inc();
  }
}

std::optional<CachedOutcome> ResultCache::lookup(const JobKey& key) {
  std::unique_lock lock(mu_);
  auto hit = findLocked(key);
  countLocked(hit.has_value());
  return hit;
}

std::optional<CachedOutcome> ResultCache::claim(const JobKey& key,
                                                Claim& out) {
  static obs::Counter& waits = obs::Registry::global().counter(
      "mui_engine_cache_claim_waits_total",
      "Result-cache claims that waited for a duplicate in flight");
  out.release();
  std::unique_lock lock(mu_);
  if (inFlight_.count(key.hash) != 0) {
    ++waits_;
    waits.inc();
    landed_.wait(lock, [&] { return inFlight_.count(key.hash) == 0; });
  }
  auto hit = findLocked(key);
  countLocked(hit.has_value());
  if (!hit) {
    inFlight_[key.hash] = ++lastToken_;
    out.cache_ = this;
    out.hash_ = key.hash;
    out.token_ = lastToken_;
  }
  return hit;
}

void ResultCache::Claim::release() {
  if (cache_ == nullptr) return;
  cache_->releaseClaim(hash_, token_);
  cache_ = nullptr;
}

void ResultCache::releaseClaim(std::uint64_t hash, std::uint64_t token) {
  std::unique_lock lock(mu_);
  // After a store() of the key the mark is gone, or belongs to a later
  // claimant: either way it is not this claim's to release.
  const auto it = inFlight_.find(hash);
  if (it == inFlight_.end() || it->second != token) return;
  inFlight_.erase(it);
  landed_.notify_all();
}

void ResultCache::store(const JobKey& key, CachedOutcome outcome) {
  std::unique_lock lock(mu_);
  if (inFlight_.erase(key.hash) != 0) landed_.notify_all();
  if (const auto it = map_.find(key.hash); it != map_.end()) {
    if (it->second->material != key.material) {
      ++collisions_;  // keep the resident entry; do not poison the log
      return;
    }
    bytes_ -= entryBytes(*it->second);
    it->second->outcome = outcome;
    bytes_ += entryBytes(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key.hash, key.material, outcome});
    map_[key.hash] = lru_.begin();
    bytes_ += entryBytes(lru_.front());
    evictIfNeeded();
  }
  if (persistent_ != nullptr) {
    persistent_->append(key.hash, key.material, outcome);
  }
}

std::size_t ResultCache::hits() const {
  std::unique_lock lock(mu_);
  return hits_;
}

std::size_t ResultCache::misses() const {
  std::unique_lock lock(mu_);
  return misses_;
}

std::size_t ResultCache::evictions() const {
  std::unique_lock lock(mu_);
  return evictions_;
}

std::size_t ResultCache::collisions() const {
  std::unique_lock lock(mu_);
  return collisions_;
}

std::size_t ResultCache::waits() const {
  std::unique_lock lock(mu_);
  return waits_;
}

std::size_t ResultCache::size() const {
  std::unique_lock lock(mu_);
  return map_.size();
}

std::size_t ResultCache::bytes() const {
  std::unique_lock lock(mu_);
  return bytes_;
}

}  // namespace mui::engine
