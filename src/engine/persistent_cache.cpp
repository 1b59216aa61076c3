#include "engine/persistent_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mui::engine {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> parseHex64(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  const std::string digits(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 16);
  if (errno != 0 || end != digits.c_str() + digits.size()) return std::nullopt;
  return v;
}

obs::Counter& writeErrorCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_engine_persistent_cache_write_errors_total",
      "Persistent-cache append failures (cache disabled for the run)");
  return c;
}

}  // namespace

std::string PersistentResultCache::encodeRecord(std::uint64_t hash,
                                                std::string_view material,
                                                const CachedOutcome& outcome) {
  util::json::Object fields;
  fields.u("schema", 1)
      .s("type", "result")
      .s("key", hex64(hash))
      .s("material", material)
      .s("status", jobStatusName(outcome.status))
      .s("explanation", outcome.explanation)
      .u("iterations", outcome.iterations)
      .u("testPeriods", outcome.testPeriods)
      .u("learnedFacts", outcome.learnedFacts);
  return fields.str();
}

PersistentResultCache::PersistentResultCache(std::string path,
                                             bool fsyncEachAppend)
    : path_(std::move(path)), fsync_(fsyncEachAppend) {
  replayLog();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open result-cache log '" + path_ +
                             "' for append: " + std::system_category().message(errno));
  }
}

PersistentResultCache::~PersistentResultCache() {
  if (fd_ >= 0) ::close(fd_);
}

void PersistentResultCache::replayLog() {
  static obs::Counter& replayed = obs::Registry::global().counter(
      "mui_engine_persistent_cache_replayed_total",
      "Records loaded from the persistent result-cache log at startup");
  static obs::Counter& skipped = obs::Registry::global().counter(
      "mui_engine_persistent_cache_skipped_total",
      "Malformed or corrupt persistent-cache records skipped on replay");
  static obs::Counter& collisions = obs::Registry::global().counter(
      "mui_engine_persistent_cache_collisions_total",
      "Persistent-cache hashes poisoned by conflicting key material");

  std::ifstream in(path_);
  if (!in) return;  // no log yet: first run
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const bool endsWithNewline = !text.empty() && text.back() == '\n';

  std::size_t lineStart = 0;
  while (lineStart < text.size()) {
    const std::size_t eol = text.find('\n', lineStart);
    const bool lastLine = eol == std::string::npos;
    const std::string_view line(text.data() + lineStart,
                                (lastLine ? text.size() : eol) - lineStart);
    lineStart = lastLine ? text.size() : eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    const auto reject = [&] {
      ++replay_.skipped;
      skipped.inc();
      if (lastLine && !endsWithNewline) replay_.truncatedTail = true;
    };

    const auto obj = util::json::parse(line);
    if (!obj) {
      reject();
      continue;
    }
    const auto keyField = obj->str("key");
    const auto material = obj->str("material");
    const auto status = obj->str("status");
    if (obj->u64("schema") != 1u || obj->str("type") != "result" ||
        !keyField || !material || !status) {
      reject();
      continue;
    }
    const auto hash = parseHex64(*keyField);
    const auto parsedStatus = jobStatusFromName(*status);
    if (!hash || !parsedStatus || fnv1a(*material) != *hash) {
      reject();  // torn write, hand edit, or key/material divergence
      continue;
    }

    // The counters may be absent (read as 0); present, each must be a
    // plain non-negative integer literal or the record is malformed.
    bool badCounter = false;
    const auto counter = [&](const char* name) -> std::uint64_t {
      if (obj->find(name) == nullptr) return 0;
      const auto v = obj->u64(name);
      badCounter = badCounter || !v;
      return v.value_or(0);
    };
    CachedOutcome outcome;
    outcome.status = *parsedStatus;
    outcome.explanation = obj->str("explanation").value_or("");
    outcome.iterations = static_cast<std::size_t>(counter("iterations"));
    outcome.testPeriods = counter("testPeriods");
    outcome.learnedFacts = static_cast<std::size_t>(counter("learnedFacts"));
    if (badCounter) {
      reject();
      continue;
    }

    if (poisoned_.count(*hash) != 0) {
      ++replay_.skipped;
      skipped.inc();
      continue;
    }
    if (const auto it = map_.find(*hash); it != map_.end()) {
      if (it->second.material == *material) {
        it->second.outcome = std::move(outcome);  // newer record wins
        ++replay_.superseded;
        continue;
      }
      // Two different key materials behind one 64-bit hash: a genuine
      // collision. Serve neither — correctness beats hit rate.
      map_.erase(it);
      poisoned_.insert(*hash);
      ++replay_.collisions;
      collisions.inc();
      continue;
    }
    map_.emplace(*hash, Entry{std::string(*material), std::move(outcome)});
    ++replay_.replayed;
    replayed.inc();
  }
  needsLeadingNewline_ = !text.empty() && !endsWithNewline;
}

std::optional<CachedOutcome> PersistentResultCache::lookup(
    std::uint64_t hash, std::string_view material) {
  static obs::Counter& hits = obs::Registry::global().counter(
      "mui_engine_persistent_cache_hits_total", "Persistent-cache hits");
  static obs::Counter& collisions = obs::Registry::global().counter(
      "mui_engine_persistent_cache_collisions_total",
      "Persistent-cache hashes poisoned by conflicting key material");
  std::unique_lock lock(mu_);
  const auto it = map_.find(hash);
  if (it == map_.end()) return std::nullopt;
  if (it->second.material != material) {
    collisions.inc();
    return std::nullopt;
  }
  hits.inc();
  return it->second.outcome;
}

void PersistentResultCache::writeRecord(const std::string& line) {
  if (fd_ < 0) return;  // appends disabled after a write error
  std::string data;
  data.reserve(line.size() + 2);
  if (needsLeadingNewline_) data += '\n';
  data += line;
  data += '\n';
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A failing log (disk full, revoked mount) must not fail jobs: keep
      // serving from memory and stop appending.
      writeErrorCounter().inc();
      ::close(fd_);
      fd_ = -1;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  needsLeadingNewline_ = false;
  if (fsync_) ::fsync(fd_);
}

void PersistentResultCache::append(std::uint64_t hash,
                                   std::string_view material,
                                   const CachedOutcome& outcome) {
  static obs::Counter& appends = obs::Registry::global().counter(
      "mui_engine_persistent_cache_appends_total",
      "Records appended to the persistent result-cache log");
  std::unique_lock lock(mu_);
  if (poisoned_.count(hash) != 0) return;
  if (const auto it = map_.find(hash); it != map_.end()) {
    if (it->second.material != material) {
      // Runtime collision: poison in memory only; the conflicting record
      // never reaches the log.
      map_.erase(it);
      poisoned_.insert(hash);
      return;
    }
    return;  // exact duplicate: the log already has it
  }
  writeRecord(encodeRecord(hash, material, outcome));
  map_.emplace(hash,
               Entry{std::string(material), outcome});
  appends.inc();
}

std::size_t PersistentResultCache::size() const {
  std::unique_lock lock(mu_);
  return map_.size();
}

std::size_t PersistentResultCache::compact(const std::string& path) {
  // Replay through the normal constructor (fsync off: the rewrite below is
  // synced as a whole), then atomically replace the log with one live
  // record per key.
  PersistentResultCache cache(path, /*fsyncEachAppend=*/false);
  const std::string tmp = path + ".compact";
  {
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      throw std::runtime_error("cannot write compacted cache '" + tmp +
                               "': " + std::system_category().message(errno));
    }
    std::string out;
    {
      std::unique_lock lock(cache.mu_);
      for (const auto& [hash, entry] : cache.map_) {
        out += encodeRecord(hash, entry.material, entry.outcome);
        out += '\n';
      }
    }
    std::size_t written = 0;
    while (written < out.size()) {
      const ssize_t n = ::write(fd, out.data() + written,
                                out.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("cannot write compacted cache '" + tmp +
                                 "': " + std::system_category().message(err));
      }
      written += static_cast<std::size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
  }
  std::filesystem::rename(tmp, path);
  return cache.size();
}

}  // namespace mui::engine
