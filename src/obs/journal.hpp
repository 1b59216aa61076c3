#pragma once
// Structured run journal: one JSONL event per iteration/phase/verdict of
// the verify–test–learn loop, written by runIntegration and the batch
// engine and aggregated by `mui stats` (see obs/stats.hpp). Events are
// built with util::json::Object and read back with util::json::parse.
//
// Schema policy: every event carries `"schema": kJournalSchemaVersion` and
// a `"type"` discriminator; existing fields of an event type are never
// renamed or retyped within a schema version — additions are allowed, and
// any breaking change bumps the version. Consumers must skip events whose
// schema they do not understand. The event catalog lives in
// docs/OBSERVABILITY.md.

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace mui::obs {

// v2 (additive over v1): every event produced on behalf of a correlated
// job carries its "ulid", and "job" events gained "presolved". Consumers
// accept the whole [kJournalMinSchemaVersion, kJournalSchemaVersion] range
// — v1 and v2 lines may interleave in one journal (e.g. a daemon restarted
// across an upgrade appending to the same file).
inline constexpr int kJournalSchemaVersion = 2;
inline constexpr int kJournalMinSchemaVersion = 1;

/// Thread-safe JSONL sink. Writers call event(); the owner serializes the
/// whole journal with text() once the run is quiesced.
class Journal {
 public:
  /// Appends `{"schema":N,"type":"<type>",<fields>}` as one line.
  void event(std::string_view type, const util::json::Object& fields);

  std::string text() const;
  std::size_t eventCount() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::string text_;
  std::size_t events_ = 0;
};

}  // namespace mui::obs
