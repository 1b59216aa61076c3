#pragma once
// Seeded campaign generator. A campaign is a directory of `.muml` model
// files plus job lists; the programs under test see nothing else. Every
// job's expected verdict is computed here, untimed and outside the loop
// under test: the scaled watchdog family has a closed-form verdict, and
// every job (watchdog or random legacy) is also decided by the retained
// naive ctl::ReferenceChecker on the concrete composition. The generator
// refuses to write a campaign on which the two disagree. The iterations
// and test periods every loop job must reproduce come from one direct
// in-process runIntegration over the hidden automaton, also untimed.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/job.hpp"

namespace perfbench {

enum class Workload { BatchLoop, BatchAdapter, ServeReplay };

std::optional<Workload> parseWorkload(std::string_view name);
const char* workloadName(Workload w);

/// What the benchmark knows about a job before any surface runs it.
struct Expected {
  std::string status;  // engine::jobStatusName of the true verdict
  /// Loop iterations and test periods of a direct in-process loop run
  /// (both deterministic; 0 when the pre-solver decides the job).
  long long iterations = 0;
  long long testPeriods = 0;
};

struct Campaign {
  /// Model files, relative path -> text.
  std::vector<std::pair<std::string, std::string>> files;
  /// Jobs; model paths are relative to the campaign directory until
  /// readCampaign resolves them.
  std::vector<mui::engine::Job> jobs;
  std::vector<Expected> expected;  // parallel to jobs
  /// serve_replay: jobs [0, hotCount) are the repeat-drawn pool the
  /// earlier daemon run pre-seeds; the rest are cold shapes, which are
  /// never sent as they are: each draw of a shape sends a fresh revision
  /// of it (see revisionText).
  std::size_t hotCount = 0;
  /// serve_replay: a cycle of job indices; entry i of the served sequence
  /// is draws[i % draws.size()]. A cycle repeats the mix, never a cold job,
  /// so the sequence never runs out.
  std::vector<std::size_t> draws;
};

struct GenOptions {
  Workload workload = Workload::BatchLoop;
  std::uint64_t seed = 1;
};

Campaign generate(const GenOptions& options);

/// A fresh revision of a cold shape's model text: the tag line changes the
/// text, hence the job key, but not the work.
std::string revisionText(const std::string& shapeText, const std::string& tag);

/// Writes models/, jobs.manifest, expected.tsv and (serve) draws.tsv.
void writeCampaign(const Campaign& c, const std::filesystem::path& dir);

/// Whole file as a string; throws std::runtime_error when unreadable.
std::string readText(const std::filesystem::path& path);

/// Reads a campaign written by writeCampaign; model paths come back
/// resolved against `dir`, and `files` stays empty.
Campaign readCampaign(const std::filesystem::path& dir);

/// Closed-form verdict of the scaled watchdog: the monitor must ping at
/// most `idle` ticks after a pong, and the pattern requires the pong within
/// `window` ticks of the ping; the device answers `delay` ticks after the
/// ping, then rests `rest` ticks refusing pings. A rest longer than the
/// idle window deadlocks; under the response property (rather than the
/// AG-safety one) a delay beyond the window is a real error too.
bool watchdogProven(int idle, int window, int delay, int rest,
                    bool responseProperty);

/// Self-test: decides a grid of small watchdogs with the reference checker
/// and returns every shape where it disagrees with watchdogProven.
std::vector<std::string> crossCheckWatchdogGrid();

}  // namespace perfbench
