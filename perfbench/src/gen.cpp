#include "gen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/semantic.hpp"
#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "engine/manifest.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mui::engine::Job;
using mui::util::Rng;

// ---- scaled watchdog ------------------------------------------------------

struct WatchdogShape {
  int idle = 3;    // monitor pings at most `idle` ticks after a pong
  int window = 2;  // response bound of the pattern constraint
  int delay = 1;   // device ticks from ping to pong
  int rest = 0;    // device ticks after pong during which it refuses pings
};

/// The response property the loop has to decide; the AG-safety property
/// below is what the pre-solver decides instead.
const char* const kSafetyFormula = "AG !(monitor.waiting && device.ready)";

std::string watchdogText(const WatchdogShape& s, const std::string& device,
                         const std::string& header) {
  std::ostringstream o;
  o << "# " << header << "\n"
    << "rtsc monitorRole {\n  output ping;\n  input pong;\n  clock c;\n"
    << "  location idle invariant c <= " << s.idle << ";\n"
    << "  location waiting;\n  initial idle;\n"
    << "  idle -> waiting : emit ping reset c;\n"
    << "  waiting -> idle : trigger pong reset c;\n}\n\n"
    << "rtsc deviceRole {\n  input ping;\n  output pong;\n  clock d;\n"
    << "  location ready;\n  location serving invariant d <= 0;\n"
    << "  initial ready;\n  ready -> serving : trigger ping reset d;\n"
    << "  serving -> ready : emit pong;\n}\n\n"
    << "pattern Watchdog {\n  role monitor uses monitorRole;\n"
    << "  role device uses deviceRole invariant "
       "\"AG (device.serving -> AF[1,1] device.ready)\";\n"
    << "  connector direct;\n"
    << "  constraint \"AG (monitor.waiting -> AF[1," << s.window
    << "] monitor.idle)\";\n}\n\n"
    << "automaton " << device << " {\n  input ping; output pong;\n"
    << "  allow MUI003;\n  initial ready;\n  ready -> ready : ;\n";
  // Only the textbook one-tick device has a `serving` state, so the role
  // invariant binds there and is vacuous elsewhere; the closed form does
  // not depend on it.
  const auto busy = [&](int i) {
    return s.delay == 1 && s.rest == 0 ? std::string("serving")
                                       : "busy" + std::to_string(i);
  };
  const auto rest = [](int i) { return "rest" + std::to_string(i); };
  o << "  ready -> " << busy(1) << " : ping / ;\n";
  for (int i = 1; i < s.delay; ++i) {
    o << "  " << busy(i) << " -> " << busy(i + 1) << " : ;\n";
  }
  o << "  " << busy(s.delay) << " -> " << (s.rest > 0 ? rest(1) : "ready")
    << " : / pong;\n";
  for (int i = 1; i <= s.rest; ++i) {
    o << "  " << rest(i) << " -> " << (i < s.rest ? rest(i + 1) : "ready")
      << " : ;\n";
  }
  o << "}\n";
  return o.str();
}

// ---- random legacy with a mirrored partial context ------------------------

struct Edge {
  int from = 0;
  int to = 0;
  int input = -1;   // input signal consumed by the legacy, -1 = none
  int output = -1;  // output signal emitted by the legacy, -1 = none
};

constexpr int kSignals = 2;  // a0 a1 in, b0 b1 out

/// A random legacy that keeps coming home: a random tree grown from q0
/// whose leaves (and some inner states) return to q0. With `cycle`, one
/// extra edge closes a cycle that avoids q0, which breaks the bounded
/// "returns home" property if the context drives the legacy there.
/// Slot 0 of a state is its input-free move (silent or one output), slot
/// 1 + j consumes a_j: one edge per slot keeps the legacy input-
/// deterministic, and every step takes at most one signal.
std::vector<Edge> randomLegacy(Rng& rng, int states, bool cycle) {
  std::vector<std::vector<char>> used(states,
                                      std::vector<char>(kSignals + 1, 0));
  std::vector<int> parent(states, -1);
  std::vector<int> children(states, 0);
  std::vector<Edge> edges;
  const auto freeSlot = [&](int s) -> int {
    std::vector<int> free;
    for (int k = 0; k <= kSignals; ++k) {
      if (!used[s][k]) free.push_back(k);
    }
    return free.empty() ? -1 : free[rng.below(free.size())];
  };
  const auto addEdge = [&](int from, int to) {
    const int slot = freeSlot(from);
    if (slot < 0) return false;
    used[from][slot] = 1;
    Edge e;
    e.from = from;
    e.to = to;
    if (slot == 0) {
      if (rng.chance(1, 2)) e.output = static_cast<int>(rng.below(kSignals));
    } else {
      e.input = slot - 1;
    }
    edges.push_back(e);
    return true;
  };
  for (int i = 1; i < states; ++i) {
    int p = static_cast<int>(rng.below(i));
    while (!addEdge(p, i)) p = static_cast<int>(rng.below(i));
    parent[i] = p;
    ++children[p];
  }
  for (int s = 1; s < states; ++s) {
    if (children[s] == 0 || rng.chance(1, 4)) addEdge(s, 0);
  }
  if (cycle) {
    for (int tries = 0; tries < 4 * states; ++tries) {
      const int s = static_cast<int>(rng.range(1, states - 1));
      if (parent[s] <= 0) continue;
      int a = parent[s];
      for (int up = static_cast<int>(rng.below(4)); up > 0 && parent[a] > 0; --up) {
        a = parent[a];
      }
      if (addEdge(s, a)) break;
    }
  }
  return edges;
}

std::string q(int i) { return "q" + std::to_string(i); }

std::string randomText(Rng& rng, int states, bool cycle,
                       const std::string& legacy, const std::string& header) {
  const std::vector<Edge> edges = randomLegacy(rng, states, cycle);
  // The context mirrors the legacy's tree moves and a random subset of the
  // others — what the legacy consumes, the context emits — and at least
  // one move per state.
  // A clock invariant of 0 in every location forbids idling, so context
  // and legacy move in lockstep and never deadlock, and the context's
  // location is the legacy's state. The verdict rests on the bounded-AF
  // "returns home" constraint alone, which the pre-solver leaves to the
  // loop.
  std::vector<char> mirrored(edges.size(), 0);
  std::vector<int> lastOf(states, -1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const bool tree = i + 1 < static_cast<std::size_t>(states);
    mirrored[i] = tree || rng.chance(17, 20);
    lastOf[edges[i].from] = static_cast<int>(i);
  }
  for (int s = 0; s < states; ++s) {
    bool any = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      any = any || (edges[i].from == s && mirrored[i]);
    }
    if (!any && lastOf[s] >= 0) mirrored[lastOf[s]] = 1;
  }
  std::ostringstream o;
  o << "# " << header << "\n"
    << "rtsc ctxRole {\n  output a0 a1;\n  input b0 b1;\n  clock x;\n";
  for (int s = 0; s < states; ++s) {
    o << "  location " << q(s) << " invariant x <= 0;\n";
  }
  o << "  initial q0;\n";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!mirrored[i]) continue;
    const Edge& e = edges[i];
    o << "  " << q(e.from) << " -> " << q(e.to) << " :";
    if (e.input >= 0) o << " emit a" << e.input;
    if (e.output >= 0) o << " trigger b" << e.output;
    o << " reset x;\n";
  }
  o << "}\n\n"
    << "rtsc legRole {\n  input a0 a1;\n  output b0 b1;\n"
    << "  location q0;\n  initial q0;\n}\n\n"
    << "pattern Mirror {\n  role ctx uses ctxRole;\n"
    << "  role leg uses legRole;\n  connector direct;\n"
    << "  constraint \"AG AF[0," << states << "] ctx.q0\";\n}\n\n"
    << "automaton " << legacy << " {\n  input a0 a1; output b0 b1;\n"
    << "  allow MUI003;\n  initial q0;\n";
  for (const Edge& e : edges) {
    o << "  " << q(e.from) << " -> " << q(e.to) << " :";
    if (e.input >= 0) o << " a" << e.input;
    o << " /";
    if (e.output >= 0) o << " b" << e.output;
    o << ";\n";
  }
  o << "}\n";
  return o.str();
}

std::string externalClause(const std::string& name, const std::string& hidden,
                           const std::string& role, const char* inputs,
                           const char* outputs) {
  return "\nlegacy " + name + " external \"adapter_automaton\" {\n  input " +
         inputs + ";\n  output " + outputs +
         ";\n  arg \"%model%\";\n  arg \"" + hidden +
         "\";\n  arg \"--instance\";\n  arg \"" + role +
         "\";\n  deadline-ms 10000;\n}\n";
}

// ---- ground truth ---------------------------------------------------------

struct Truth {
  bool proven = false;
  bool presolved = false;  // analysis::presolveIntegration decides it
  long long iterations = 0;  // direct loop run (only when asked)
  long long testPeriods = 0;
};

/// Decides `job` on the concrete composition with the naive reference
/// checker — the same composition the engine's loop is sound against
/// (fuzz oracle O3). Also records whether the pre-solver decides the job,
/// and with `withLoop` the iteration and test-period counts the engine
/// must reproduce (0 when the pre-solver decides).
Truth decide(const std::string& text, const Job& job, bool withLoop) {
  const mui::muml::Model model = mui::muml::loadModel(text, job.name);
  const auto& pattern = model.patterns.at(job.pattern);
  std::size_t role = 0;
  while (pattern.roles.at(role).name != job.legacyRole) ++role;
  const auto scenario = mui::muml::makeIntegrationScenario(
      pattern, role, model.signals, model.props);
  const std::string property =
      job.formula.empty() ? scenario.property : job.formula;
  const auto hidden = mui::automata::withInstanceName(
      model.automata.at(job.hidden), job.legacyRole);

  const auto product = mui::automata::compose(hidden, scenario.context);
  mui::ctl::ReferenceChecker reference(product.automaton);
  const std::string obligation =
      property.empty() ? "AG !deadlock" : "(" + property + ") && AG !deadlock";
  Truth t;
  t.proven = reference.holds(mui::ctl::parseFormula(obligation));
  t.presolved =
      mui::analysis::presolveIntegration(scenario.context, hidden, property)
          .verdict != mui::analysis::PresolveVerdict::Skipped;
  if (!withLoop || t.presolved) return t;
  mui::testing::AutomatonLegacy legacy(hidden);
  mui::synthesis::IntegrationConfig cfg;
  cfg.property = property;
  const auto res = mui::synthesis::runIntegration(scenario.context, legacy, cfg);
  t.iterations = static_cast<long long>(res.iterations);
  t.testPeriods = static_cast<long long>(res.totalTestPeriods);
  return t;
}

Expected expectedOf(const Truth& t) {
  Expected e;
  e.status = t.proven ? "proven" : "real-error";
  e.iterations = t.iterations;
  e.testPeriods = t.testPeriods;
  return e;
}

// ---- campaign assembly ----------------------------------------------------

class Builder {
 public:
  explicit Builder(Campaign& c) : c_(c) {}

  /// Adds one model file and one job over it.
  void add(const std::string& stem, std::string text, Job job,
           Expected expected) {
    const std::string path = "models/" + stem + ".muml";
    job.name = stem;
    job.modelPath = path;
    c_.files.emplace_back(path, std::move(text));
    c_.jobs.push_back(std::move(job));
    c_.expected.push_back(std::move(expected));
  }

 private:
  Campaign& c_;
};

Job watchdogJob(const std::string& hidden, const std::string& formula = "") {
  Job j;
  j.pattern = "Watchdog";
  j.legacyRole = "device";
  j.hidden = hidden;
  j.formula = formula;
  return j;
}

Job mirrorJob(const std::string& hidden) {
  Job j;
  j.pattern = "Mirror";
  j.legacyRole = "leg";
  j.hidden = hidden;
  return j;
}

/// A watchdog shape at the verdict boundary: the device answers within
/// the response window (`inWindow`) or one or two ticks after it. `restFits`
/// keeps the device's rest within the monitor's idle window (no deadlock);
/// otherwise the rest may overrun it.
WatchdogShape watchdogAround(Rng& rng, int window, bool inWindow,
                             bool restFits) {
  WatchdogShape s;
  s.window = window;
  s.idle = std::max(1, window / 4) + static_cast<int>(rng.below(2));
  const int offset = 1 + static_cast<int>(rng.below(2));
  s.delay = inWindow ? std::max(1, window + 1 - offset) : window + offset;
  s.rest = static_cast<int>(
      restFits ? rng.below(static_cast<std::uint64_t>(std::min(s.idle, 2)) + 1)
               : rng.below(static_cast<std::uint64_t>(s.idle) + 3));
  return s;
}

std::string describe(const WatchdogShape& s) {
  return "idle " + std::to_string(s.idle) + ", window " +
         std::to_string(s.window) + ", delay " + std::to_string(s.delay) +
         ", rest " + std::to_string(s.rest);
}

/// decide(text, job, true) for every (text, job) pair, on up to four
/// threads: generation is untimed, and the loop runs dominate it.
std::vector<Truth> decideAll(
    const std::vector<std::pair<std::string, Job>>& jobs) {
  std::vector<Truth> out(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next++) < jobs.size();) {
      try {
        out[i] = decide(jobs[i].first, jobs[i].second, true);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

/// Batch jobs: one watchdog per window and one random legacy per size, the
/// same size ladders on every seed, with every other job of a family built
/// to fail. Seeds vary the structure but hardly the amount of work. The
/// jobs run in a seeded random order, so that a slow spell of the machine
/// slows a sample of every size rather than the sizes that happen to run
/// together (all the jobs near the median, say).
void addBatchJobs(Campaign& c, Rng& rng, std::vector<int> windows,
                  std::vector<int> legacySizes, bool external) {
  std::sort(windows.rbegin(), windows.rend());
  std::sort(legacySizes.rbegin(), legacySizes.rend());
  struct Pending {
    std::string name;
    std::optional<WatchdogShape> shape;  // watchdogs: checked in closed form
    const char* inputs;
    const char* outputs;
  };
  std::vector<Pending> pending;
  std::vector<std::pair<std::string, Job>> texts;
  for (std::size_t i = 0; i < std::max(windows.size(), legacySizes.size()); ++i) {
    char name[32];
    if (i < windows.size()) {
      const WatchdogShape s = watchdogAround(rng, windows[i], i % 2 == 0, true);
      std::snprintf(name, sizeof name, "wd%03zu", pending.size());
      pending.push_back({name, s, "ping", "pong"});
      // The name in the header keeps equal shapes apart: every job's text,
      // and so its cache key, is distinct.
      texts.emplace_back(watchdogText(s, "dev", name + (": " + describe(s))),
                         watchdogJob("dev"));
    }
    if (i < legacySizes.size()) {
      std::snprintf(name, sizeof name, "rnd%03zu", pending.size());
      pending.push_back({name, std::nullopt, "a0 a1", "b0 b1"});
      texts.emplace_back(
          randomText(rng, legacySizes[i], i % 2 == 1, "leg",
                     name + (": " + std::to_string(legacySizes[i]) +
                             "-state random legacy")),
          mirrorJob("leg"));
    }
  }
  std::vector<std::size_t> order(pending.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  // The loop runs in process on the hidden automaton; an external serving
  // the same automaton must reproduce its iterations and test periods.
  const std::vector<Truth> truths = decideAll(texts);
  Builder b(c);
  for (const std::size_t k : order) {
    const Pending& p = pending[k];
    auto& [text, job] = texts[k];
    if (truths[k].presolved) {
      throw std::logic_error(p.name + ": the pre-solver decides a batch job");
    }
    if (p.shape && truths[k].proven != watchdogProven(p.shape->idle,
                                                      p.shape->window,
                                                      p.shape->delay,
                                                      p.shape->rest, true)) {
      throw std::logic_error("reference checker disagrees with the "
                             "watchdog closed form at " + describe(*p.shape));
    }
    if (external) {
      text += externalClause(job.hidden + "Ext", job.hidden, job.legacyRole,
                             p.inputs, p.outputs);
      job.hidden += "Ext";
    }
    b.add(p.name, std::move(text), std::move(job), expectedOf(truths[k]));
  }
}

std::vector<int> ladder(int lo, int hi, int count) {
  std::vector<int> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * i / std::max(1, count - 1));
  }
  return out;
}

/// Shapes of the serve pool: one in eight an AG-safety watchdog the
/// pre-solver decides, the rest watchdog and random-legacy loops of about
/// 5-20 ms; `size` (8..24) is the loop's window or state count.
struct ServeShape {
  std::string text;
  Job job;
  Expected expected;
};

ServeShape serveShape(Rng& rng, std::size_t kind, int size,
                      const std::string& name) {
  ServeShape s;
  if (kind % 8 == 0) {
    const WatchdogShape w =
        watchdogAround(rng, static_cast<int>(rng.range(2, 8)),
                       rng.chance(1, 2), false);
    s.text = watchdogText(w, "dev", name + ": " + describe(w));
    s.job = watchdogJob("dev", kSafetyFormula);
  } else if (kind % 2 == 1) {
    const WatchdogShape w = watchdogAround(rng, size, kind % 4 == 1, true);
    s.text = watchdogText(w, "dev", name + ": " + describe(w));
    s.job = watchdogJob("dev");
  } else {
    s.text = randomText(rng, size, kind % 4 == 2, "leg", name);
    s.job = mirrorJob("leg");
  }
  s.expected = expectedOf(decide(s.text, s.job, true));
  return s;
}

void addServeJobs(Campaign& c, Rng& rng) {
  constexpr std::size_t kHot = 64;
  constexpr std::size_t kColdShapes = 256;
  constexpr std::size_t kDraws = 8192;
  // Three in four arrivals miss the cache, so the latency quantiles land
  // on verification work rather than on the few tens of microseconds of
  // wake-ups and socket hops a hit costs, which vary too much from run to
  // run on a shared machine to bound.
  constexpr double kColdShare = 0.75;
  constexpr double kZipf = 1.0;
  Builder b(c);
  char buf[32];
  for (std::size_t i = 0; i < kHot; ++i) {
    std::snprintf(buf, sizeof buf, "hot%03zu", i);
    ServeShape s = serveShape(rng, i, ladder(8, 24, kHot)[i], buf);
    b.add(buf, std::move(s.text), std::move(s.job), std::move(s.expected));
  }
  c.hotCount = kHot;
  // Cold draws are fresh revisions of shapes on a fixed size ladder, many
  // enough that the cost of a miss, averaged over a run, varies little
  // with the seed's random structures.
  for (std::size_t i = 0; i < kColdShapes; ++i) {
    std::snprintf(buf, sizeof buf, "shape%02zu", i);
    ServeShape s = serveShape(rng, i, ladder(8, 24, kColdShapes)[i], buf);
    b.add(buf, std::move(s.text), std::move(s.job), std::move(s.expected));
  }
  std::vector<double> cdf(kHot);
  double total = 0;
  for (std::size_t r = 0; r < kHot; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cdf[r] = total;
  }
  std::vector<std::size_t> rank(kHot);
  for (std::size_t i = 0; i < kHot; ++i) rank[i] = i;
  for (std::size_t i = kHot; i > 1; --i) std::swap(rank[i - 1], rank[rng.below(i)]);

  std::size_t cold = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (rng.real() < kColdShare) {
      c.draws.push_back(kHot + cold++ % kColdShapes);
    } else {
      const double u = rng.real() * total;
      const auto r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      c.draws.push_back(rank[std::min(r, kHot - 1)]);
    }
  }
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace

std::string readText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string revisionText(const std::string& shapeText, const std::string& tag) {
  return "# revision " + tag + "\n" + shapeText;
}

std::optional<Workload> parseWorkload(std::string_view name) {
  if (name == "batch_loop") return Workload::BatchLoop;
  if (name == "batch_adapter") return Workload::BatchAdapter;
  if (name == "serve_replay") return Workload::ServeReplay;
  return std::nullopt;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::BatchLoop:
      return "batch_loop";
    case Workload::BatchAdapter:
      return "batch_adapter";
    case Workload::ServeReplay:
      return "serve_replay";
  }
  return "?";
}

bool watchdogProven(int idle, int window, int delay, int rest,
                    bool responseProperty) {
  return rest <= idle && (!responseProperty || delay <= window);
}

std::vector<std::string> crossCheckWatchdogGrid() {
  std::vector<std::string> out;
  for (int idle = 1; idle <= 3; ++idle) {
    for (int window = 1; window <= 4; ++window) {
      for (int delay = 1; delay <= 5; ++delay) {
        for (int rest = 0; rest <= 4; ++rest) {
          const WatchdogShape s{idle, window, delay, rest};
          for (const bool response : {true, false}) {
            const bool truth =
                decide(watchdogText(s, "dev", "grid"),
                       watchdogJob("dev", response ? "" : kSafetyFormula),
                       false)
                    .proven;
            if (truth != watchdogProven(idle, window, delay, rest, response)) {
              out.push_back(describe(s) +
                            (response ? " (response)" : " (safety)"));
            }
          }
        }
      }
    }
  }
  return out;
}

Campaign generate(const GenOptions& o) {
  Campaign c;
  // Hash the seed first: splitmix64 states that differ by a multiple of its
  // increment would replay one another's sequences shifted by a few draws.
  Rng rng(Rng(o.seed ^ (static_cast<std::uint64_t>(o.workload) << 56)).next());
  switch (o.workload) {
    case Workload::BatchLoop:
      addBatchJobs(c, rng, ladder(8, 64, 360), ladder(8, 64, 360), false);
      break;
    case Workload::BatchAdapter:
      addBatchJobs(c, rng, ladder(4, 24, 48), ladder(8, 24, 48), true);
      break;
    case Workload::ServeReplay:
      addServeJobs(c, rng);
      break;
  }
  return c;
}

void writeCampaign(const Campaign& c, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir / "models");
  for (const auto& [path, text] : c.files) writeFile(dir / path, text);
  writeFile(dir / "jobs.manifest", mui::engine::writeManifest(c.jobs));
  std::ostringstream e;
  e << "# name\tstatus\titerations\ttestPeriods\thot\n";
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    const Expected& x = c.expected[i];
    e << c.jobs[i].name << '\t' << x.status << '\t' << x.iterations << '\t'
      << x.testPeriods << '\t' << (i < c.hotCount) << '\n';
  }
  writeFile(dir / "expected.tsv", e.str());
  if (!c.draws.empty()) {
    std::ostringstream d;
    for (const std::size_t job : c.draws) d << job << '\n';
    writeFile(dir / "draws.tsv", d.str());
  }
}

Campaign readCampaign(const std::filesystem::path& dir) {
  Campaign c;
  const std::filesystem::path manifest = dir / "jobs.manifest";
  c.jobs = mui::engine::parseManifest(readText(manifest), manifest.string(),
                                      dir.string());
  std::istringstream e(readText(dir / "expected.tsv"));
  std::string line;
  while (std::getline(e, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream f(line);
    std::string name;
    Expected x;
    int hot = 0;
    f >> name >> x.status >> x.iterations >> x.testPeriods >> hot;
    if (!f) throw std::runtime_error("malformed expected.tsv line: " + line);
    if (hot != 0) ++c.hotCount;
    c.expected.push_back(std::move(x));
  }
  if (c.expected.size() != c.jobs.size()) {
    throw std::runtime_error("expected.tsv does not match jobs.manifest");
  }
  if (std::filesystem::exists(dir / "draws.tsv")) {
    std::istringstream d(readText(dir / "draws.tsv"));
    std::size_t job = 0;
    while (d >> job) {
      if (job >= c.jobs.size()) throw std::runtime_error("bad draws.tsv entry");
      c.draws.push_back(job);
    }
  }
  return c;
}

}  // namespace perfbench
