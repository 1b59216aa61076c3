// perfbench — the harness behind perfbench/run.py.
//
//   perfbench gen --workload W --seed N --out DIR
//       writes a seeded campaign (models, job list, expected verdicts)
//   perfbench run --workload W --dir DIR --seconds S --trace 0|1 --mui PATH
//       runs it and prints human-readable lines, then one JSON result line;
//       exit 1 when any verdict, iteration or test-period count mismatches
//   perfbench selftest --dir DIR
//       determinism, closed-form and decorator self-tests
//
// Generation and measurement are separate processes, so the measured
// process holds no generator state. External legacies resolve
// `adapter_automaton` through MUI_ADAPTER_PATH, which run.py sets.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {
int runSelftest(const std::filesystem::path& scratch);
}

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --dir DIR --seconds S "
               "--trace 0|1 --mui PATH\n"
               "       perfbench selftest --dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  const auto flag = [&](const char* name) -> const std::string& {
    static const std::string empty;
    const auto it = flags.find(name);
    return it == flags.end() ? empty : it->second;
  };
  try {
    if (cmd == "selftest") {
      if (flag("dir").empty()) return usage();
      return runSelftest(flag("dir"));
    }
    const auto workload = parseWorkload(flag("workload"));
    if (!workload) return usage();
    if (cmd == "gen") {
      GenOptions g;
      g.workload = *workload;
      g.seed = std::stoull(flag("seed"));
      writeCampaign(generate(g), flag("out"));
      return 0;
    }
    if (cmd == "run") {
      RunOptions o;
      o.dir = flag("dir");
      o.mui = flag("mui");
      o.seconds = std::stod(flag("seconds"));
      o.trace = flag("trace") == "1";
      // Every run is confined to one CPU. A hand-off between processes or
      // threads (each test step is a pipe round trip to an adapter; a
      // served job crosses a socket and the daemon's threads) then switches
      // threads on a busy CPU instead of waking an idle one, whose wake-up
      // latency on a shared virtual machine depends on the other tenants
      // more than on the program; and the run's speed depends on one CPU's
      // share of the host rather than on how two of them are placed.
      o.cpu = pinToOneCpu();
      // batch_adapter's second worker fills the first one's waits (adapter
      // spawn, teardown) with work; batch_loop never waits.
      o.workers = *workload == Workload::BatchAdapter ? 2 : 1;
      const Campaign c = readCampaign(o.dir);
      const Report r = *workload == Workload::ServeReplay
                           ? runServeWorkload(c, o)
                           : runBatchWorkload(c, o);
      for (const auto& line : r.lines) std::printf("%s\n", line.c_str());
      for (const Metric& m : r.metrics) {
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
      std::printf("%s\n", r.json().c_str());
      return r.correct ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  return usage();
}
