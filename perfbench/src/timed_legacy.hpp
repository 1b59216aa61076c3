#pragma once
// Timing decorator for testing::LegacyComponent. Wraps any legacy — the
// in-process AutomatonLegacy or an adapter-backed SubprocessLegacy — and
// counts and times every step, reset and clone, including the calls made
// on the clones it hands out (which it decorates too, feeding the same
// sink). Behavior is forwarded unchanged; the self-test checks that
// decorated runs give identical verdicts, iterations and test periods.

#include <cstdint>
#include <memory>
#include <vector>

#include "testing/legacy.hpp"

namespace perfbench {

/// Per-job exchange statistics; one sink per job, shared by its clones.
struct LegacyStats {
  std::uint64_t steps = 0;
  std::uint64_t refused = 0;
  std::uint64_t resets = 0;
  std::uint64_t clones = 0;
  std::uint64_t failures = 0;       // calls that threw (adapter failures)
  std::vector<float> stepUs;        // one entry per step: the histogram
  double stepMs = 0, resetMs = 0, cloneMs = 0;

  [[nodiscard]] double totalMs() const { return stepMs + resetMs + cloneMs; }
  void merge(const LegacyStats& other);
};

class TimedLegacy final : public mui::testing::LegacyComponent {
 public:
  TimedLegacy(std::unique_ptr<mui::testing::LegacyComponent> inner,
              LegacyStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void reset() override;
  std::optional<mui::testing::SignalSet> step(
      const mui::testing::SignalSet& inputs) override;
  [[nodiscard]] std::string currentStateName() const override {
    return inner_->currentStateName();
  }
  [[nodiscard]] const mui::testing::SignalSet& inputs() const override {
    return inner_->inputs();
  }
  [[nodiscard]] const mui::testing::SignalSet& outputs() const override {
    return inner_->outputs();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<LegacyComponent> clone() const override;

 private:
  std::unique_ptr<mui::testing::LegacyComponent> inner_;
  LegacyStats& stats_;
};

/// Log2 histogram of step latencies: bucket i counts steps in
/// [2^i, 2^(i+1)) microseconds (bucket 0 also takes anything below 1 us).
std::vector<std::uint64_t> stepHistogram(const std::vector<float>& stepUs);

}  // namespace perfbench
