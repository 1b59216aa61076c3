#include "timed_legacy.hpp"

#include <cmath>

#include "spans.hpp"

namespace perfbench {

void LegacyStats::merge(const LegacyStats& o) {
  steps += o.steps;
  refused += o.refused;
  resets += o.resets;
  clones += o.clones;
  failures += o.failures;
  stepUs.insert(stepUs.end(), o.stepUs.begin(), o.stepUs.end());
  stepMs += o.stepMs;
  resetMs += o.resetMs;
  cloneMs += o.cloneMs;
}

namespace {

/// Times `call`, adds the duration to `totalMs`, and counts a throw as a
/// failure before passing it on.
template <typename F>
auto timed(LegacyStats& stats, double& totalMs, float* us, F&& call) {
  const std::int64_t start = nowNs();
  const auto account = [&] {
    const double ns = static_cast<double>(nowNs() - start);
    totalMs += ns / 1e6;
    if (us != nullptr) *us = static_cast<float>(ns / 1e3);
  };
  try {
    auto result = call();
    account();
    return result;
  } catch (...) {
    account();
    ++stats.failures;
    throw;
  }
}

}  // namespace

void TimedLegacy::reset() {
  ++stats_.resets;
  timed(stats_, stats_.resetMs, nullptr, [&] {
    inner_->reset();
    return 0;
  });
}

std::optional<mui::testing::SignalSet> TimedLegacy::step(
    const mui::testing::SignalSet& inputs) {
  ++stats_.steps;
  float us = 0;
  auto out = timed(stats_, stats_.stepMs, &us,
                   [&] { return inner_->step(inputs); });
  stats_.stepUs.push_back(us);
  if (!out) ++stats_.refused;
  return out;
}

std::unique_ptr<mui::testing::LegacyComponent> TimedLegacy::clone() const {
  ++stats_.clones;
  auto copy = timed(stats_, stats_.cloneMs, nullptr,
                    [&] { return inner_->clone(); });
  return std::make_unique<TimedLegacy>(std::move(copy), stats_);
}

std::vector<std::uint64_t> stepHistogram(const std::vector<float>& stepUs) {
  std::vector<std::uint64_t> buckets;
  for (const float us : stepUs) {
    const auto b = us < 1 ? 0u : static_cast<unsigned>(std::log2(us));
    if (buckets.size() <= b) buckets.resize(b + 1);
    ++buckets[b];
  }
  return buckets;
}

}  // namespace perfbench
