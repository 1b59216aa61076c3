#pragma once
// Process-wide metrics for the verify–test–learn pipeline.
//
// Three instrument kinds, all lock-free on the hot path:
//   Counter   — monotonically increasing uint64 (relaxed atomic)
//   Gauge     — instantaneous int64 (relaxed atomic)
//   Histogram — fixed log2 buckets (upper bounds 1, 2, 4, ..., 2^62, +Inf)
//
// Instruments live in a Registry keyed by name; lookups are idempotent, so
// call sites keep a function-local static reference and pay only the atomic
// op per event:
//
//   static obs::Counter& pops = obs::Registry::global().counter(
//       "mui_ctl_worklist_pops_total", "CTL worklist states popped");
//   pops.add(localPops);
//
// Registry::global() is the process-wide instance the pipeline instruments;
// tests construct their own Registry for golden renderer output. Renderers
// (JSON, Prometheus exposition) take a consistent-enough
// snapshot for end-of-run reporting; they do not pause writers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mui::obs {

class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative integer observations. Bucket i
/// counts observations v with v <= 2^i (cumulatively rendered for
/// Prometheus); the last bucket is +Inf.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;  // le 2^0 .. 2^62, then +Inf

  void observe(std::uint64_t v);
  /// Index of the bucket recording `v`.
  static std::size_t bucketIndex(std::uint64_t v);
  /// Upper bound of bucket `i`; meaningless for the +Inf bucket.
  static std::uint64_t bucketBound(std::size_t i) { return 1ull << i; }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named instruments plus their help strings and units. Thread-safe;
/// registration takes a lock, returned references are stable for the
/// registry's lifetime.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry all pipeline instrumentation reports to.
  static Registry& global();

  /// Finds or creates the named instrument. The help/unit of the first
  /// registration win; re-registering the same name as a different kind
  /// throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& unit = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& unit = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& unit = "");

  /// Registers (or replaces) an info metric: a constant `1` carrying its
  /// payload in labels, rendered as `name{k="v",...} 1` with gauge type —
  /// the Prometheus build-info idiom (e.g. mui_build_info{version=...,
  /// git_sha=...}). Unlike the instruments above this is set-once data, not
  /// a hot-path handle, so there is nothing to return.
  void setInfo(const std::string& name, const std::string& help,
               std::vector<std::pair<std::string, std::string>> labels);

  /// {"metrics":[{"name":...,"kind":...,...}]} — one object per instrument.
  std::string renderJson() const;
  /// Prometheus text exposition format 0.0.4.
  std::string renderPrometheus() const;

  /// Zeroes every instrument (registrations survive). Test helper.
  void resetAll();

  std::size_t size() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mui::obs
