#pragma once
// In-memory span recording for the traced runs, plus the small statistics
// and process-accounting helpers every workload shares.
//
// Spans are recorded by the harness around its own calls into each layer
// (nothing inside the program is instrumented). Each worker thread owns a
// SpanBuffer, so recording takes no lock; buffers are merged and written
// once, as a Chrome trace, when the run ends. A null buffer turns every
// ScopedSpan into a no-op, which is how the untraced reference pass runs
// the very same code.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint32_t parent = 0;  // 1-based index into the same buffer; 0 = root
  std::uint32_t job = 0;     // job sequence number within the run
  [[nodiscard]] double ms() const { return (endNs - startNs) / 1e6; }
};

class SpanBuffer {
 public:
  explicit SpanBuffer(int thread) : thread_(thread) {}

  /// Opens a span under the innermost open one; returns its 1-based id.
  std::uint32_t open(const char* name, std::uint32_t job);
  void close(std::uint32_t id);

  [[nodiscard]] int thread() const { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op when `buffer` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint32_t job)
      : buffer_(buffer), id_(buffer ? buffer->open(name, job) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t id_;
};

/// Writes every buffer as one Chrome trace ("X" events, pid 1, tid =
/// buffer thread, args carry the job number and the parent span).
void writeChromeTrace(const std::vector<const SpanBuffer*>& buffers,
                      const std::filesystem::path& path);

/// Self time of each span: its duration minus what its children cover.
/// Returned per span, parallel to `buffer.spans()`.
std::vector<double> selfMs(const SpanBuffer& buffer);

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it (the tail a
/// run of n samples supports), as a fraction; 0 when n < 11.
double tailQuantile(std::size_t n);

// ---- process accounting ---------------------------------------------------

struct CpuMem {
  double cpuMs = 0;     // user + system
  double maxRssMb = 0;  // peak resident set
};

/// This process, and its reaped children (adapter subprocesses).
CpuMem selfUsage();
CpuMem childrenUsage();

/// Another live process, from /proc/<pid>/stat and /proc/<pid>/status.
CpuMem procUsage(int pid);

/// Confines the calling thread, and every thread and process it starts
/// from then on, to the highest-numbered CPU it may run on; returns that
/// CPU, or -1 when the affinity cannot be set.
int pinToOneCpu();

}  // namespace perfbench
