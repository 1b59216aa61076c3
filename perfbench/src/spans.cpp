#include "spans.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace perfbench {

std::uint32_t SpanBuffer::open(const char* name, std::uint32_t job) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.startNs = nowNs();
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanBuffer::close(std::uint32_t id) {
  spans_[id - 1].endNs = nowNs();
  // Spans close in LIFO order (ScopedSpan lifetimes nest).
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void writeChromeTrace(const std::vector<const SpanBuffer*>& buffers,
                      const std::filesystem::path& path) {
  std::int64_t origin = INT64_MAX;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) origin = std::min(origin, s.startNs);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      const std::string_view name = s.name;
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << name
          << "\",\"cat\":\"" << name.substr(0, name.find('.'))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->thread()
          << ",\"ts\":" << (s.startNs - origin) / 1e3
          << ",\"dur\":" << (s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"job\":" << s.job << ",\"parent\":" << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::vector<double> selfMs(const SpanBuffer& buffer) {
  const auto& spans = buffer.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const Span& s : spans) {
    if (s.parent != 0) self[s.parent - 1] -= s.ms();
  }
  return self;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double tailQuantile(std::size_t n) {
  if (n < 11) return 0;
  // The largest of these that leaves at least ten samples above it.
  double best = 0.5;
  for (double q : {0.9, 0.95, 0.99, 0.995, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1 - q) >= 10) best = q;
  }
  return best;
}

namespace {

CpuMem fromRusage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuMem u;
  u.cpuMs = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
            (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

}  // namespace

CpuMem selfUsage() { return fromRusage(RUSAGE_SELF); }
CpuMem childrenUsage() { return fromRusage(RUSAGE_CHILDREN); }

CpuMem procUsage(int pid) {
  CpuMem u;
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return u;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  u.cpuMs = (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status(dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.maxRssMb = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return u;
}

int pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace perfbench
