#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.hpp"
#include "util/text_table.hpp"

namespace mui::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string cid;  // correlation id; "" = untagged
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  std::uint64_t arg = 0;
  bool hasArg = false;
  char ph = 'X';  // 'X' complete, 'b'/'e' async begin/end
};

/// One thread's sink. Only the owning thread appends; `mu` exists solely
/// so snapshot readers (the live /trace endpoint) see consistent entries —
/// the owner takes it uncontended on every record.
struct ThreadBuf {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity = 0;
  std::uint64_t total = 0;  // events ever recorded since last reset
  std::uint32_t tid = 0;
  std::string name;
};

struct BufRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::size_t capacity = Tracer::kDefaultRingCapacity;
};

BufRegistry& registry() {
  static BufRegistry r;
  return r;
}

thread_local ThreadBuf* t_buf = nullptr;
thread_local std::string t_name;

ThreadBuf& localBuf() {
  if (t_buf != nullptr) return *t_buf;
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = static_cast<std::uint32_t>(r.bufs.size());
  buf->capacity = r.capacity;
  buf->name = t_name;
  t_buf = buf.get();
  r.bufs.push_back(std::move(buf));
  return *t_buf;
}

/// The process's wall-clock instant corresponding to trace timestamp 0,
/// captured together with the steady epoch so merged traces can be shifted
/// onto one axis.
std::int64_t epochUnixNs() {
  static const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  return ns;
}

std::string serializeEvent(const TraceEvent& ev, std::uint32_t pid,
                           std::uint32_t tid) {
  util::json::Object o;
  o.s("ph", std::string_view(&ev.ph, 1))
      .u("pid", pid)
      .u("tid", tid)
      .s("cat", "mui")
      .s("name", ev.name)
      // Chrome trace timestamps are microseconds; keep ns precision in the
      // fraction so sub-microsecond spans survive.
      .f("ts", static_cast<double>(ev.startNs) / 1000.0);
  if (ev.ph == 'X') {
    o.f("dur", static_cast<double>(ev.durNs) / 1000.0);
    if (ev.hasArg || !ev.cid.empty()) {
      util::json::Object args;
      if (ev.hasArg) args.u("i", ev.arg);
      if (!ev.cid.empty()) args.s("cid", ev.cid);
      o.raw("args", args.str());
    }
  } else {
    // Async begin/end: correlated by (cat, id, name) across threads and —
    // after a merge — across processes.
    o.s("id", ev.cid).s("scope", "mui");
  }
  return o.str();
}

/// A metadata event naming process `pid` or its thread `tid`.
std::string metadataEvent(const char* kind, std::uint32_t pid,
                          std::uint32_t tid, const std::string& name) {
  return util::json::Object()
      .s("ph", "M")
      .u("pid", pid)
      .u("tid", tid)
      .s("name", kind)
      .raw("args", util::json::Object().s("name", name).str())
      .str();
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

std::int64_t Tracer::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = [] {
    epochUnixNs();  // pin the wall-clock twin of the same instant
    return Clock::now();
  }();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void Tracer::enable(std::size_t ringCapacity) {
  nowNs();  // pin the epoch before the first span
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  r.capacity = ringCapacity == 0 ? 1 : ringCapacity;
  for (auto& b : r.bufs) {
    std::lock_guard bufLock(b->mu);
    b->ring.clear();
    b->capacity = r.capacity;
    b->total = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  for (auto& b : r.bufs) {
    std::lock_guard bufLock(b->mu);
    b->ring.clear();
    b->total = 0;
  }
}

void Tracer::record(std::string name, char ph, std::int64_t startNs,
                    std::int64_t durNs, std::uint64_t arg, bool hasArg,
                    std::string cid) {
  ThreadBuf& b = localBuf();
  TraceEvent ev{std::move(name), std::move(cid), startNs, durNs,
                arg,             hasArg,         ph};
  std::lock_guard lock(b.mu);
  if (b.ring.size() < b.capacity) {
    b.ring.push_back(std::move(ev));
  } else {
    b.ring[b.total % b.capacity] = std::move(ev);
  }
  ++b.total;
}

void Tracer::asyncBegin(std::string name, const std::string& cid) {
  if (!enabled() || cid.empty()) return;
  record(std::move(name), 'b', nowNs(), 0, 0, false, cid);
}

void Tracer::asyncEnd(std::string name, const std::string& cid) {
  if (!enabled() || cid.empty()) return;
  record(std::move(name), 'e', nowNs(), 0, 0, false, cid);
}

std::string Tracer::chromeTrace(std::uint32_t pid,
                                const std::string& processName) {
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":" +
                    std::to_string(epochUnixNs()) + ",\"traceEvents\":[\n";
  bool first = true;
  const auto line = [&](const std::string& s) {
    if (!first) out += ",\n";
    first = false;
    out += s;
  };
  if (!processName.empty()) {
    line(metadataEvent("process_name", pid, 0, processName));
  }
  for (const auto& b : r.bufs) {
    std::lock_guard bufLock(b->mu);
    if (!b->name.empty()) {
      line(metadataEvent("thread_name", pid, b->tid, b->name));
    }
    const std::uint64_t kept =
        std::min<std::uint64_t>(b->total, b->ring.size());
    for (std::uint64_t i = b->total - kept; i < b->total; ++i) {
      line(serializeEvent(b->ring[i % b->capacity], pid, b->tid));
    }
  }
  out += "\n]}\n";
  return out;
}

std::size_t Tracer::eventCount() {
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  std::size_t n = 0;
  for (const auto& b : r.bufs) {
    std::lock_guard bufLock(b->mu);
    n += static_cast<std::size_t>(
        std::min<std::uint64_t>(b->total, b->ring.size()));
  }
  return n;
}

std::uint64_t Tracer::droppedEvents() {
  BufRegistry& r = registry();
  std::lock_guard lock(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.bufs) {
    std::lock_guard bufLock(b->mu);
    n += b->total - std::min<std::uint64_t>(b->total, b->ring.size());
  }
  return n;
}

std::string mergeChromeTraces(const std::vector<std::string>& docs) {
  constexpr const char* kEmpty =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n";
  if (docs.empty()) return kEmpty;
  if (docs.size() == 1) return docs.front();

  std::int64_t baseEpochNs = 0;
  std::string out;
  bool first = true;
  const auto line = [&](const std::string& s) {
    if (!first) out += ",\n";
    first = false;
    out += s;
  };
  for (const std::string& text : docs) {
    // A document that does not parse, or lacks the epoch or the event
    // array chromeTrace() writes, is not ours: skip it.
    const auto doc = util::json::parse(text);
    const auto epoch = doc ? doc->u64("muiEpochUnixNs") : std::nullopt;
    const util::json::Value* events = doc ? doc->find("traceEvents") : nullptr;
    if (!epoch || events == nullptr ||
        events->kind != util::json::Value::Kind::Array) {
      continue;
    }
    const auto epochNs = static_cast<std::int64_t>(*epoch);
    if (out.empty()) {
      baseEpochNs = epochNs;
      out = "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":" +
            std::to_string(baseEpochNs) + ",\"traceEvents\":[\n";
    }
    const double deltaUs =
        static_cast<double>(epochNs - baseEpochNs) / 1000.0;
    for (util::json::Value ev : events->items) {
      // Only the timestamp moves; every other token and the key order
      // stay as written. Metadata events have no timestamp.
      for (auto& m : ev.members) {
        if (m.key == "ts" && m.value.kind == util::json::Value::Kind::Number &&
            deltaUs != 0.0) {
          m.value.text = util::fmt(
              std::strtod(m.value.text.c_str(), nullptr) + deltaUs, 3);
        }
      }
      line(util::json::write(ev));
    }
  }
  if (out.empty()) return kEmpty;
  out += "\n]}\n";
  return out;
}

void setThreadName(std::string name) {
  t_name = std::move(name);
  if (t_buf != nullptr) {
    std::lock_guard lock(registry().mu);
    t_buf->name = t_name;
  }
}

const std::string& currentThreadName() { return t_name; }

ObsSpan::ObsSpan(const char* name, std::uint64_t arg, bool hasArg) noexcept {
  if (!Tracer::enabled()) return;
  name_ = name;
  arg_ = arg;
  hasArg_ = hasArg;
  startNs_ = Tracer::nowNs();
}

ObsSpan::ObsSpan(std::string name, std::uint64_t arg, bool hasArg) {
  if (!Tracer::enabled()) return;
  name_ = std::move(name);
  arg_ = arg;
  hasArg_ = hasArg;
  startNs_ = Tracer::nowNs();
}

ObsSpan::~ObsSpan() {
  if (startNs_ < 0 || !Tracer::enabled()) return;
  Tracer::record(std::move(name_), 'X', startNs_, Tracer::nowNs() - startNs_,
                 arg_, hasArg_, std::move(cid_));
}

}  // namespace mui::obs
