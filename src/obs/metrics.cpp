#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "util/json.hpp"

namespace mui::obs {

void Histogram::observe(std::uint64_t v) {
  buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::size_t Histogram::bucketIndex(std::uint64_t v) {
  if (v <= 1) return 0;
  const std::size_t i = std::bit_width(v - 1);  // smallest i with v <= 2^i
  return std::min<std::size_t>(i, kBuckets - 1);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

enum class Kind { Counter, Gauge, Histogram, Info };

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Counter:
      return "counter";
    case Kind::Gauge:
      return "gauge";
    case Kind::Histogram:
      return "histogram";
    case Kind::Info:
      return "info";
  }
  return "?";
}

struct Entry {
  Kind kind;
  std::string help;
  std::string unit;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::vector<std::pair<std::string, std::string>> labels;  // Kind::Info
};

/// `{k="v",k2="v2"}` with backslash/quote escaping, "" with no labels.
std::string labelSet(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"";
    for (const char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

std::size_t highestNonEmptyBucket(const Histogram& h) {
  std::size_t hi = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucketCount(i) > 0) hi = i;
  }
  return hi;
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;  // sorted → deterministic renders

  Entry& findOrCreate(const std::string& name, const std::string& help,
                      const std::string& unit, Kind kind) {
    std::lock_guard lock(mu);
    auto it = entries.find(name);
    if (it != entries.end()) {
      if (it->second.kind != kind) {
        throw std::logic_error("metric '" + name + "' already registered as " +
                               kindName(it->second.kind) + ", requested " +
                               kindName(kind));
      }
      return it->second;
    }
    Entry e;
    e.kind = kind;
    e.help = help;
    e.unit = unit;
    switch (kind) {
      case Kind::Counter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        e.histogram = std::make_unique<Histogram>();
        break;
      case Kind::Info:
        break;  // labels only, no instrument
    }
    return entries.emplace(name, std::move(e)).first->second;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& unit) {
  return *impl_->findOrCreate(name, help, unit, Kind::Counter).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& unit) {
  return *impl_->findOrCreate(name, help, unit, Kind::Gauge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               const std::string& unit) {
  return *impl_->findOrCreate(name, help, unit, Kind::Histogram).histogram;
}

void Registry::setInfo(
    const std::string& name, const std::string& help,
    std::vector<std::pair<std::string, std::string>> labels) {
  Entry& e = impl_->findOrCreate(name, help, "", Kind::Info);
  std::lock_guard lock(impl_->mu);
  e.labels = std::move(labels);
}

std::string Registry::renderJson() const {
  std::lock_guard lock(impl_->mu);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, e] : impl_->entries) {
    if (!first) out += ",";
    first = false;
    util::json::Object o;
    o.s("name", name)
        .s("kind", kindName(e.kind))
        .s("help", e.help)
        .s("unit", e.unit);
    switch (e.kind) {
      case Kind::Counter:
        o.u("value", e.counter->value());
        break;
      case Kind::Gauge:
        o.i("value", e.gauge->value());
        break;
      case Kind::Histogram: {
        const Histogram& h = *e.histogram;
        std::string buckets = "[";
        const std::size_t hi = highestNonEmptyBucket(h);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= hi; ++i) {
          cum += h.bucketCount(i);
          buckets += util::json::Object()
                         .s("le", std::to_string(Histogram::bucketBound(i)))
                         .u("count", cum)
                         .str();
          buckets += ",";
        }
        buckets +=
            util::json::Object().s("le", "+Inf").u("count", h.count()).str();
        o.u("count", h.count())
            .u("sum", h.sum())
            .raw("buckets", buckets + "]");
        break;
      }
      case Kind::Info: {
        util::json::Object labels;
        for (const auto& [k, v] : e.labels) labels.s(k, v);
        o.raw("labels", labels.str()).u("value", 1);
        break;
      }
    }
    out += "\n" + o.str();
  }
  out += "\n]}\n";
  return out;
}

std::string Registry::renderPrometheus() const {
  std::lock_guard lock(impl_->mu);
  std::string out;
  for (const auto& [name, e] : impl_->entries) {
    out += "# HELP " + name + " " + e.help;
    if (!e.unit.empty()) out += " (" + e.unit + ")";
    // Exposition format 0.0.4 has no "info" type; the idiom is a constant
    // gauge of 1 carrying the payload in labels.
    out += "\n# TYPE " + name + " " +
           (e.kind == Kind::Info ? "gauge" : kindName(e.kind)) + "\n";
    switch (e.kind) {
      case Kind::Counter:
        out += name + " " + std::to_string(e.counter->value()) + "\n";
        break;
      case Kind::Gauge:
        out += name + " " + std::to_string(e.gauge->value()) + "\n";
        break;
      case Kind::Histogram: {
        const Histogram& h = *e.histogram;
        const std::size_t hi = highestNonEmptyBucket(h);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= hi; ++i) {
          cum += h.bucketCount(i);
          out += name + "_bucket{le=\"" +
                 std::to_string(Histogram::bucketBound(i)) +
                 "\"} " + std::to_string(cum) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) +
               "\n";
        out += name + "_sum " + std::to_string(h.sum()) + "\n";
        out += name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
      case Kind::Info:
        out += name + labelSet(e.labels) + " 1\n";
        break;
    }
  }
  return out;
}

void Registry::resetAll() {
  std::lock_guard lock(impl_->mu);
  for (auto& [name, e] : impl_->entries) {
    switch (e.kind) {
      case Kind::Counter:
        e.counter->reset();
        break;
      case Kind::Gauge:
        e.gauge->reset();
        break;
      case Kind::Histogram:
        e.histogram->reset();
        break;
      case Kind::Info:
        break;  // constant; nothing to zero
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard lock(impl_->mu);
  return impl_->entries.size();
}

}  // namespace mui::obs
