#include "obs/journal.hpp"

namespace mui::obs {

void Journal::event(std::string_view type,
                    const util::json::Object& fields) {
  std::string line = "{\"schema\":" + std::to_string(kJournalSchemaVersion) +
                     ",\"type\":" + util::json::quote(type);
  const std::string rest = fields.str();
  if (rest.size() > 2) {  // non-empty object: splice its body in
    line += ",";
    line.append(rest, 1, rest.size() - 2);
  }
  line += "}\n";
  std::lock_guard lock(mu_);
  text_ += line;
  ++events_;
}

std::string Journal::text() const {
  std::lock_guard lock(mu_);
  return text_;
}

std::size_t Journal::eventCount() const {
  std::lock_guard lock(mu_);
  return events_;
}

void Journal::clear() {
  std::lock_guard lock(mu_);
  text_.clear();
  events_ = 0;
}

}  // namespace mui::obs
