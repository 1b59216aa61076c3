#pragma once
// Interning table mapping names (signals, atomic propositions, states of a
// shared universe) to dense ids. Automata that are composed together must
// share one table so that their DynBitset-encoded signal sets are comparable.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mui::util {

using NameId = std::uint32_t;

class NameTable {
 public:
  /// Returns the id of `name`, interning it if new.
  NameId intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const NameId id = static_cast<NameId>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id of `name` if already interned.
  [[nodiscard]] std::optional<NameId> lookup(std::string_view name) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] const std::string& name(NameId id) const {
    if (id >= names_.size()) throw std::out_of_range("NameTable::name: bad id");
    return names_[id];
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  /// Hashes any string-like key, so lookups need no std::string copy.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId, Hash, std::equal_to<>> ids_;
};

}  // namespace mui::util
