#include "automata/automaton.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/dot.hpp"

namespace mui::automata {

Automaton::Automaton(SignalTableRef signals, SignalTableRef props,
                     std::string name)
    : signals_(std::move(signals)),
      props_(std::move(props)),
      name_(std::move(name)) {
  if (!signals_ || !props_) {
    throw std::invalid_argument("Automaton: null table");
  }
}

Automaton Automaton::withFreshTables(std::string name) {
  return Automaton(std::make_shared<SignalTable>(),
                   std::make_shared<SignalTable>(), std::move(name));
}

StateId Automaton::addState(const std::string& stateName) {
  if (stateByName(stateName)) {
    throw std::invalid_argument("Automaton::addState: duplicate state '" +
                                stateName + "'");
  }
  stateNames_.push_back(stateName);
  labels_.emplace_back();
  trans_.emplace_back();
  byLabel_.emplace_back();
  const StateId id = static_cast<StateId>(stateNames_.size() - 1);
  stateIds_.emplace(stateName, id);
  return id;
}

StateId Automaton::ensureState(const std::string& stateName) {
  if (auto s = stateByName(stateName)) return *s;
  return addState(stateName);
}

void Automaton::markInitial(StateId s) {
  if (s >= stateCount()) throw std::out_of_range("markInitial: bad state");
  if (!isInitial(s)) initial_.push_back(s);
}

util::NameId Automaton::addInput(const std::string& signal) {
  const util::NameId id = signals_->intern(signal);
  inputs_.set(id);
  return id;
}

util::NameId Automaton::addOutput(const std::string& signal) {
  const util::NameId id = signals_->intern(signal);
  outputs_.set(id);
  return id;
}

void Automaton::addLabel(StateId s, const std::string& prop) {
  if (s >= stateCount()) throw std::out_of_range("addLabel: bad state");
  labels_[s].set(props_->intern(prop));
}

void Automaton::addLabels(StateId s, const PropSet& props) {
  if (s >= stateCount()) throw std::out_of_range("addLabels: bad state");
  labels_[s] |= props;
}

void Automaton::labelWithStateName(StateId s) {
  const std::string& n = stateName(s);
  const std::string prefix = name_.empty() ? std::string() : name_ + ".";
  // Add a proposition for each "::"-separated hierarchical prefix.
  std::size_t pos = 0;
  while (true) {
    const std::size_t sep = n.find("::", pos);
    if (sep == std::string::npos) break;
    addLabel(s, prefix + n.substr(0, sep));
    pos = sep + 2;
  }
  addLabel(s, prefix + n);
}

void Automaton::renameInstance(std::string name) {
  name_ = std::move(name);
  for (StateId s = 0; s < stateCount(); ++s) {
    labels_[s] = PropSet{};
    labelWithStateName(s);
  }
}

void Automaton::addTransition(StateId from, Interaction label, StateId to) {
  if (from >= stateCount() || to >= stateCount()) {
    throw std::out_of_range("addTransition: bad state");
  }
  if (!label.in.isSubsetOf(inputs_)) {
    throw std::invalid_argument("addTransition: A not a subset of I");
  }
  if (!label.out.isSubsetOf(outputs_)) {
    throw std::invalid_argument("addTransition: B not a subset of O");
  }
  auto& slot = byLabel_[from][label];
  if (std::find(slot.begin(), slot.end(), to) != slot.end()) return;
  slot.push_back(to);
  trans_[from].push_back({from, std::move(label), to});
}

std::size_t Automaton::transitionCount() const {
  std::size_t n = 0;
  for (const auto& v : trans_) n += v.size();
  return n;
}

const std::string& Automaton::stateName(StateId s) const {
  if (s >= stateCount()) throw std::out_of_range("stateName: bad state");
  return stateNames_[s];
}

std::optional<StateId> Automaton::stateByName(
    const std::string& stateName) const {
  auto it = stateIds_.find(stateName);
  if (it == stateIds_.end()) return std::nullopt;
  return it->second;
}

const PropSet& Automaton::labels(StateId s) const {
  if (s >= stateCount()) throw std::out_of_range("labels: bad state");
  return labels_[s];
}

const std::vector<Transition>& Automaton::transitionsFrom(StateId s) const {
  if (s >= stateCount()) throw std::out_of_range("transitionsFrom: bad state");
  return trans_[s];
}

bool Automaton::isInitial(StateId s) const {
  return std::find(initial_.begin(), initial_.end(), s) != initial_.end();
}

bool Automaton::hasTransition(StateId from, const Interaction& x) const {
  if (from >= stateCount()) throw std::out_of_range("hasTransition: bad state");
  return byLabel_[from].contains(x);
}

bool Automaton::hasTransitionTo(StateId from, const Interaction& x,
                                StateId to) const {
  if (from >= stateCount()) {
    throw std::out_of_range("hasTransitionTo: bad state");
  }
  const auto it = byLabel_[from].find(x);
  if (it == byLabel_[from].end()) return false;
  return std::find(it->second.begin(), it->second.end(), to) !=
         it->second.end();
}

std::vector<StateId> Automaton::successors(StateId from,
                                           const Interaction& x) const {
  if (from >= stateCount()) throw std::out_of_range("successors: bad state");
  const auto it = byLabel_[from].find(x);
  if (it == byLabel_[from].end()) return {};
  return it->second;
}

std::vector<Interaction> Automaton::enabledInteractions(StateId s) const {
  if (s >= stateCount()) {
    throw std::out_of_range("enabledInteractions: bad state");
  }
  std::vector<Interaction> out;
  out.reserve(byLabel_[s].size());
  if (byLabel_[s].size() == trans_[s].size()) {
    // No duplicate labels: the transition list is already the answer.
    for (const auto& t : trans_[s]) out.push_back(t.label);
    return out;
  }
  for (const auto& t : trans_[s]) {
    // First occurrence: the index lists successors in insertion order, so
    // t is its label's first transition iff t.to leads that list.
    if (byLabel_[s].find(t.label)->second.front() == t.to) {
      out.push_back(t.label);
    }
  }
  return out;
}

bool Automaton::composableWith(const Automaton& other) const {
  if (signals_ != other.signals_) return false;
  return !inputs_.intersects(other.inputs_) &&
         !outputs_.intersects(other.outputs_);
}

bool Automaton::orthogonalTo(const Automaton& other) const {
  return composableWith(other) && !inputs_.intersects(other.outputs_) &&
         !outputs_.intersects(other.inputs_);
}

std::vector<bool> Automaton::reachableStates() const {
  std::vector<bool> seen(stateCount(), false);
  std::deque<StateId> work;
  for (StateId s : initial_) {
    if (!seen[s]) {
      seen[s] = true;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const StateId s = work.front();
    work.pop_front();
    for (const auto& t : trans_[s]) {
      if (!seen[t.to]) {
        seen[t.to] = true;
        work.push_back(t.to);
      }
    }
  }
  return seen;
}

Automaton Automaton::prunedToReachable(std::vector<StateId>* oldToNew) const {
  const auto seen = reachableStates();
  Automaton out(signals_, props_, name_);
  out.inputs_ = inputs_;
  out.outputs_ = outputs_;
  std::vector<StateId> map(stateCount(), UINT32_MAX);
  for (StateId s = 0; s < stateCount(); ++s) {
    if (seen[s]) {
      map[s] = out.addState(stateNames_[s]);
      out.labels_[map[s]] = labels_[s];
    }
  }
  for (StateId s = 0; s < stateCount(); ++s) {
    if (!seen[s]) continue;
    for (const auto& t : trans_[s]) {
      out.addTransition(map[s], t.label, map[t.to]);
    }
  }
  for (StateId s : initial_) {
    if (seen[s]) out.markInitial(map[s]);
  }
  if (oldToNew) *oldToNew = std::move(map);
  return out;
}

bool Automaton::deterministic() const {
  for (StateId s = 0; s < stateCount(); ++s) {
    for (std::size_t i = 0; i < trans_[s].size(); ++i) {
      for (std::size_t j = i + 1; j < trans_[s].size(); ++j) {
        if (trans_[s][i].label == trans_[s][j].label) return false;
      }
    }
  }
  return true;
}

bool Automaton::admitsRun(const Run& run) const {
  if (!run.wellFormed()) return false;
  for (StateId s : run.states) {
    if (s >= stateCount()) return false;
  }
  if (!isInitial(run.states.front())) return false;
  const std::size_t regularSteps =
      run.deadlock ? run.labels.size() - 1 : run.labels.size();
  for (std::size_t i = 0; i < regularSteps; ++i) {
    if (!hasTransitionTo(run.states[i], run.labels[i], run.states[i + 1])) {
      return false;
    }
  }
  if (run.deadlock) {
    // Def. 2: the final interaction must have no successor.
    if (hasTransition(run.states.back(), run.labels.back())) return false;
  }
  return true;
}

void Automaton::checkInvariants() const {
  for (StateId s = 0; s < stateCount(); ++s) {
    for (const auto& t : trans_[s]) {
      if (t.from != s || t.to >= stateCount()) {
        throw std::logic_error("Automaton invariant violated: bad transition");
      }
      if (!t.label.in.isSubsetOf(inputs_) ||
          !t.label.out.isSubsetOf(outputs_)) {
        throw std::logic_error("Automaton invariant violated: label not in I/O");
      }
    }
  }
  for (StateId s : initial_) {
    if (s >= stateCount()) {
      throw std::logic_error("Automaton invariant violated: bad initial state");
    }
  }
}

std::string Automaton::toDot() const {
  util::DotWriter dot(name_.empty() ? "automaton" : name_);
  for (StateId s = 0; s < stateCount(); ++s) {
    dot.node(stateNames_[s], stateNames_[s], isInitial(s));
  }
  for (StateId s = 0; s < stateCount(); ++s) {
    for (const auto& t : trans_[s]) {
      dot.edge(stateNames_[s], stateNames_[t.to],
               interactionToString(t.label));
    }
  }
  return dot.str();
}

std::string Automaton::toText() const {
  std::string out;
  out += "automaton " + (name_.empty() ? std::string("<anon>") : name_) + ": " +
         std::to_string(stateCount()) + " states, " +
         std::to_string(transitionCount()) + " transitions\n";
  for (StateId s = 0; s < stateCount(); ++s) {
    out += (isInitial(s) ? "  -> " : "     ") + stateNames_[s] + "\n";
    for (const auto& t : trans_[s]) {
      out += "        --" + interactionToString(t.label) + "--> " +
             stateNames_[t.to] + "\n";
    }
  }
  return out;
}

}  // namespace mui::automata
