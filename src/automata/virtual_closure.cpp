#include "automata/virtual_closure.hpp"

#include <stdexcept>

namespace mui::automata {

VirtualClosure::VirtualClosure(const IncompleteAutomaton& m,
                               const std::vector<Interaction>& alphabet,
                               ClosureStyle style, ClosureCopies copies,
                               std::size_t stride,
                               const std::string& chaosProp)
    : FlatComponent(m.base(), stride),
      m_(m),
      known_(m.base().stateCount()),
      copies_(copies == ClosureCopies::Both ? 2 : 1) {
  const Automaton& base = m.base();
  const std::size_t w2 = 2 * stride;
  chaosLabels_.set(base.propTable()->intern(chaosProp));

  alphabetWords_.resize(alphabet.size() * w2);
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    // chaoticClosure adds every interaction at s_∀, which validates it.
    if (!alphabet[i].in.isSubsetOf(base.inputs())) {
      throw std::invalid_argument("addTransition: A not a subset of I");
    }
    if (!alphabet[i].out.isSubsetOf(base.outputs())) {
      throw std::invalid_argument("addTransition: B not a subset of O");
    }
    packWords(alphabet[i].in, stride, &alphabetWords_[i * w2]);
    packWords(alphabet[i].out, stride, &alphabetWords_[i * w2 + stride]);
  }

  knownHead_.reserve(known_ + 1);
  chaosHead_.reserve(known_ + 1);
  knownHead_.push_back(0);
  chaosHead_.push_back(0);
  for (StateId s = 0; s < known_; ++s) {
    for (const auto& t : base.transitionsFrom(s)) {
      knownTo_.push_back(t.to);
      knownWords_.resize(knownWords_.size() + w2);
      Word* dst = knownWords_.data() + knownWords_.size() - w2;
      packWords(t.label.in, stride, dst);
      packWords(t.label.out, stride, dst + stride);
    }
    knownHead_.push_back(static_cast<std::uint32_t>(knownTo_.size()));
    // The chaos mask of s: Def. 9's (A, B) ∉ T̄, minus the interactions T
    // already answers when the style exploits determinism.
    for (std::size_t i = 0; i < alphabet.size(); ++i) {
      if (m.isForbidden(s, alphabet[i])) continue;
      if (style == ClosureStyle::DeterministicTarget &&
          base.hasTransition(s, alphabet[i])) {
        continue;
      }
      chaosAlpha_.push_back(static_cast<std::uint32_t>(i));
    }
    chaosHead_.push_back(static_cast<std::uint32_t>(chaosAlpha_.size()));
  }
}

std::string VirtualClosure::stateName(StateId c) const {
  if (c == sAll()) return "s_all";
  if (c == sDelta()) return "s_delta";
  const std::string& name = m_.base().stateName(knownOrigin(c));
  return copies_ == 2 && c % 2 == 1 ? name + "'" : name;
}

const PropSet& VirtualClosure::labels(StateId c) const {
  return isChaos(c) ? chaosLabels_ : m_.base().labels(knownOrigin(c));
}

std::vector<StateId> VirtualClosure::initialStates() const {
  std::vector<StateId> out;
  for (const StateId q : m_.base().initialStates()) {
    if (copies_ == 2) out.push_back(2 * q);
    out.push_back(copy1(q));
  }
  return out;
}

void VirtualClosure::edges(StateId c, std::vector<EdgeRef>& out) const {
  out.clear();
  const std::size_t w2 = 2 * stride();
  const auto chaosPair = [&](std::size_t i) {
    out.push_back({&alphabetWords_[i * w2], sAll()});
    out.push_back({&alphabetWords_[i * w2], sDelta()});
  };
  if (c == sDelta()) return;
  if (c == sAll()) {
    for (std::size_t i = 0; i < alphabetWords_.size() / w2; ++i) {
      chaosPair(i);
    }
    return;
  }
  const StateId s = knownOrigin(c);
  // Known transitions re-choose the copy bit: (s, 0) lists (t, 0) before
  // (t, 1), (s, 1) lists (t, 1) before (t, 0).
  const bool copy0 = copies_ == 2 && c % 2 == 0;
  for (std::uint32_t e = knownHead_[s]; e < knownHead_[s + 1]; ++e) {
    const Word* label = &knownWords_[std::size_t{e} * w2];
    const StateId t = knownTo_[e];
    if (copies_ == 1) {
      out.push_back({label, t});
    } else if (copy0) {
      out.push_back({label, 2 * t});
      out.push_back({label, 2 * t + 1});
    } else {
      out.push_back({label, 2 * t + 1});
      out.push_back({label, 2 * t});
    }
  }
  if (copy0) return;  // unknown interactions deadlock at (s, 0)
  for (std::uint32_t j = chaosHead_[s]; j < chaosHead_[s + 1]; ++j) {
    chaosPair(chaosAlpha_[j]);
  }
}

}  // namespace mui::automata
