#include "automata/virtual_closure.hpp"

#include <bit>
#include <stdexcept>

namespace mui::automata {

VirtualClosure::VirtualClosure(const IncompleteAutomaton& m,
                               const std::vector<Interaction>& alphabet,
                               ClosureStyle style, std::size_t stride,
                               const std::string& chaosProp)
    : FlatComponent(m.base(), stride),
      m_(m),
      known_(m.base().stateCount()) {
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
  return m_.base().stateName(c);
}

const PropSet& VirtualClosure::labels(StateId c) const {
  return isChaos(c) ? chaosLabels_ : m_.base().labels(c);
}

std::vector<StateId> VirtualClosure::initialStates() const {
  return m_.base().initialStates();
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
  for (std::uint32_t e = knownHead_[c]; e < knownHead_[c + 1]; ++e) {
    out.push_back({&knownWords_[std::size_t{e} * w2], knownTo_[e]});
  }
  for (std::uint32_t j = chaosHead_[c]; j < chaosHead_[c + 1]; ++j) {
    chaosPair(chaosAlpha_[j]);
  }
}

// ---- DoubledProduct ---------------------------------------------------------

DoubledProduct::DoubledProduct(const FlatProduct& copy1,
                               const std::vector<VirtualClosure>& closures)
    : p_(copy1) {
  if (copy1.capped()) {
    throw std::invalid_argument("DoubledProduct: the product is capped");
  }
  if (closures.empty() || closures.size() > 32 ||
      copy1.componentCount() != closures.size() + 1) {
    throw std::invalid_argument(
        "DoubledProduct: expects a context and 1 to 32 closures");
  }
  sAll_.push_back(0);
  initialCount_.push_back(copy1.component(0).initialStates().size());
  for (std::size_t k = 0; k < closures.size(); ++k) {
    if (&copy1.component(k + 1) !=
        static_cast<const FlatComponent*>(&closures[k])) {
      throw std::invalid_argument(
          "DoubledProduct: closure " + std::to_string(k) +
          " is not component " + std::to_string(k + 1) + " of the product");
    }
    sAll_.push_back(closures[k].sAll());
    initialCount_.push_back(closures[k].initialStates().size());
  }
  const StateId begin = copy1.regionBegin();
  knownMask_.reserve(begin);
  for (StateId p = 0; p < begin; ++p) {
    std::uint32_t mask = 0;
    for (std::size_t k = 1; k < sAll_.size(); ++k) {
      if (known(p, k)) mask |= 1u << (k - 1);
    }
    knownMask_.push_back(mask);
    states_ += std::size_t{1} << std::popcount(mask);
  }
  // Every legacy is in chaos in a region state: one node each.
  states_ += copy1.fullStateCount() - begin;
}

std::vector<DoubledProduct::Node> DoubledProduct::initialNodes() const {
  // composeFlat seeds the rows lexicographically over the components'
  // initial states, and the two-copy closure lists (q, 0), (q, 1) for each
  // initial q: row r of the copy-1 product is the mixed-radix number of the
  // components' initial-state indices.
  std::vector<Node> out;
  const std::vector<StateId>& rows = p_.initialStates();
  const auto seed = [&](auto&& self, std::size_t k, std::size_t row,
                        std::uint32_t copies) -> void {
    if (k == initialCount_.size()) {
      out.push_back({rows[row], copies});
      return;
    }
    for (std::size_t i = 0; i < initialCount_[k]; ++i) {
      const std::size_t r = row * initialCount_[k] + i;
      if (k == 0) {
        self(self, 1, r, copies);
      } else {
        self(self, k + 1, r, copies);
        self(self, k + 1, r, copies | 1u << (k - 1));
      }
    }
  };
  seed(seed, 0, 0, 0);
  return out;
}

void DoubledProduct::successors(Node n, std::vector<Step>& out) const {
  out.clear();
  expand(n, 1, p_.edgeBegin(n.state), p_.edgeEnd(n.state), 0, out);
}

void DoubledProduct::expand(Node n, std::size_t k, std::uint32_t lo,
                            std::uint32_t hi, std::uint32_t copies,
                            std::vector<Step>& out) const {
  const bool last = k + 1 == sAll_.size();
  const std::uint32_t bit = 1u << (k - 1);
  const bool fromKnown = (knownMask(n.state) & bit) != 0;
  const std::uint32_t b = n.copies & bit;
  for (std::uint32_t e = lo; e < hi;) {
    // [e, end) are the edges that make legacy k's choice of edge e.
    std::uint32_t end = e + 1;
    while (!last && end < hi && p_.edgeBranch(end) > k) ++end;
    const auto next = [&](std::uint32_t c) {
      if (last) {
        out.push_back({{p_.edgeTarget(e), c}, e});
      } else {
        expand(n, k + 1, e, end, c, out);
      }
    };
    if (!fromKnown) {
      next(copies);
    } else if (known(p_.edgeTarget(e), k)) {
      next(copies | b);
      next(copies | (b ^ bit));
    } else if (b != 0) {
      next(copies);
    }
    e = end;
  }
}

bool DoubledProduct::deadlocked(Node n) const {
  // The legacies at an (s, 0) copy drop every edge that takes them into
  // chaos; the node is stuck when that drops all of its state's edges.
  const std::uint32_t zero = knownMask(n.state) & ~n.copies;
  for (std::uint32_t e = p_.edgeBegin(n.state); e < p_.edgeEnd(n.state);
       ++e) {
    bool kept = true;
    for (std::uint32_t m = zero; m != 0 && kept; m &= m - 1) {
      kept = known(p_.edgeTarget(e),
                   static_cast<std::size_t>(std::countr_zero(m)) + 1);
    }
    if (kept) return false;
  }
  return true;
}

bool DoubledProduct::anyDeadlock() const {
  for (StateId p = 0; p < p_.stateCount(); ++p) {
    if ((p < knownMask_.size() || p_.regionReached(p)) && deadlocked({p, 0})) {
      return true;
    }
  }
  return false;
}

std::string DoubledProduct::stateName(Node n) const {
  std::string out;
  for (std::size_t k = 0; k < sAll_.size(); ++k) {
    if (k) out += '|';
    out += p_.component(k).stateName(p_.origin(n.state, k));
    if (k > 0 && (n.copies >> (k - 1) & 1u) != 0) out += '\'';
  }
  return out;
}

std::string DoubledProduct::renderRun(
    const Run& run, const std::vector<std::uint32_t>& copies) const {
  return p_.renderRun(run, [&](std::size_t i, std::size_t k,
                               std::string& out) {
    out += p_.component(k).stateName(p_.origin(run.states[i], k));
    if (k > 0 && (copies[i] >> (k - 1) & 1u) != 0) out += '\'';
  });
}

}  // namespace mui::automata
