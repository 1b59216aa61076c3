#pragma once
// CTL / clocked-CTL (CCTL) formulas (paper Sec. 2.1).
//
// Time bounds on temporal operators are in discrete time units; since each
// transition of the automaton model takes exactly one time unit (paper
// Sec. 2), a bound [a, b] ranges over transition counts. The paper's
// properties are timed-ACTL (A-quantified) formulas such as the maximal-delay
// pattern AG(¬p1 ∨ AF[1,d] p2) and invariants like
// AG ¬(rearRole.convoy ∧ frontRole.noConvoy).
//
// Path semantics are over *maximal* paths: infinite, or ending in a state
// without outgoing transitions (a deadlock, Sec. 2.1's δ). Bounded operators
// use weak semantics beyond a path's end (a position that does not exist
// imposes no constraint for G and offers no witness for F), which keeps the
// standard dualities (¬AF[a,b]φ ≡ EG[a,b]¬φ etc.) intact.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace mui::ctl {

enum class Op {
  True,
  False,
  Atom,      // named atomic proposition
  Deadlock,  // structural predicate δ: state has no outgoing transition
  Not,
  And,
  Or,
  Implies,
  AX,
  EX,
  AF,
  EF,
  AG,
  EG,
  AU,  // A[lhs U rhs]
  EU,  // E[lhs U rhs]
};

/// Time bound [lo, hi] for F/G/U operators; unbounded when hi == kInf.
struct Bound {
  static constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  std::size_t lo = 0;
  std::size_t hi = kInf;

  [[nodiscard]] bool bounded() const { return hi != kInf; }
  bool operator==(const Bound&) const = default;
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

class Formula {
 public:
  Op op;
  std::string atom;       // Op::Atom
  Bound bound;            // AF/EF/AG/EG/AU/EU
  FormulaPtr lhs, rhs;    // operands (rhs only for binary ops)

  // ---- Factories -----------------------------------------------------------
  static FormulaPtr mkTrue();
  static FormulaPtr mkFalse();
  static FormulaPtr mkAtom(std::string name);
  static FormulaPtr mkDeadlock();
  static FormulaPtr mkNot(FormulaPtr f);
  static FormulaPtr mkAnd(FormulaPtr a, FormulaPtr b);
  static FormulaPtr mkOr(FormulaPtr a, FormulaPtr b);
  static FormulaPtr mkImplies(FormulaPtr a, FormulaPtr b);
  static FormulaPtr mkAX(FormulaPtr f);
  static FormulaPtr mkEX(FormulaPtr f);
  static FormulaPtr mkAF(FormulaPtr f, Bound b = {});
  static FormulaPtr mkEF(FormulaPtr f, Bound b = {});
  static FormulaPtr mkAG(FormulaPtr f, Bound b = {});
  static FormulaPtr mkEG(FormulaPtr f, Bound b = {});
  static FormulaPtr mkAU(FormulaPtr a, FormulaPtr b, Bound bd = {});
  static FormulaPtr mkEU(FormulaPtr a, FormulaPtr b, Bound bd = {});

  /// True iff the formula is in the ACTL fragment (only A path quantifiers
  /// outside negations) — the compositional fragment of Def. 5 for which
  /// verification verdicts transfer through refinement.
  [[nodiscard]] bool isACTL() const;

  [[nodiscard]] std::string toString() const;
};

/// True iff `f` is a boolean combination of atoms, constants and δ: a
/// state formula that each state decides on its own, so a violating state
/// witnesses its failure by itself.
bool isPropositional(const FormulaPtr& f);

/// Number of nodes in the formula tree (atoms and constants count 1). The
/// fuzzer's shrinker (src/fuzz/shrink.hpp) uses this as its simplification
/// order: a replacement candidate is accepted only if it is strictly smaller.
std::size_t formulaSize(const FormulaPtr& f);

/// Negation normal form: negations pushed to the atoms. Throws
/// std::invalid_argument for negated Until (we do not implement Release; the
/// paper's property patterns never need it).
FormulaPtr toNNF(const FormulaPtr& f);

/// The paper's chaotic-closure formula weakening (Sec. 2.7): converts to NNF
/// and replaces every literal p by (p ∨ chaosProp) and ¬p by (¬p ∨
/// chaosProp), so chaotic states satisfy every (weakened) literal and the
/// closure never produces spurious *property* witnesses.
FormulaPtr weakenForChaos(const FormulaPtr& f,
                          const std::string& chaosProp = "p_chaos");

}  // namespace mui::ctl
