#include "ctl/formula.hpp"

#include <stdexcept>

namespace mui::ctl {

namespace {
FormulaPtr make(Op op, std::string atom, Bound bound, FormulaPtr lhs,
                FormulaPtr rhs) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->atom = std::move(atom);
  f->bound = bound;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  return f;
}
}  // namespace

FormulaPtr Formula::mkTrue() { return make(Op::True, {}, {}, {}, {}); }
FormulaPtr Formula::mkFalse() { return make(Op::False, {}, {}, {}, {}); }
FormulaPtr Formula::mkAtom(std::string name) {
  return make(Op::Atom, std::move(name), {}, {}, {});
}
FormulaPtr Formula::mkDeadlock() { return make(Op::Deadlock, {}, {}, {}, {}); }
FormulaPtr Formula::mkNot(FormulaPtr f) {
  return make(Op::Not, {}, {}, std::move(f), {});
}
FormulaPtr Formula::mkAnd(FormulaPtr a, FormulaPtr b) {
  return make(Op::And, {}, {}, std::move(a), std::move(b));
}
FormulaPtr Formula::mkOr(FormulaPtr a, FormulaPtr b) {
  return make(Op::Or, {}, {}, std::move(a), std::move(b));
}
FormulaPtr Formula::mkImplies(FormulaPtr a, FormulaPtr b) {
  return make(Op::Implies, {}, {}, std::move(a), std::move(b));
}
FormulaPtr Formula::mkAX(FormulaPtr f) {
  return make(Op::AX, {}, {}, std::move(f), {});
}
FormulaPtr Formula::mkEX(FormulaPtr f) {
  return make(Op::EX, {}, {}, std::move(f), {});
}
FormulaPtr Formula::mkAF(FormulaPtr f, Bound b) {
  return make(Op::AF, {}, b, std::move(f), {});
}
FormulaPtr Formula::mkEF(FormulaPtr f, Bound b) {
  return make(Op::EF, {}, b, std::move(f), {});
}
FormulaPtr Formula::mkAG(FormulaPtr f, Bound b) {
  return make(Op::AG, {}, b, std::move(f), {});
}
FormulaPtr Formula::mkEG(FormulaPtr f, Bound b) {
  return make(Op::EG, {}, b, std::move(f), {});
}
FormulaPtr Formula::mkAU(FormulaPtr a, FormulaPtr b, Bound bd) {
  return make(Op::AU, {}, bd, std::move(a), std::move(b));
}
FormulaPtr Formula::mkEU(FormulaPtr a, FormulaPtr b, Bound bd) {
  return make(Op::EU, {}, bd, std::move(a), std::move(b));
}

namespace {
bool isACTLImpl(const Formula& f, bool negated) {
  switch (f.op) {
    case Op::True:
    case Op::False:
    case Op::Atom:
    case Op::Deadlock:
      return true;
    case Op::Not:
      return isACTLImpl(*f.lhs, !negated);
    case Op::And:
    case Op::Or:
      return isACTLImpl(*f.lhs, negated) && isACTLImpl(*f.rhs, negated);
    case Op::Implies:
      return isACTLImpl(*f.lhs, !negated) && isACTLImpl(*f.rhs, negated);
    case Op::AX:
    case Op::AF:
    case Op::AG:
      return !negated && isACTLImpl(*f.lhs, negated);
    case Op::AU:
      return !negated && isACTLImpl(*f.lhs, negated) &&
             isACTLImpl(*f.rhs, negated);
    case Op::EX:
    case Op::EF:
    case Op::EG:
      return negated && isACTLImpl(*f.lhs, negated);
    case Op::EU:
      return negated && isACTLImpl(*f.lhs, negated) &&
             isACTLImpl(*f.rhs, negated);
  }
  return false;
}

std::string boundStr(const Bound& b) {
  if (!b.bounded() && b.lo == 0) return "";
  return "[" + std::to_string(b.lo) + "," +
         (b.bounded() ? std::to_string(b.hi) : std::string("inf")) + "]";
}
}  // namespace

bool Formula::isACTL() const { return isACTLImpl(*this, false); }

bool isPropositional(const FormulaPtr& f) {
  switch (f->op) {
    case Op::True:
    case Op::False:
    case Op::Atom:
    case Op::Deadlock:
      return true;
    case Op::Not:
    case Op::And:
    case Op::Or:
    case Op::Implies:
      return isPropositional(f->lhs) &&
             (f->rhs == nullptr || isPropositional(f->rhs));
    default:
      return false;
  }
}

std::string Formula::toString() const {
  switch (op) {
    case Op::True:
      return "true";
    case Op::False:
      return "false";
    case Op::Atom:
      return atom;
    case Op::Deadlock:
      return "deadlock";
    case Op::Not:
      return "!(" + lhs->toString() + ")";
    case Op::And:
      return "(" + lhs->toString() + " && " + rhs->toString() + ")";
    case Op::Or:
      return "(" + lhs->toString() + " || " + rhs->toString() + ")";
    case Op::Implies:
      return "(" + lhs->toString() + " -> " + rhs->toString() + ")";
    case Op::AX:
      return "AX (" + lhs->toString() + ")";
    case Op::EX:
      return "EX (" + lhs->toString() + ")";
    case Op::AF:
      return "AF" + boundStr(bound) + " (" + lhs->toString() + ")";
    case Op::EF:
      return "EF" + boundStr(bound) + " (" + lhs->toString() + ")";
    case Op::AG:
      return "AG" + boundStr(bound) + " (" + lhs->toString() + ")";
    case Op::EG:
      return "EG" + boundStr(bound) + " (" + lhs->toString() + ")";
    case Op::AU:
      return "A[" + lhs->toString() + " U" + boundStr(bound) + " " +
             rhs->toString() + "]";
    case Op::EU:
      return "E[" + lhs->toString() + " U" + boundStr(bound) + " " +
             rhs->toString() + "]";
  }
  return "?";
}

namespace {
FormulaPtr nnf(const FormulaPtr& f, bool neg) {
  switch (f->op) {
    case Op::True:
      return neg ? Formula::mkFalse() : Formula::mkTrue();
    case Op::False:
      return neg ? Formula::mkTrue() : Formula::mkFalse();
    case Op::Atom:
    case Op::Deadlock:
      return neg ? Formula::mkNot(f) : f;
    case Op::Not:
      return nnf(f->lhs, !neg);
    case Op::And:
      return neg ? Formula::mkOr(nnf(f->lhs, true), nnf(f->rhs, true))
                 : Formula::mkAnd(nnf(f->lhs, false), nnf(f->rhs, false));
    case Op::Or:
      return neg ? Formula::mkAnd(nnf(f->lhs, true), nnf(f->rhs, true))
                 : Formula::mkOr(nnf(f->lhs, false), nnf(f->rhs, false));
    case Op::Implies:
      // a -> b  ≡  ¬a ∨ b
      return neg ? Formula::mkAnd(nnf(f->lhs, false), nnf(f->rhs, true))
                 : Formula::mkOr(nnf(f->lhs, true), nnf(f->rhs, false));
    case Op::AX:
      return neg ? Formula::mkEX(nnf(f->lhs, true))
                 : Formula::mkAX(nnf(f->lhs, false));
    case Op::EX:
      return neg ? Formula::mkAX(nnf(f->lhs, true))
                 : Formula::mkEX(nnf(f->lhs, false));
    case Op::AF:
      return neg ? Formula::mkEG(nnf(f->lhs, true), f->bound)
                 : Formula::mkAF(nnf(f->lhs, false), f->bound);
    case Op::EF:
      return neg ? Formula::mkAG(nnf(f->lhs, true), f->bound)
                 : Formula::mkEF(nnf(f->lhs, false), f->bound);
    case Op::AG:
      return neg ? Formula::mkEF(nnf(f->lhs, true), f->bound)
                 : Formula::mkAG(nnf(f->lhs, false), f->bound);
    case Op::EG:
      return neg ? Formula::mkAF(nnf(f->lhs, true), f->bound)
                 : Formula::mkEG(nnf(f->lhs, false), f->bound);
    case Op::AU:
    case Op::EU:
      if (neg) {
        throw std::invalid_argument(
            "toNNF: negated Until is not supported (no Release operator)");
      }
      return f->op == Op::AU
                 ? Formula::mkAU(nnf(f->lhs, false), nnf(f->rhs, false),
                                 f->bound)
                 : Formula::mkEU(nnf(f->lhs, false), nnf(f->rhs, false),
                                 f->bound);
  }
  throw std::logic_error("toNNF: unknown operator");
}

FormulaPtr weaken(const FormulaPtr& f, const FormulaPtr& chaos) {
  switch (f->op) {
    case Op::True:
    case Op::False:
    case Op::Deadlock:
      return f;
    case Op::Atom:
      return Formula::mkOr(f, chaos);
    case Op::Not:
      // NNF guarantees the operand is an atom (δ included).
      return f->lhs->op == Op::Deadlock ? f : Formula::mkOr(f, chaos);
    case Op::And:
      return Formula::mkAnd(weaken(f->lhs, chaos), weaken(f->rhs, chaos));
    case Op::Or:
      return Formula::mkOr(weaken(f->lhs, chaos), weaken(f->rhs, chaos));
    case Op::AX:
      return Formula::mkAX(weaken(f->lhs, chaos));
    case Op::EX:
      return Formula::mkEX(weaken(f->lhs, chaos));
    case Op::AF:
      return Formula::mkAF(weaken(f->lhs, chaos), f->bound);
    case Op::EF:
      return Formula::mkEF(weaken(f->lhs, chaos), f->bound);
    case Op::AG:
      return Formula::mkAG(weaken(f->lhs, chaos), f->bound);
    case Op::EG:
      return Formula::mkEG(weaken(f->lhs, chaos), f->bound);
    case Op::AU:
      return Formula::mkAU(weaken(f->lhs, chaos), weaken(f->rhs, chaos),
                           f->bound);
    case Op::EU:
      return Formula::mkEU(weaken(f->lhs, chaos), weaken(f->rhs, chaos),
                           f->bound);
    case Op::Implies:
      break;  // eliminated by NNF
  }
  throw std::logic_error("weakenForChaos: non-NNF operator");
}
}  // namespace

std::size_t formulaSize(const FormulaPtr& f) {
  if (!f) return 0;
  return 1 + formulaSize(f->lhs) + formulaSize(f->rhs);
}

FormulaPtr toNNF(const FormulaPtr& f) { return nnf(f, false); }

FormulaPtr weakenForChaos(const FormulaPtr& f, const std::string& chaosProp) {
  return weaken(toNNF(f), Formula::mkAtom(chaosProp));
}

}  // namespace mui::ctl
