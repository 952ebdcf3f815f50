#include "core/query_template.h"

#include <string>
#include <utility>

#include "ast/special_predicates.h"

namespace factlog::core {

namespace {

using ast::Atom;
using ast::Term;

constexpr char kPlaceholderPrefix[] = "#q";

bool Mentions(const Term& term, const Term& constant) {
  if (term == constant) return true;
  if (!term.IsCompound()) return false;
  for (const Term& arg : term.args()) {
    if (Mentions(arg, constant)) return true;
  }
  return false;
}

bool RulesMention(const ast::Program& program, const Term& constant) {
  for (const ast::Rule& rule : program.rules()) {
    for (const Term& t : rule.head().args()) {
      if (Mentions(t, constant)) return true;
    }
    for (const Atom& lit : rule.body()) {
      for (const Term& t : lit.args()) {
        if (Mentions(t, constant)) return true;
      }
    }
  }
  return false;
}

bool UsesArithmetic(const ast::Program& program) {
  for (const ast::Rule& rule : program.rules()) {
    for (const Atom& lit : rule.body()) {
      if (lit.predicate() == ast::kAffinePredicate ||
          lit.predicate() == ast::kGeqPredicate) {
        return true;
      }
    }
  }
  return false;
}

bool HasPlaceholder(const Term& term) {
  if (PlaceholderIndex(term) >= 0) return true;
  if (!term.IsCompound()) return false;
  for (const Term& arg : term.args()) {
    if (HasPlaceholder(arg)) return true;
  }
  return false;
}

void CollectSites(const Atom& atom, int rule, int literal,
                  std::vector<PlaceholderSite>* out) {
  for (size_t i = 0; i < atom.arity(); ++i) {
    if (HasPlaceholder(atom.args()[i])) {
      out->push_back(PlaceholderSite{rule, literal, static_cast<int>(i)});
    }
  }
}

Result<Term> Substitute(const Term& term, const std::vector<Term>& values) {
  const int index = PlaceholderIndex(term);
  if (index >= 0) {
    if (static_cast<size_t>(index) >= values.size()) {
      return Status::Internal("plan template placeholder " + term.ToString() +
                              " has no bound value");
    }
    return values[index];
  }
  if (!term.IsCompound()) return term;
  std::vector<Term> args;
  args.reserve(term.args().size());
  for (const Term& arg : term.args()) {
    FACTLOG_ASSIGN_OR_RETURN(Term bound, Substitute(arg, values));
    args.push_back(std::move(bound));
  }
  return Term::App(term.symbol(), std::move(args));
}

}  // namespace

Term Placeholder(size_t index) {
  return Term::Sym(kPlaceholderPrefix + std::to_string(index));
}

int PlaceholderIndex(const Term& term) {
  if (term.kind() != Term::Kind::kSymbol) return -1;
  const std::string& name = term.symbol();
  const size_t prefix = sizeof(kPlaceholderPrefix) - 1;
  // At most nine digits, so the index fits an int.
  if (name.size() <= prefix || name.size() > prefix + 9 ||
      name.compare(0, prefix, kPlaceholderPrefix) != 0) {
    return -1;
  }
  int index = 0;
  for (size_t i = prefix; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    index = index * 10 + (name[i] - '0');
  }
  return index;
}

QueryTemplate AbstractQuery(const ast::Program& program, const Atom& query) {
  QueryTemplate out;
  out.query = query;
  if (UsesArithmetic(program)) return out;
  for (Term& arg : *out.query.mutable_args()) {
    if (!arg.IsConstant() || RulesMention(program, arg)) continue;
    size_t index = 0;
    while (index < out.values.size() && out.values[index] != arg) ++index;
    if (index == out.values.size()) out.values.push_back(arg);
    arg = Placeholder(index);
  }
  return out;
}

std::vector<PlaceholderSite> FindPlaceholderSites(const ast::Program& program,
                                                  const Atom& query) {
  std::vector<PlaceholderSite> sites;
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const ast::Rule& rule = program.rules()[r];
    const int ri = static_cast<int>(r);
    CollectSites(rule.head(), ri, -1, &sites);
    for (size_t l = 0; l < rule.body().size(); ++l) {
      CollectSites(rule.body()[l], ri, static_cast<int>(l), &sites);
    }
  }
  CollectSites(query, -1, -1, &sites);
  return sites;
}

Result<CompiledQuery> Bind(const CompiledQuery& tmpl,
                           const std::vector<Term>& values) {
  // Why a template answers for every value it is bound to: the compile
  // passes (adornment, classification, the factorability containments,
  // magic/supplementary magic, counting, the linear rewritings, factoring,
  // the §5 cleanups and join planning) treat constants only through
  // IsGround and equality — unification, containment mappings, literal
  // comparison. None does arithmetic on a query constant; the one
  // compile-time evaluator, the uniform-equivalence chase, sees no query
  // constant of a program using affine/geq because AbstractQuery keeps those
  // literal. Renaming every constant the rules do not mention consistently
  // therefore commutes with compilation, and AbstractQuery only abstracts
  // such constants, equal values to one placeholder. Compiling with
  // placeholders and then writing values into the recorded sites yields the
  // program compiling the concrete query would have produced, up to that
  // renaming — and constants the passes generated themselves (Counting's 0
  // index fields) are never touched, because binding follows the sites, not
  // the values.
  CompiledQuery out = tmpl;
  out.placeholder_sites.clear();
  for (const PlaceholderSite& site : tmpl.placeholder_sites) {
    Atom* atom = &out.query;
    if (site.rule >= 0) {
      ast::Rule& rule = (*out.program.mutable_rules())[site.rule];
      atom = site.literal < 0 ? rule.mutable_head()
                              : &(*rule.mutable_body())[site.literal];
    }
    Term& arg = (*atom->mutable_args())[site.arg];
    FACTLOG_ASSIGN_OR_RETURN(arg, Substitute(arg, values));
  }
  out.program.set_query(out.query);
  return out;
}

}  // namespace factlog::core
