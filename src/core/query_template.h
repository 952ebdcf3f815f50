// Plan templates: compile a query shape once, bind its constants per call.
//
// The paper's rewrites — Magic Sets, factoring under Theorems 4.1-4.3, the
// §5 cleanups — depend on a query's adornment, never on the values of its
// constants. The constant of `?- t(7, Y).` only lands in a few places: the
// magic seed `m_t_bf(7).`, the final query atom under magic, and rule bodies
// that static argument reduction or factoring filled (`bt(7)`).
//
// AbstractQuery replaces each atomic query constant the program's rules never
// mention by a reserved placeholder; CompileQuery compiles the abstracted
// query into a template whose CompiledQuery::placeholder_sites record where
// every placeholder landed; Bind writes a caller's constants into those
// sites. Binding changes no rule count or order, so the template's join
// plans stay index-aligned with the bound program.

#ifndef FACTLOG_CORE_QUERY_TEMPLATE_H_
#define FACTLOG_CORE_QUERY_TEMPLATE_H_

#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "core/transform_pass.h"

namespace factlog::core {

/// The placeholder for abstracted query constant `index`: the symbol
/// `#q<index>`. The parser rejects '#', so no parsed program contains one.
ast::Term Placeholder(size_t index);

/// The index `term` is the placeholder of, or -1 for any other term.
int PlaceholderIndex(const ast::Term& term);

/// A query split into its constant-free form and the constants bound to it.
struct QueryTemplate {
  /// The query with every abstracted constant replaced by its placeholder.
  /// Equal constants share one placeholder, so the template keeps the
  /// query's equality pattern.
  ast::Atom query;
  /// values[i] is the constant Placeholder(i) stands for.
  std::vector<ast::Term> values;
};

/// Abstracts every top-level atomic (integer or symbol) argument of `query`
/// that occurs nowhere in `program`'s rules. Constants the rules mention,
/// compound arguments and variables stay literal, and so does every argument
/// of a program that uses the arithmetic builtins (affine/geq), whose
/// compile-time evaluation in the uniform-equivalence chase would see the
/// placeholder instead of the number.
QueryTemplate AbstractQuery(const ast::Program& program,
                            const ast::Atom& query);

/// Every placeholder occurrence in the rules of `program` and in `query`.
std::vector<PlaceholderSite> FindPlaceholderSites(const ast::Program& program,
                                                  const ast::Atom& query);

/// Instantiates a template: a copy of `tmpl` whose program and query carry
/// values[i] wherever Placeholder(i) landed. Fails with kInternal when a
/// site names a placeholder `values` does not cover.
Result<CompiledQuery> Bind(const CompiledQuery& tmpl,
                           const std::vector<ast::Term>& values);

}  // namespace factlog::core

#endif  // FACTLOG_CORE_QUERY_TEMPLATE_H_
