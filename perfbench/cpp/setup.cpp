#include "setup.hpp"

#include <stdexcept>
#include <vector>

#include "analyze/lint.hpp"
#include "cdecl/cdecl.hpp"
#include "compose/codegen.hpp"
#include "compose/expand.hpp"
#include "compose/ir.hpp"
#include "compose/skeleton.hpp"
#include "descriptor/descriptor.hpp"

namespace perfbench {

using namespace peppher;

ComposeResult compose_components(const std::string& header_text,
                                 const std::filesystem::path& dir, Spans& spans) {
  ComposeResult result;
  std::vector<cdecl_parser::FunctionDecl> decls;
  {
    Spans::Scope span(spans, "cdecl.parse");
    decls = cdecl_parser::parse_header(header_text);
  }
  if (decls.empty()) throw std::runtime_error("compose: header declares no function");

  {
    Spans::Scope span(spans, "compose.skeleton");
    compose::SkeletonOptions options;
    options.backends = {"cpu", "openmp", "cuda"};
    compose::write_files(compose::generate_skeleton(header_text, options), dir);
  }

  desc::Repository repo;
  {
    Spans::Scope span(spans, "descriptor.scan");
    repo.scan(dir);
  }

  compose::Recipe recipe;
  recipe.output_dir = (dir / "generated").string();
  compose::ComponentTree tree;
  {
    Spans::Scope span(spans, "compose.build_tree");
    tree = compose::build_tree(repo, recipe);
  }
  {
    Spans::Scope span(spans, "compose.narrow");
    compose::expand_generics(tree);
    compose::apply_static_narrowing(tree);
  }
  {
    Spans::Scope span(spans, "analyze.lint");
    analyze::LintOptions lint;
    lint.machine = recipe.machine;
    lint.root = dir;
    lint.verify = true;
    const diag::DiagnosticBag bag = analyze::run_lint(repo, lint);
    if (bag.fails(false)) {
      throw std::runtime_error("compose: lint failed:\n" + bag.format_text());
    }
  }
  compose::CodegenResult generated;
  {
    Spans::Scope span(spans, "compose.codegen");
    generated = compose::generate(tree);
  }
  {
    Spans::Scope span(spans, "compose.write");
    compose::write_files(generated, recipe.output_dir);
  }
  result.components = tree.components.size();
  result.files_written = generated.files.size();
  return result;
}

}  // namespace perfbench
