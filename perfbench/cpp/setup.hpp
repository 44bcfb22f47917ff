// The composition half of a workload's set-up: compose the workload's
// components from a C header with the composition tool's public passes,
// into a directory private to the run.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "spans.hpp"

namespace perfbench {

struct ComposeResult {
  std::size_t components = 0;     ///< components in the composed tree
  std::size_t files_written = 0;  ///< generated files (skeleton excluded)
};

/// Runs, in order and each under its own span:
///   cdecl::parse_header -> compose::generate_skeleton (+ writing it) ->
///   desc::Repository::scan -> compose::build_tree -> expand_generics +
///   apply_static_narrowing -> analyze::run_lint (with the coherence
///   verifier) -> compose::generate -> compose::write_files.
/// Throws std::runtime_error when lint reports an error or the header
/// declares nothing.
ComposeResult compose_components(const std::string& header_text,
                                 const std::filesystem::path& dir, Spans& spans);

}  // namespace perfbench
