// Code generation (§IV-C): for each component interface the composition
// tool generates one wrapper file containing
//   * one *entry-wrapper* — a function with the interface's exact signature
//     that intercepts the component invocation, packs value parameters into
//     an argument struct, turns operand parameters into runtime data
//     handles, and submits a task (synchronously for raw-pointer operands,
//     with an additional _async entry point when all operands are smart
//     containers);
//   * one *backend-wrapper* per implementation variant, implementing the
//     `void <name>(void* buffers[], void* arg)` signature the runtime
//     expects for a task function and delegating to the actual
//     implementation;
//   * static registration of the enabled variants with the component
//     registry (disabled variants are simply not registered — user-guided
//     static composition costs nothing at runtime);
// plus a single `peppher.h` linking header and a Makefile.
//
// Calling conventions for the actual implementation variants (what the
// component developer writes; the skeleton generator emits matching stubs):
//   * raw-pointer interface parameters are passed through unchanged;
//   * `Vector<T>&`  lowers to `T* <name>, std::size_t <name>_count`;
//   * `Matrix<T>&`  lowers to `T* <name>, std::size_t <name>_rows,
//                    std::size_t <name>_cols`;
//   * `Scalar<T>&`  lowers to `T* <name>`;
//   * value parameters are passed through unchanged.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "compose/ir.hpp"

namespace peppher::compose {

/// One generated file (relative path + contents).
struct GeneratedFile {
  std::string path;
  std::string content;
};

struct CodegenResult {
  std::vector<GeneratedFile> files;
  std::vector<std::string> notes;  ///< human-readable generation log
};

/// Generates the wrapper file for one component. Throws
/// Error(kUnsupported) for non-void interfaces and Error(kInvalidState) for
/// raw-pointer operands without a size expression.
std::string generate_wrapper_file(const ComponentNode& component);

/// Generates the application-wide peppher.h: entry-wrapper declarations for
/// every component plus the runtime macros (via the core API header).
std::string generate_header(const ComponentTree& tree);

/// Generates the Makefile that compiles wrappers, implementation variants
/// (with their descriptor-specified compilers/options) and the main module,
/// then links the executable.
std::string generate_makefile(const ComponentTree& tree);

/// Runs all generators over the tree.
CodegenResult generate(const ComponentTree& tree);

/// Writes a generation result under `output_dir`.
void write_files(const CodegenResult& result,
                 const std::filesystem::path& output_dir);

}  // namespace peppher::compose
