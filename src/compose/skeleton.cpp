#include "compose/skeleton.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"
#include "xml/xml.hpp"

namespace peppher::compose {

namespace {

bool is_integer_type(const std::string& type) {
  static const char* const kIntegerTypes[] = {
      "int",  "long",          "short",         "unsigned",
      "size_t", "std::size_t", "unsigned int",  "unsigned long",
      "long long", "unsigned long long", "ssize_t"};
  for (const char* t : kIntegerTypes) {
    if (type == t) return true;
  }
  return false;
}

/// Guesses the element-count expression for pointer parameter `param` from
/// the declaration's integer value parameters: prefers names derived from
/// the parameter ("n<param>", "<param>_size", "num_<param>"), then common
/// size-ish names, then the first integer parameter.
std::string guess_size_expr(const cdecl_parser::FunctionDecl& decl,
                            const cdecl_parser::Param& param) {
  std::vector<const cdecl_parser::Param*> integers;
  for (const cdecl_parser::Param& candidate : decl.params) {
    if (!candidate.type.is_indirect() && is_integer_type(candidate.type.base)) {
      integers.push_back(&candidate);
    }
  }
  if (integers.empty()) return "1";
  const std::string lower = strings::to_lower(param.name);
  for (const cdecl_parser::Param* candidate : integers) {
    const std::string cname = strings::to_lower(candidate->name);
    if (cname == "n" + lower || cname == lower + "_size" ||
        cname == "num_" + lower || cname == lower + "_count" ||
        cname == "n_" + lower) {
      return candidate->name;
    }
  }
  static const char* const kSizeish[] = {"n", "size", "count", "len", "length",
                                         "nnz", "elements"};
  for (const cdecl_parser::Param* candidate : integers) {
    const std::string cname = strings::to_lower(candidate->name);
    for (const char* s : kSizeish) {
      if (cname == s) return candidate->name;
    }
  }
  return integers.front()->name;
}

std::string impl_file_extension(const std::string& backend) {
  if (backend == "cuda") return ".cu";
  return ".cpp";
}

std::string compile_command_for(const std::string& backend) {
  if (backend == "cuda") return "nvcc";
  return "g++";
}

std::string compile_options_for(const std::string& backend) {
  if (backend == "cuda") return "-O3 -arch=sm_20";
  if (backend == "openmp") return "-O2 -fopenmp";
  return "-O2";
}

std::string impl_skeleton_source(const desc::InterfaceDescriptor& iface,
                                 const std::string& variant_name,
                                 const std::string& backend) {
  std::ostringstream out;
  out << "// Skeleton generated by the PEPPHER composition tool (utility "
         "mode).\n";
  out << "// " << backend << " implementation variant of component '"
      << iface.name << "'.\n";
  out << "#include <cstddef>\n\n";
  if (iface.is_generic()) {
    out << "template <";
    for (std::size_t i = 0; i < iface.template_params.size(); ++i) {
      if (i != 0) out << ", ";
      out << "typename " << iface.template_params[i];
    }
    out << ">\n";
  }
  out << desc::lowered_impl_signature(iface, variant_name) << " {\n";
  out << "  // TODO: provide the " << backend << " implementation of '"
      << iface.name << "'.\n";
  for (const desc::ParamDesc& p : iface.params) {
    out << "  (void)" << p.name << ";\n";
  }
  out << "}\n";
  return std::move(out).str();
}

}  // namespace

desc::InterfaceDescriptor interface_from_declaration(
    const cdecl_parser::FunctionDecl& decl) {
  desc::InterfaceDescriptor iface;
  iface.name = decl.name;
  iface.return_type = decl.return_type.spelling();
  iface.template_params = decl.template_params;
  iface.performance_metrics = {"avg_exec_time"};
  for (const cdecl_parser::Param& param : decl.params) {
    desc::ParamDesc p;
    p.name = param.name;
    p.type = param.type.spelling();
    switch (param.inferred_access()) {
      case cdecl_parser::Access::kRead: p.access = rt::AccessMode::kRead; break;
      case cdecl_parser::Access::kWrite: p.access = rt::AccessMode::kWrite; break;
      case cdecl_parser::Access::kReadWrite:
        p.access = rt::AccessMode::kReadWrite;
        break;
    }
    if (p.is_operand() && !p.is_container()) {
      p.size_expr = guess_size_expr(decl, param);
    }
    iface.params.push_back(std::move(p));
    // Integer value parameters are natural context-selection candidates.
    if (!param.type.is_indirect() && is_integer_type(param.type.base)) {
      desc::ContextParamDesc context;
      context.name = param.name;
      iface.context_params.push_back(std::move(context));
    }
  }
  return iface;
}

CodegenResult generate_skeleton(std::string_view header_text,
                                const SkeletonOptions& options) {
  const std::vector<cdecl_parser::FunctionDecl> decls =
      cdecl_parser::parse_header(header_text);
  if (decls.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "no function declarations found in the header");
  }

  CodegenResult result;
  std::vector<std::string> component_names;
  for (const cdecl_parser::FunctionDecl& decl : decls) {
    const desc::InterfaceDescriptor iface = interface_from_declaration(decl);
    component_names.push_back(iface.name);
    result.files.push_back(GeneratedFile{
        iface.name + "/" + iface.name + ".xml", xml::serialize(*iface.to_xml())});
    result.notes.push_back("component '" + iface.name + "': interface descriptor" +
                           (iface.is_generic()
                                ? " (detected template parameter(s))"
                                : ""));

    for (const std::string& backend : options.backends) {
      const std::string variant = iface.name + "_" + backend;
      // The source lives next to its descriptor; the descriptor references
      // it relative to its own directory (the composition tool re-anchors
      // paths when generating the Makefile).
      const std::string source_file = variant + impl_file_extension(backend);

      desc::ImplementationDescriptor impl;
      impl.name = variant;
      impl.interface_name = iface.name;
      impl.language = backend;
      impl.sources = {source_file};
      impl.compile_command = compile_command_for(backend);
      impl.compile_options = compile_options_for(backend);
      result.files.push_back(GeneratedFile{
          iface.name + "/" + backend + "/" + variant + ".xml",
          xml::serialize(*impl.to_xml())});
      result.files.push_back(GeneratedFile{
          iface.name + "/" + backend + "/" + source_file,
          impl_skeleton_source(iface, variant, backend)});
      result.notes.push_back("component '" + iface.name + "': " + backend +
                             " variant skeleton");
    }
  }

  if (options.emit_main) {
    desc::MainDescriptor main;
    main.name = component_names.front() + "_app";
    main.source = "main.cpp";
    main.uses = component_names;
    result.files.push_back(GeneratedFile{"main.xml", xml::serialize(*main.to_xml())});
    result.notes.push_back("application main-module descriptor skeleton");
  }
  return result;
}

CodegenResult generate_skeleton_from_file(const std::filesystem::path& header_path,
                                          const std::filesystem::path& output_dir,
                                          const SkeletonOptions& options) {
  CodegenResult result = generate_skeleton(fs::read_file(header_path), options);
  write_files(result, output_dir);
  return result;
}

}  // namespace peppher::compose
