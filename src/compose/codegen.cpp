#include "compose/codegen.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace peppher::compose {

namespace {

using desc::ParamKind;

/// Fully qualified spelling of a container type from a descriptor
/// ("Vector<float>&" -> "peppher::cont::Vector<float>&").
std::string qualified_container_type(const std::string& type) {
  if (type.find("peppher::") != std::string::npos) return type;
  return "peppher::cont::" + type;
}

std::string access_mode_expr(rt::AccessMode mode) {
  switch (mode) {
    case rt::AccessMode::kRead: return "peppher::rt::AccessMode::kRead";
    case rt::AccessMode::kWrite: return "peppher::rt::AccessMode::kWrite";
    case rt::AccessMode::kReadWrite: return "peppher::rt::AccessMode::kReadWrite";
  }
  return "peppher::rt::AccessMode::kReadWrite";
}

std::string arch_expr(rt::Arch arch) {
  switch (arch) {
    case rt::Arch::kCpu: return "peppher::rt::Arch::kCpu";
    case rt::Arch::kCpuOmp: return "peppher::rt::Arch::kCpuOmp";
    case rt::Arch::kCuda: return "peppher::rt::Arch::kCuda";
    case rt::Arch::kOpenCl: return "peppher::rt::Arch::kOpenCl";
  }
  return "peppher::rt::Arch::kCpu";
}

/// Signature of the entry wrapper (= the interface prototype, with
/// container types qualified).
std::string entry_signature(const desc::InterfaceDescriptor& iface,
                            const std::string& return_type,
                            const std::string& suffix) {
  std::string out = return_type + " " + iface.name + suffix + "(";
  for (std::size_t i = 0; i < iface.params.size(); ++i) {
    const desc::ParamDesc& p = iface.params[i];
    if (i != 0) out += ", ";
    const ParamKind kind = p.kind();
    const std::string type = (kind == ParamKind::kVector ||
                              kind == ParamKind::kMatrix ||
                              kind == ParamKind::kScalar)
                                 ? qualified_container_type(p.type)
                                 : p.type;
    out += type + " " + p.name;
  }
  out += ")";
  return out;
}

void validate(const ComponentNode& component) {
  const desc::InterfaceDescriptor& iface = component.interface;
  if (iface.return_type != "void") {
    throw Error(ErrorCode::kUnsupported,
                "interface '" + iface.name +
                    "' returns a value; components communicate through "
                    "operands (make the result a write-mode operand)");
  }
  if (iface.is_generic()) {
    throw Error(ErrorCode::kInvalidState,
                "generic interface '" + iface.name +
                    "' reached code generation; run expand_generics first");
  }
  for (const desc::ParamDesc& p : iface.params) {
    if (p.kind() == ParamKind::kRawPointer && p.size_expr.empty()) {
      throw Error(ErrorCode::kInvalidState,
                  "interface '" + iface.name + "': raw-pointer operand '" +
                      p.name +
                      "' has no size attribute; the entry wrapper cannot "
                      "register it with the runtime");
    }
  }
}

bool all_operands_are_containers(const desc::InterfaceDescriptor& iface) {
  for (const desc::ParamDesc& p : iface.params) {
    if (p.kind() == ParamKind::kRawPointer) return false;
  }
  return true;
}

/// Argument-struct definition: value parameters plus container geometry.
std::string args_struct(const desc::InterfaceDescriptor& iface,
                        const std::string& struct_name) {
  std::ostringstream out;
  out << "struct " << struct_name << " {\n";
  for (const desc::ParamDesc& p : iface.params) {
    switch (p.kind()) {
      case ParamKind::kValue:
        out << "  " << p.type << " " << p.name << "{};\n";
        break;
      case ParamKind::kVector:
        out << "  std::size_t " << p.name << "_count = 0;\n";
        break;
      case ParamKind::kMatrix:
        out << "  std::size_t " << p.name << "_rows = 0;\n";
        out << "  std::size_t " << p.name << "_cols = 0;\n";
        break;
      default:
        break;  // raw pointers carry their size in other parameters
    }
  }
  out << "};\n";
  return std::move(out).str();
}

/// extern declaration of one actual implementation variant.
std::string impl_extern_decl(const desc::InterfaceDescriptor& iface,
                             const std::string& variant_name) {
  return "extern " + desc::lowered_impl_signature(iface, variant_name) +
         ";\n";
}

/// Constraints that the generated code can evaluate at call time: those on
/// value parameters of the interface.
std::vector<const desc::ConstraintDesc*> evaluable_constraints(
    const desc::InterfaceDescriptor& iface,
    const desc::ImplementationDescriptor& impl) {
  std::vector<const desc::ConstraintDesc*> out;
  for (const desc::ConstraintDesc& constraint : impl.constraints) {
    for (const desc::ParamDesc& p : iface.params) {
      if (p.name == constraint.param && p.kind() == ParamKind::kValue) {
        out.push_back(&constraint);
        break;
      }
    }
  }
  return out;
}

/// The selectability predicate for a variant with parameter-range
/// constraints (§II): generated as a C function checked by the runtime
/// before considering the variant for a call.
std::string selectable_predicate(const desc::InterfaceDescriptor& iface,
                                 const desc::ImplementationDescriptor& impl,
                                 const std::string& args_name) {
  const auto constraints = evaluable_constraints(iface, impl);
  std::ostringstream out;
  out << "static bool _peppher_" << impl.name
      << "_selectable(const std::vector<std::size_t>&, const void* arg) {\n";
  out << "  const auto* a = static_cast<const " << args_name << "*>(arg);\n";
  out << "  (void)a;\n";
  out << "  return true";
  for (const desc::ConstraintDesc* constraint : constraints) {
    if (constraint->min) {
      out << "\n      && static_cast<double>(a->" << constraint->param
          << ") >= " << *constraint->min;
    }
    if (constraint->max) {
      out << "\n      && static_cast<double>(a->" << constraint->param
          << ") <= " << *constraint->max;
    }
  }
  out << ";\n}\n";
  return std::move(out).str();
}

/// One backend wrapper (the C-style task function).
std::string backend_wrapper(const desc::InterfaceDescriptor& iface,
                            const std::string& variant_name,
                            const std::string& args_name) {
  std::ostringstream out;
  out << "static void _peppher_" << variant_name
      << "_task(void** buffers, const void* arg) {\n";
  out << "  const auto* a = static_cast<const " << args_name << "*>(arg);\n";
  out << "  (void)a;\n  (void)buffers;\n";
  out << "  " << variant_name << "(";
  std::size_t buffer_index = 0;
  bool first = true;
  for (const desc::ParamDesc& p : iface.params) {
    auto sep = [&]() -> std::ostringstream& {
      if (!first) out << ",\n      ";
      first = false;
      return out;
    };
    const std::string elem = p.element_type();
    switch (p.kind()) {
      case ParamKind::kValue:
        sep() << "a->" << p.name;
        break;
      case ParamKind::kRawPointer:
        sep() << "static_cast<" << p.type << ">(buffers[" << buffer_index++
              << "])";
        break;
      case ParamKind::kVector:
        sep() << "static_cast<" << elem << "*>(buffers[" << buffer_index++
              << "]), a->" << p.name << "_count";
        break;
      case ParamKind::kMatrix:
        sep() << "static_cast<" << elem << "*>(buffers[" << buffer_index++
              << "]), a->" << p.name << "_rows, a->" << p.name << "_cols";
        break;
      case ParamKind::kScalar:
        sep() << "static_cast<" << elem << "*>(buffers[" << buffer_index++
              << "])";
        break;
    }
  }
  out << ");\n}\n";
  return std::move(out).str();
}

/// The entry wrapper body shared by sync and async variants: packing of the
/// argument struct and the operand list.
void emit_packing(std::ostringstream& out, const desc::InterfaceDescriptor& iface,
                  const std::string& args_name, bool containers_only) {
  out << "  auto arg = std::make_shared<" << args_name << ">();\n";
  for (const desc::ParamDesc& p : iface.params) {
    switch (p.kind()) {
      case ParamKind::kValue:
        out << "  arg->" << p.name << " = " << p.name << ";\n";
        break;
      case ParamKind::kVector:
        out << "  arg->" << p.name << "_count = " << p.name << ".size();\n";
        break;
      case ParamKind::kMatrix:
        out << "  arg->" << p.name << "_rows = " << p.name << ".rows();\n";
        out << "  arg->" << p.name << "_cols = " << p.name << ".cols();\n";
        break;
      default:
        break;
    }
  }
  if (containers_only) {
    out << "  std::vector<peppher::core::CallOperand> _operands;\n";
    for (const desc::ParamDesc& p : iface.params) {
      if (p.kind() == ParamKind::kValue) continue;
      out << "  _operands.push_back({" << p.name << ".handle(), "
          << access_mode_expr(p.access) << "});\n";
    }
  } else {
    // Raw pointers present: transient registration with conservative
    // copy-back on return (§IV-D).
    out << "  peppher::core::TransientOperands _operands;\n";
    for (const desc::ParamDesc& p : iface.params) {
      const ParamKind kind = p.kind();
      if (kind == ParamKind::kValue) continue;
      if (kind == ParamKind::kRawPointer) {
        const std::string elem = p.element_type();
        out << "  _operands.add(const_cast<void*>(static_cast<const void*>("
            << p.name << ")), static_cast<std::size_t>(" << p.size_expr
            << "), sizeof(" << elem << "), " << access_mode_expr(p.access)
            << ");\n";
      } else {
        // Containers mixed with raw pointers: register the container's
        // handle as-is (not transient).
        out << "  // container operand '" << p.name
            << "' uses its own managed handle\n";
      }
    }
  }
}

}  // namespace

std::string generate_wrapper_file(const ComponentNode& component) {
  validate(component);
  const desc::InterfaceDescriptor& iface = component.interface;
  const std::string args_name = "_peppher_" + iface.name + "_args";
  const bool containers_only = all_operands_are_containers(iface);

  std::ostringstream out;
  out << "// Generated by the PEPPHER composition tool — do not edit.\n";
  out << "// Component: " << iface.name << "\n";
  if (!component.expanded_from.empty()) {
    out << "// Expanded from generic component: " << component.expanded_from
        << "\n";
  }
  out << "#include \"peppher.h\"\n\n";
  out << "#include <cstddef>\n#include <memory>\n#include <vector>\n\n";

  out << "// Actual implementation variants (component-developer code).\n";
  for (const VariantNode* variant : component.enabled_variants()) {
    out << impl_extern_decl(iface, variant->descriptor.name);
  }
  bool any_prediction = false;
  for (const VariantNode* variant : component.enabled_variants()) {
    if (variant->descriptor.prediction_function) {
      if (!any_prediction) {
        out << "\n// User-provided performance prediction functions (§VII):\n";
        out << "// called with the operand sizes and the call-argument block,\n";
        out << "// they return the work estimate the scheduler plans with.\n";
        any_prediction = true;
      }
      out << "extern peppher::sim::KernelCost "
          << *variant->descriptor.prediction_function
          << "(const std::vector<std::size_t>& operand_bytes, const void* "
             "arg);\n";
    }
  }
  out << "\n// Call-argument block passed to the runtime task handler.\n";
  out << args_struct(iface, args_name) << "\n";

  out << "// Backend wrappers: the void(void* buffers[], void* arg) signature\n";
  out << "// the runtime system expects for a task function.\n";
  for (const VariantNode* variant : component.enabled_variants()) {
    out << backend_wrapper(iface, variant->descriptor.name, args_name) << "\n";
  }

  for (const VariantNode* variant : component.enabled_variants()) {
    if (!evaluable_constraints(iface, variant->descriptor).empty()) {
      out << "// Selectability constraint of variant '"
          << variant->descriptor.name << "' (§II parameter ranges).\n";
      out << selectable_predicate(iface, variant->descriptor, args_name)
          << "\n";
    }
  }

  out << "// Registration of the composed (enabled) variants.\n";
  out << "static const bool _peppher_" << iface.name << "_registered = [] {\n";
  for (const VariantNode* variant : component.enabled_variants()) {
    const bool has_selectable =
        !evaluable_constraints(iface, variant->descriptor).empty();
    out << "  peppher::core::register_backend(\"" << iface.name << "\", "
        << arch_expr(variant->arch()) << ", \"" << variant->descriptor.name
        << "\", &_peppher_" << variant->descriptor.name << "_task";
    if (variant->descriptor.prediction_function) {
      out << ", &" << *variant->descriptor.prediction_function;
    } else if (has_selectable) {
      out << ", nullptr";
    }
    if (has_selectable) {
      out << ", &_peppher_" << variant->descriptor.name << "_selectable";
    }
    out << ");\n";
  }
  out << "  return true;\n}();\n\n";

  out << "// Entry wrapper: intercepts the component invocation and translates\n";
  out << "// it to a task for the runtime system.\n";
  out << entry_signature(iface, "void", "") << " {\n";
  emit_packing(out, iface, args_name, containers_only);
  if (containers_only) {
    out << "  peppher::core::invoke(\"" << iface.name
        << "\", std::move(_operands), arg);\n";
  } else {
    out << "  peppher::core::invoke(\"" << iface.name
        << "\", _operands.operands(), arg);\n";
    out << "  // TransientOperands copies raw-pointer data back to main memory\n";
    out << "  // here (conservative consistency for unmanaged parameters).\n";
  }
  out << "}\n";

  if (containers_only) {
    out << "\n// Asynchronous entry wrapper: smart-container operands let the\n";
    out << "// runtime infer dependencies, enabling inter-component parallelism.\n";
    out << entry_signature(iface, "peppher::rt::TaskPtr", "_async") << " {\n";
    emit_packing(out, iface, args_name, containers_only);
    out << "  return peppher::core::invoke_async(\"" << iface.name
        << "\", std::move(_operands), arg);\n";
    out << "}\n";
  }
  return std::move(out).str();
}

std::string generate_header(const ComponentTree& tree) {
  std::ostringstream out;
  out << "// Generated by the PEPPHER composition tool — do not edit.\n";
  out << "// Single linking point between generated code and the application\n";
  out << "// (include this from the main module, then call\n";
  out << "// PEPPHER_INITIALIZE() / PEPPHER_SHUTDOWN()).\n";
  out << "#pragma once\n\n";
  out << "#include \"core/peppher.hpp\"\n";
  out << "#include \"containers/containers.hpp\"\n\n";
  out << "// Entry wrappers for the composed components.\n";
  for (const ComponentNode& component : tree.components) {
    out << entry_signature(component.interface, "void", "") << ";\n";
    if (all_operands_are_containers(component.interface)) {
      out << entry_signature(component.interface, "peppher::rt::TaskPtr",
                             "_async")
          << ";\n";
    }
  }
  return std::move(out).str();
}

std::string generate_makefile(const ComponentTree& tree) {
  std::ostringstream out;
  out << "# Generated by the PEPPHER composition tool — do not edit.\n";
  out << "CXX ?= g++\n";
  out << "CXXFLAGS ?= -O2 -std=c++20 -I.\n";
  out << "PEPPHER_LIBS ?= -lpeppher_core -lpeppher_runtime -lpeppher_sim "
         "-lpeppher_support -lpthread\n\n";

  std::vector<std::string> objects;
  const std::string main_src = tree.main.source.empty() ? "main.cpp"
                                                        : tree.main.source;
  std::string main_obj = main_src;
  const std::size_t dot = main_obj.rfind('.');
  if (dot != std::string::npos) main_obj = main_obj.substr(0, dot);
  main_obj += ".o";
  objects.push_back(main_obj);

  std::ostringstream rules;
  rules << main_obj << ": " << main_src << "\n";
  rules << "\t$(CXX) $(CXXFLAGS) -c $< -o $@\n\n";

  for (const ComponentNode& component : tree.components) {
    const std::string wrapper_src = component.interface.name + "_wrapper.cpp";
    const std::string wrapper_obj = component.interface.name + "_wrapper.o";
    objects.push_back(wrapper_obj);
    rules << wrapper_obj << ": " << wrapper_src << "\n";
    rules << "\t$(CXX) $(CXXFLAGS) -c $< -o $@\n\n";

    for (const VariantNode* variant : component.enabled_variants()) {
      const desc::ImplementationDescriptor& impl = variant->descriptor;
      for (const std::string& source : impl.sources) {
        // Object names are prefixed with the variant name so several
        // variants instantiated from the same source (tunable expansion)
        // compile to distinct objects.
        std::string obj = impl.name + "_" + source;
        for (char& c : obj) {
          if (c == '/') c = '_';
        }
        const std::size_t odot = obj.rfind('.');
        if (odot != std::string::npos) obj = obj.substr(0, odot);
        obj += ".o";
        objects.push_back(obj);
        const std::string compiler =
            impl.compile_command.empty() ? "$(CXX)" : impl.compile_command;
        const std::string options =
            impl.compile_options.empty() ? "$(CXXFLAGS)" : impl.compile_options;
        rules << obj << ": " << source << "\n";
        rules << "\t" << compiler << " " << options << " -c $< -o $@\n\n";
      }
    }
  }

  const std::string app = tree.main.name.empty() ? "app" : tree.main.name;
  out << "OBJS = " << strings::join(objects, " ") << "\n\n";
  out << "all: " << app << "\n\n";
  out << app << ": $(OBJS)\n";
  out << "\t$(CXX) $(CXXFLAGS) -o $@ $(OBJS) $(PEPPHER_LIBS)\n\n";
  out << rules.str();
  out << "clean:\n\trm -f $(OBJS) " << app << "\n";
  return std::move(out).str();
}

CodegenResult generate(const ComponentTree& tree) {
  CodegenResult result;
  for (const ComponentNode& component : tree.components) {
    result.files.push_back(GeneratedFile{
        component.interface.name + "_wrapper.cpp",
        generate_wrapper_file(component)});
    result.notes.push_back("generated wrapper for component '" +
                           component.interface.name + "' with " +
                           std::to_string(component.enabled_variants().size()) +
                           " variant(s)");
  }
  result.files.push_back(GeneratedFile{"peppher.h", generate_header(tree)});
  result.files.push_back(GeneratedFile{"Makefile", generate_makefile(tree)});
  return result;
}

void write_files(const CodegenResult& result,
                 const std::filesystem::path& output_dir) {
  for (const GeneratedFile& file : result.files) {
    fs::write_file(output_dir / file.path, file.content);
  }
}

}  // namespace peppher::compose
