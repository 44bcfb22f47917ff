// PEPPHER XML descriptor types (§II of the paper): interfaces,
// implementation variants, platforms, and the application main module — plus
// the repository that stores them and lets the composition tool explore
// components bottom-up.
//
// Descriptors are XML documents (non-intrusive annotation: the paper prefers
// external XML over pragmas for separation of concerns). The schema used
// here:
//
//   <peppher-interface name="spmv">
//     <function returnType="void">
//       <param name="values" type="const float*" accessMode="read"/>
//       ...
//     </function>
//     <templateParam name="T"/>                       (generic interfaces)
//     <performanceMetrics><metric name="avg_exec_time"/></performanceMetrics>
//     <contextParams><contextParam name="nnz" min="0" max="1e9"/></contextParams>
//   </peppher-interface>
//
//   <peppher-implementation name="spmv_cusp" interface="spmv">
//     <platform language="cuda" target="TeslaC2050"/>
//     <sources><source file="cuda/spmv_cusp.cu"/></sources>
//     <compilation command="nvcc" options="-O3 -arch=sm_20"/>
//     <requires><interface name="reduce"/></requires>
//     <resources minMemoryMB="1" maxMemoryMB="2048"/>
//     <prediction function="spmv_cusp_predict"/>
//     <tunables><tunable name="block_size" values="64,128,256" default="128"/></tunables>
//     <constraints><constraint param="nnz" min="1024"/></constraints>
//   </peppher-implementation>
//
//   <peppher-platform name="TeslaC2050" kind="cuda">
//     <property name="peak_gflops" value="1030"/> ...
//   </peppher-platform>
//
//   <peppher-main name="spmv_app" source="main.cpp">
//     <target platform="xeon-e5520+c2050"/>
//     <goal metric="exec_time"/>
//     <uses interface="spmv"/>
//     <composition useHistoryModels="true" scheduler="dmda">
//       <disableImpls name="spmv_slow"/>
//     </composition>
//   </peppher-main>
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "runtime/types.hpp"
#include "xml/xml.hpp"

namespace peppher::desc {

/// One parameter of an interface function.
struct ParamDesc {
  std::string name;
  std::string type;  ///< C++ spelling, e.g. "const float*"
  rt::AccessMode access = rt::AccessMode::kRead;
  diag::SourceLocation loc;  ///< the <param> element in the descriptor file

  /// For raw-pointer operands: element count as a C++ expression over the
  /// interface's integer parameters (e.g. "nnz" or "nrows*ncols"). The
  /// entry-wrapper generator uses it to register the memory with the
  /// runtime. Smart-container operands carry their own size; value
  /// parameters leave it empty.
  std::string size_expr;

  /// Operand parameters (pointers / smart containers) become runtime data
  /// handles; value parameters are packed into the task argument blob.
  bool is_operand() const noexcept;

  /// True if this operand is a smart container (Vector/Matrix/Scalar).
  bool is_container() const noexcept;

  /// Element type of an operand ("float" for "const float*" and for
  /// "Vector<float>&"); empty for value parameters.
  std::string element_type() const;
};

/// A call-context property that may influence variant selection (§III).
struct ContextParamDesc {
  std::string name;
  std::optional<double> min;
  std::optional<double> max;
};

/// A PEPPHER interface descriptor.
struct InterfaceDescriptor {
  std::string name;
  std::string return_type = "void";
  diag::SourceLocation loc;  ///< the root element in the descriptor file
  std::vector<ParamDesc> params;
  std::vector<std::string> template_params;       ///< generic interfaces
  std::vector<std::string> performance_metrics;   ///< e.g. "avg_exec_time"
  std::vector<ContextParamDesc> context_params;

  bool is_generic() const noexcept { return !template_params.empty(); }

  static InterfaceDescriptor from_xml(const xml::Element& element);
  std::unique_ptr<xml::Element> to_xml() const;

  /// The C/C++ prototype this interface declares ("void spmv(...);").
  std::string prototype() const;
};

/// An exposed tunable parameter of an implementation variant.
struct TunableDesc {
  std::string name;
  std::vector<std::string> values;
  std::string default_value;
};

/// A selectability constraint on a context parameter (§II: "additional
/// constraints for component selectability, e.g. parameter ranges").
struct ConstraintDesc {
  std::string param;
  std::optional<double> min;
  std::optional<double> max;
  diag::SourceLocation loc;  ///< the <constraint> element

  bool admits(double value) const noexcept {
    return (!min || value >= *min) && (!max || value <= *max);
  }
};

/// A PEPPHER implementation-variant descriptor.
struct ImplementationDescriptor {
  std::string name;
  std::string interface_name;
  diag::SourceLocation loc;  ///< the root element in the descriptor file
  std::string language;         ///< "cpu", "openmp", "cuda", "opencl"
  std::string target_platform;  ///< platform descriptor name (may be empty)
  std::vector<std::string> sources;
  std::string compile_command;
  std::string compile_options;
  std::vector<std::string> required_interfaces;
  std::optional<std::string> prediction_function;
  std::vector<TunableDesc> tunables;
  std::vector<ConstraintDesc> constraints;
  double min_memory_mb = 0.0;
  double max_memory_mb = 0.0;

  /// The runtime architecture this variant executes on.
  rt::Arch arch() const { return rt::parse_arch(language); }

  static ImplementationDescriptor from_xml(const xml::Element& element);
  std::unique_ptr<xml::Element> to_xml() const;
};

/// A platform descriptor (Sandrieser et al. [6]): free-form properties
/// looked up by the composition tool and component developers.
struct PlatformDescriptor {
  std::string name;
  std::string kind;  ///< "cpu", "cuda", "opencl"
  diag::SourceLocation loc;  ///< the root element in the descriptor file
  std::map<std::string, std::string> properties;

  std::optional<double> numeric_property(const std::string& key) const;

  static PlatformDescriptor from_xml(const xml::Element& element);
  std::unique_ptr<xml::Element> to_xml() const;
};

/// One argument binding of a declared component call: binds interface
/// parameter `param` to the application-level data container `data`.
struct CallArgDesc {
  std::string param;
  std::string data;
  diag::SourceLocation loc;  ///< the <arg> element
};

/// One component call of the main module's declared call sequence:
///
///   <calls>
///     <call interface="spmv">
///       <arg param="values" data="A"/> <arg param="y" data="y"/> ...
///     </call>
///   </calls>
///
/// The sequence is optional; when present, the lint hazard analysis (the
/// coherence verifier's fixpoint) runs over it and reports data races the
/// declared access modes would let the runtime schedule concurrently.
struct CallDesc {
  std::string interface_name;
  std::vector<CallArgDesc> args;
  /// Cluster node the call is pinned to (0 = the primary node). Only
  /// meaningful when the verifier runs with a multi-node cluster profile;
  /// the single-host tools ignore it.
  int node = 0;
  /// Declared stencil access radius: how many elements past its own slice
  /// boundary the call reads from a distributed-partitioned operand (0 = no
  /// ghost accesses). Checked against the partitioning's halo width (PL080)
  /// and the exchange protocol (PL081).
  int radius = 0;
  diag::SourceLocation loc;  ///< the <call> element
};

/// One explicitly declared owned range of a distributed partitioning:
///
///   <partitioned data="g" nodes="2" halo="1" elements="100">
///     <slice node="0" begin="0" end="50"/>
///     <slice node="1" begin="50" end="100"/>
///   </partitioned>
///
/// When present, the verifier checks the ranges tile [0, elements) exactly
/// (PL084). Without explicit slices the partitioning is an even block
/// distribution, which always covers.
struct SliceDecl {
  int node = 0;
  long long begin = 0;
  long long end = 0;
  diag::SourceLocation loc;  ///< the <slice> element
};

/// One statement of the main module's declared call sequence. Besides plain
/// component calls, the sequence may declare structured control flow and
/// data-management operations, so the static verifier (peppher-verify) can
/// reason about every execution path:
///
///   <calls>
///     <partition data="x" parts="4"/>
///     <loop count="100">
///       <call interface="spmv"> ... </call>
///       <if>
///         <call interface="norm"> ... </call>
///         <else> <call interface="norm_cpu"> ... </call> </else>
///       </if>
///     </loop>
///     <unpartition data="x"/>
///     <prefetch data="x" on="device"/>
///   </calls>
///
/// `<loop count>` declares the trip count (>= 1; the verifier only needs
/// "executes at least once and may repeat"). `<if>` children form the then
/// branch; an optional `<else>` — which must be the last child — holds the
/// alternative. The branch condition itself is runtime data the descriptor
/// does not model: the verifier explores both paths.
///
/// Distributed statements (verified against a `peppher-cluster` profile,
/// docs/verify.md "Distributed verification"):
///
///   <partitioned data="g" nodes="2" halo="1"/>     scatter over the cluster
///   <exchange data="g"/>                           refresh the ghost regions
///   <repartition data="g" nodes="4" halo="1"/>     change the distribution
///   <gather data="g"/>                             collect to the primary host
///
/// `<partitioned>`/`<repartition>` may declare explicit owned ranges via
/// `<slice>` children (see SliceDecl); `<exchange>` takes an optional
/// `width` (defaults to the declared halo).
struct CallNode {
  enum class Kind {
    kCall,         ///< component call
    kLoop,         ///< <loop count="N"> body </loop>
    kIf,           ///< <if> then... <else> else... </else> </if>
    kPartition,    ///< <partition data="x" parts="N"/>
    kUnpartition,  ///< <unpartition data="x"/>
    kPrefetch,     ///< <prefetch data="x" on="host|device"/>
    kPartitioned,  ///< <partitioned data="x" nodes="N" halo="H"/>
    kExchange,     ///< <exchange data="x" width="W"/>
    kRepartition,  ///< <repartition data="x" nodes="N" halo="H"/>
    kGather,       ///< <gather data="x"/>
  };
  Kind kind = Kind::kCall;
  CallDesc call;                    ///< kCall
  int loop_count = 0;               ///< kLoop: declared trip count (>= 1)
  std::string data;  ///< kPartition/kUnpartition/kPrefetch/distributed forms
  int parts = 0;                    ///< kPartition
  bool prefetch_to_device = true;   ///< kPrefetch: on="device" (default)
  int nodes = 0;            ///< kPartitioned/kRepartition: owning node count
  int halo = 0;             ///< kPartitioned/kRepartition: ghost width
  int exchange_width = -1;  ///< kExchange: ghost width (-1 = declared halo)
  long long elements = 0;   ///< kPartitioned/kRepartition: extent, with slices
  std::vector<SliceDecl> slices;    ///< explicit owned ranges (may be empty)
  std::vector<CallNode> body;       ///< kLoop body / kIf then branch
  std::vector<CallNode> else_body;  ///< kIf else branch (may be empty)
  diag::SourceLocation loc;         ///< the statement element
};

/// The application main-module descriptor.
struct MainDescriptor {
  std::string name;
  std::string source;           ///< main translation unit, e.g. "main.cpp"
  diag::SourceLocation loc;     ///< the root element in the descriptor file
  std::string target_platform;  ///< machine name, e.g. "xeon-e5520+c2050"
  std::string optimization_goal = "exec_time";
  std::vector<std::string> uses;  ///< interfaces invoked from main

  /// The declared call sequence as written: a statement tree with control
  /// flow (see CallNode). Empty when the main module declares no <calls>.
  std::vector<CallNode> call_tree;

  /// Every component call of `call_tree`, flattened in document order (loop
  /// bodies and both branches of an <if> appear once). The per-call lint
  /// checks and the program-point numbering use this view; the hazard
  /// analysis walks the tree.
  std::vector<CallDesc> calls;

  /// True when `call_tree` contains a <loop> or <if>: run_lint then reports
  /// the verifier's coherence findings (PL060–PL069) without --verify.
  bool has_control_flow = false;

  /// True when `call_tree` contains a distributed statement (<partitioned>,
  /// <exchange>, <repartition>, <gather>): run_lint then reports the
  /// verifier's coherence and distributed findings (PL060–PL069,
  /// PL080–PL087) without --verify.
  bool has_distributed = false;
  bool use_history_models = true;
  std::string scheduler = "dmda";
  std::vector<std::string> disabled_impls;  ///< user-guided static narrowing

  static MainDescriptor from_xml(const xml::Element& element);
  std::unique_ptr<xml::Element> to_xml() const;
};

/// The interfaces/components/platforms repository (§II): stores descriptors
/// and lets the composition tool navigate the directory structure and locate
/// files automatically (§IV-C "global registry").
class Repository {
 public:
  // -- population ------------------------------------------------------------

  /// Recursively loads every *.xml under `root`, dispatching on the root
  /// element name; files with unknown root elements are ignored. Remembers
  /// the directory each descriptor came from (for locating sources).
  void scan(const std::filesystem::path& root);

  /// Parses one descriptor file.
  void load_file(const std::filesystem::path& path);

  /// Parses descriptor text (dispatching on the root element). `origin` is
  /// the directory sources are resolved against; `source_file` names the
  /// file for diagnostics locations (both may be empty for in-memory text).
  void load_text(std::string_view text, const std::filesystem::path& origin = {},
                 const std::string& source_file = {});

  void add(InterfaceDescriptor interface_desc);
  void add(ImplementationDescriptor impl_desc);
  void add(PlatformDescriptor platform_desc);
  void add(MainDescriptor main_desc);

  // -- lookup ------------------------------------------------------------------

  const InterfaceDescriptor* find_interface(const std::string& name) const;
  const ImplementationDescriptor* find_implementation(const std::string& name) const;
  const PlatformDescriptor* find_platform(const std::string& name) const;
  const MainDescriptor* main_module() const;

  /// Implementation variants of `interface_name`, in load order.
  std::vector<const ImplementationDescriptor*> implementations_of(
      const std::string& interface_name) const;

  std::vector<const InterfaceDescriptor*> interfaces() const;
  std::vector<const PlatformDescriptor*> platforms() const;

  /// Directory the named descriptor was loaded from (empty if added
  /// programmatically).
  std::filesystem::path origin_of(const std::string& descriptor_name) const;

  /// Interfaces sorted bottom-up in the components' required-interfaces
  /// relation lifted to interfaces (§III: the tool processes interfaces "in
  /// reverse order of their components' required interfaces relation").
  /// Throws Error(kInvalidState) on a dependency cycle.
  std::vector<const InterfaceDescriptor*> interfaces_bottom_up() const;

  /// Consistency diagnostics: dangling interface references, variant name
  /// clashes, empty interfaces, unknown platforms, undeclared parameters in
  /// constraints and size expressions. Diagnostics carry stable PL04x/PL05x
  /// codes and point at the offending descriptor element. Empty means
  /// consistent.
  std::vector<diag::Diagnostic> diagnose() const;

  /// diagnose(), rendered one line per problem (legacy convenience).
  std::vector<std::string> validate() const;

 private:
  std::map<std::string, InterfaceDescriptor> interfaces_;
  std::vector<std::string> interface_order_;
  std::map<std::string, ImplementationDescriptor> implementations_;
  std::vector<std::string> implementation_order_;
  /// Implementation names registered more than once (later wins); reported
  /// by validate().
  std::set<std::string> duplicate_implementations_;
  std::map<std::string, PlatformDescriptor> platforms_;
  std::optional<MainDescriptor> main_;
  std::map<std::string, std::filesystem::path> origins_;
};

}  // namespace peppher::desc
