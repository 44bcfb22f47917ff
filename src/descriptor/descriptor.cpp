#include "descriptor/descriptor.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <set>

#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace peppher::desc {

namespace {

bool parse_bool(std::string_view text, bool fallback) {
  const std::string lower = strings::to_lower(strings::trim(text));
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  return fallback;
}

std::optional<double> optional_attr_double(const xml::Element& element,
                                           std::string_view key) {
  if (auto raw = element.attribute(key)) return strings::to_double(*raw);
  return std::nullopt;
}

diag::SourceLocation loc_of(const xml::Element& element) {
  return diag::SourceLocation{"", element.line(), element.column()};
}

[[nodiscard]] ParseError schema_error(const xml::Element& element,
                                      const std::string& message) {
  return ParseError(message, element.line(), element.column());
}

int required_int_attribute(const xml::Element& element, std::string_view key) {
  const std::string raw = element.required_attribute(key);
  const std::optional<double> value = strings::to_double(raw);
  if (!value || *value != static_cast<double>(static_cast<long long>(*value))) {
    throw schema_error(element, "<" + element.name() + "> attribute '" +
                                    std::string(key) + "' must be an integer, "
                                    "got '" + raw + "'");
  }
  return static_cast<int>(*value);
}

/// `key` parsed as a non-negative integer when present, else `fallback`.
int optional_nonneg_int_attribute(const xml::Element& element,
                                  std::string_view key, int fallback) {
  if (!element.attribute(key)) return fallback;
  const int value = required_int_attribute(element, key);
  if (value < 0) {
    throw schema_error(element, "<" + element.name() + "> attribute '" +
                                    std::string(key) +
                                    "' must be non-negative, got " +
                                    std::to_string(value));
  }
  return value;
}

CallDesc parse_call(const xml::Element& element) {
  CallDesc c;
  c.interface_name = element.required_attribute("interface");
  c.node = optional_nonneg_int_attribute(element, "node", 0);
  c.radius = optional_nonneg_int_attribute(element, "radius", 0);
  c.loc = loc_of(element);
  for (const xml::Element* arg : element.children("arg")) {
    CallArgDesc a;
    a.param = arg->required_attribute("param");
    a.data = arg->required_attribute("data");
    a.loc = loc_of(*arg);
    c.args.push_back(std::move(a));
  }
  return c;
}

/// Parses the shared schema of <partitioned> and <repartition>: the owning
/// node count, halo width, and optional explicit <slice> children (which
/// require an `elements` extent so coverage is checkable).
void parse_distribution(const xml::Element& element, CallNode& node) {
  node.data = element.required_attribute("data");
  node.nodes = required_int_attribute(element, "nodes");
  if (node.nodes < 1) {
    throw schema_error(element, "<" + element.name() +
                                    "> nodes must be at least 1, got " +
                                    std::to_string(node.nodes));
  }
  node.halo = optional_nonneg_int_attribute(element, "halo", 0);
  for (const xml::Element* slice : element.children("slice")) {
    SliceDecl decl;
    decl.node = required_int_attribute(*slice, "node");
    if (decl.node < 0 || decl.node >= node.nodes) {
      throw schema_error(*slice,
                         "<slice> node " + std::to_string(decl.node) +
                             " is outside the declared partitioning (nodes=" +
                             std::to_string(node.nodes) + ")");
    }
    decl.begin = required_int_attribute(*slice, "begin");
    decl.end = required_int_attribute(*slice, "end");
    if (decl.begin < 0 || decl.end <= decl.begin) {
      throw schema_error(*slice, "<slice> range [" +
                                     std::to_string(decl.begin) + ", " +
                                     std::to_string(decl.end) +
                                     ") is empty or negative");
    }
    decl.loc = loc_of(*slice);
    node.slices.push_back(decl);
  }
  if (!node.slices.empty()) {
    node.elements = required_int_attribute(element, "elements");
    if (node.elements < 1) {
      throw schema_error(element, "<" + element.name() +
                                      "> elements must be at least 1, got " +
                                      std::to_string(node.elements));
    }
    for (const SliceDecl& decl : node.slices) {
      if (decl.end > node.elements) {
        throw schema_error(element,
                           "<slice> range [" + std::to_string(decl.begin) +
                               ", " + std::to_string(decl.end) +
                               ") exceeds the declared elements (" +
                               std::to_string(node.elements) + ")");
      }
    }
  } else if (element.attribute("elements")) {
    throw schema_error(element, "<" + element.name() +
                                    "> declares elements but no <slice> "
                                    "children — drop the attribute or "
                                    "declare the owned ranges");
  }
}

/// Parses the statement children of <calls>, <loop> or <if> recursively.
/// `inside_if` allows a trailing <else>, consumed into `else_out`.
std::vector<CallNode> parse_statements(const xml::Element& parent,
                                       bool inside_if,
                                       std::vector<CallNode>* else_out) {
  std::vector<CallNode> out;
  bool saw_else = false;
  for (const std::unique_ptr<xml::Element>& stmt_owner : parent.all_children()) {
    const xml::Element* stmt = stmt_owner.get();
    if (saw_else) {
      throw schema_error(*stmt, "<else> must be the last child of <if>, "
                                "found <" + stmt->name() + "> after it");
    }
    CallNode node;
    node.loc = loc_of(*stmt);
    if (stmt->name() == "call") {
      node.kind = CallNode::Kind::kCall;
      node.call = parse_call(*stmt);
    } else if (stmt->name() == "loop") {
      node.kind = CallNode::Kind::kLoop;
      node.loop_count = required_int_attribute(*stmt, "count");
      if (node.loop_count < 1) {
        throw schema_error(*stmt,
                           "<loop> count must be at least 1, got " +
                               std::to_string(node.loop_count));
      }
      node.body = parse_statements(*stmt, /*inside_if=*/false, nullptr);
    } else if (stmt->name() == "if") {
      node.kind = CallNode::Kind::kIf;
      node.body = parse_statements(*stmt, /*inside_if=*/true, &node.else_body);
    } else if (stmt->name() == "else") {
      if (!inside_if) {
        throw schema_error(*stmt, "<else> outside <if>");
      }
      saw_else = true;
      *else_out = parse_statements(*stmt, /*inside_if=*/false, nullptr);
      continue;
    } else if (stmt->name() == "partition") {
      node.kind = CallNode::Kind::kPartition;
      node.data = stmt->required_attribute("data");
      node.parts = required_int_attribute(*stmt, "parts");
      if (node.parts < 1) {
        throw schema_error(*stmt, "<partition> parts must be at least 1, got " +
                                      std::to_string(node.parts));
      }
    } else if (stmt->name() == "unpartition") {
      node.kind = CallNode::Kind::kUnpartition;
      node.data = stmt->required_attribute("data");
    } else if (stmt->name() == "prefetch") {
      node.kind = CallNode::Kind::kPrefetch;
      node.data = stmt->required_attribute("data");
      const std::string on = stmt->attribute("on").value_or("device");
      if (on != "host" && on != "device") {
        throw schema_error(*stmt, "<prefetch> attribute 'on' must be 'host' "
                                  "or 'device', got '" + on + "'");
      }
      node.prefetch_to_device = on == "device";
    } else if (stmt->name() == "partitioned") {
      node.kind = CallNode::Kind::kPartitioned;
      parse_distribution(*stmt, node);
    } else if (stmt->name() == "repartition") {
      node.kind = CallNode::Kind::kRepartition;
      parse_distribution(*stmt, node);
    } else if (stmt->name() == "exchange") {
      node.kind = CallNode::Kind::kExchange;
      node.data = stmt->required_attribute("data");
      node.exchange_width = optional_nonneg_int_attribute(*stmt, "width", -1);
    } else if (stmt->name() == "gather") {
      node.kind = CallNode::Kind::kGather;
      node.data = stmt->required_attribute("data");
    } else {
      throw schema_error(*stmt, "unknown element <" + stmt->name() +
                                    "> in the <calls> section");
    }
    out.push_back(std::move(node));
  }
  return out;
}

void flatten_calls(const std::vector<CallNode>& nodes,
                   std::vector<CallDesc>* calls, bool* has_control_flow,
                   bool* has_distributed) {
  for (const CallNode& node : nodes) {
    switch (node.kind) {
      case CallNode::Kind::kCall:
        calls->push_back(node.call);
        break;
      case CallNode::Kind::kLoop:
        *has_control_flow = true;
        flatten_calls(node.body, calls, has_control_flow, has_distributed);
        break;
      case CallNode::Kind::kIf:
        *has_control_flow = true;
        flatten_calls(node.body, calls, has_control_flow, has_distributed);
        flatten_calls(node.else_body, calls, has_control_flow,
                      has_distributed);
        break;
      case CallNode::Kind::kPartition:
      case CallNode::Kind::kUnpartition:
      case CallNode::Kind::kPrefetch:
        break;
      case CallNode::Kind::kPartitioned:
      case CallNode::Kind::kExchange:
      case CallNode::Kind::kRepartition:
      case CallNode::Kind::kGather:
        *has_distributed = true;
        break;
    }
  }
}

void serialize_statements(const std::vector<CallNode>& nodes,
                          xml::Element& parent) {
  for (const CallNode& node : nodes) {
    switch (node.kind) {
      case CallNode::Kind::kCall: {
        xml::Element& call = parent.append_child("call");
        call.set_attribute("interface", node.call.interface_name);
        if (node.call.node != 0) {
          call.set_attribute("node", std::to_string(node.call.node));
        }
        if (node.call.radius != 0) {
          call.set_attribute("radius", std::to_string(node.call.radius));
        }
        for (const CallArgDesc& a : node.call.args) {
          xml::Element& arg = call.append_child("arg");
          arg.set_attribute("param", a.param);
          arg.set_attribute("data", a.data);
        }
        break;
      }
      case CallNode::Kind::kLoop: {
        xml::Element& loop = parent.append_child("loop");
        loop.set_attribute("count", std::to_string(node.loop_count));
        serialize_statements(node.body, loop);
        break;
      }
      case CallNode::Kind::kIf: {
        xml::Element& branch = parent.append_child("if");
        serialize_statements(node.body, branch);
        if (!node.else_body.empty()) {
          serialize_statements(node.else_body, branch.append_child("else"));
        }
        break;
      }
      case CallNode::Kind::kPartition: {
        xml::Element& stmt = parent.append_child("partition");
        stmt.set_attribute("data", node.data);
        stmt.set_attribute("parts", std::to_string(node.parts));
        break;
      }
      case CallNode::Kind::kUnpartition:
        parent.append_child("unpartition").set_attribute("data", node.data);
        break;
      case CallNode::Kind::kPrefetch: {
        xml::Element& stmt = parent.append_child("prefetch");
        stmt.set_attribute("data", node.data);
        stmt.set_attribute("on", node.prefetch_to_device ? "device" : "host");
        break;
      }
      case CallNode::Kind::kPartitioned:
      case CallNode::Kind::kRepartition: {
        xml::Element& stmt = parent.append_child(
            node.kind == CallNode::Kind::kPartitioned ? "partitioned"
                                                      : "repartition");
        stmt.set_attribute("data", node.data);
        stmt.set_attribute("nodes", std::to_string(node.nodes));
        stmt.set_attribute("halo", std::to_string(node.halo));
        if (!node.slices.empty()) {
          stmt.set_attribute("elements", std::to_string(node.elements));
          for (const SliceDecl& decl : node.slices) {
            xml::Element& slice = stmt.append_child("slice");
            slice.set_attribute("node", std::to_string(decl.node));
            slice.set_attribute("begin", std::to_string(decl.begin));
            slice.set_attribute("end", std::to_string(decl.end));
          }
        }
        break;
      }
      case CallNode::Kind::kExchange: {
        xml::Element& stmt = parent.append_child("exchange");
        stmt.set_attribute("data", node.data);
        if (node.exchange_width >= 0) {
          stmt.set_attribute("width", std::to_string(node.exchange_width));
        }
        break;
      }
      case CallNode::Kind::kGather:
        parent.append_child("gather").set_attribute("data", node.data);
        break;
    }
  }
}

void set_statement_files(std::vector<CallNode>& nodes,
                         const std::string& source_file) {
  for (CallNode& node : nodes) {
    node.loc.file = source_file;
    node.call.loc.file = source_file;
    for (CallArgDesc& a : node.call.args) a.loc.file = source_file;
    for (SliceDecl& decl : node.slices) decl.loc.file = source_file;
    set_statement_files(node.body, source_file);
    set_statement_files(node.else_body, source_file);
  }
}

/// C-like identifiers appearing in a size expression ("nrows*ncols" ->
/// {"nrows","ncols"}); "sizeof" is not reported.
std::vector<std::string> identifiers_in(std::string_view expr) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < expr.size()) {
    const char c = expr[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < expr.size() &&
             (std::isalnum(static_cast<unsigned char>(expr[i])) ||
              expr[i] == '_')) {
        ++i;
      }
      std::string ident(expr.substr(start, i - start));
      if (ident != "sizeof") out.push_back(std::move(ident));
    } else {
      ++i;
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParamDesc / InterfaceDescriptor
// ---------------------------------------------------------------------------

bool ParamDesc::is_operand() const noexcept {
  // Pointers and smart containers carry payload data; references to
  // containers likewise. Value parameters are call context / argument blob.
  return kind() != ParamKind::kValue;
}

bool ParamDesc::is_container() const noexcept {
  const ParamKind k = kind();
  return k == ParamKind::kVector || k == ParamKind::kMatrix ||
         k == ParamKind::kScalar;
}

std::string ParamDesc::element_type() const {
  if (is_container()) {
    const std::size_t open = type.find('<');
    const std::size_t close = type.rfind('>');
    if (open != std::string::npos && close != std::string::npos && close > open) {
      return std::string(strings::trim(type.substr(open + 1, close - open - 1)));
    }
    return "";
  }
  if (type.find('*') != std::string::npos) {
    std::string base = type.substr(0, type.find('*'));
    base = strings::replace_all(base, "const", "");
    return std::string(strings::trim(base));
  }
  return "";
}

ParamKind ParamDesc::kind() const noexcept {
  if (type.find("Vector<") != std::string::npos) return ParamKind::kVector;
  if (type.find("Matrix<") != std::string::npos) return ParamKind::kMatrix;
  if (type.find("Scalar<") != std::string::npos) return ParamKind::kScalar;
  if (type.find('*') != std::string::npos) return ParamKind::kRawPointer;
  return ParamKind::kValue;
}

std::string lowered_impl_signature(const InterfaceDescriptor& iface,
                                   const std::string& function_name) {
  std::string out = "void " + function_name + "(";
  for (std::size_t i = 0; i < iface.params.size(); ++i) {
    const ParamDesc& p = iface.params[i];
    if (i != 0) out += ", ";
    const std::string elem = p.element_type();
    switch (p.kind()) {
      case ParamKind::kValue:
      case ParamKind::kRawPointer:
        out += p.type + " " + p.name;
        break;
      case ParamKind::kVector:
        out += elem + "* " + p.name + ", std::size_t " + p.name + "_count";
        break;
      case ParamKind::kMatrix:
        out += elem + "* " + p.name + ", std::size_t " + p.name +
               "_rows, std::size_t " + p.name + "_cols";
        break;
      case ParamKind::kScalar:
        out += elem + "* " + p.name;
        break;
    }
  }
  out += ")";
  return out;
}

InterfaceDescriptor InterfaceDescriptor::from_xml(const xml::Element& element) {
  if (element.name() != "peppher-interface") {
    throw ParseError("expected <peppher-interface>, found <" + element.name() + ">");
  }
  InterfaceDescriptor out;
  out.name = element.required_attribute("name");
  out.loc = loc_of(element);
  const xml::Element& function = element.required_child("function");
  out.return_type = function.attribute("returnType").value_or("void");
  for (const xml::Element* param : function.children("param")) {
    ParamDesc p;
    p.loc = loc_of(*param);
    p.name = param->required_attribute("name");
    p.type = param->required_attribute("type");
    p.access = rt::parse_access_mode(
        param->attribute("accessMode").value_or("read"));
    p.size_expr = param->attribute("size").value_or("");
    out.params.push_back(std::move(p));
  }
  for (const xml::Element* tp : element.children("templateParam")) {
    out.template_params.push_back(tp->required_attribute("name"));
  }
  if (const xml::Element* metrics = element.child("performanceMetrics")) {
    for (const xml::Element* metric : metrics->children("metric")) {
      out.performance_metrics.push_back(metric->required_attribute("name"));
    }
  }
  if (const xml::Element* context = element.child("contextParams")) {
    for (const xml::Element* cp : context->children("contextParam")) {
      ContextParamDesc c;
      c.name = cp->required_attribute("name");
      c.min = optional_attr_double(*cp, "min");
      c.max = optional_attr_double(*cp, "max");
      out.context_params.push_back(std::move(c));
    }
  }
  return out;
}

std::unique_ptr<xml::Element> InterfaceDescriptor::to_xml() const {
  auto root = std::make_unique<xml::Element>("peppher-interface");
  root->set_attribute("name", name);
  xml::Element& function = root->append_child("function");
  function.set_attribute("returnType", return_type);
  for (const ParamDesc& p : params) {
    xml::Element& param = function.append_child("param");
    param.set_attribute("name", p.name);
    param.set_attribute("type", p.type);
    param.set_attribute("accessMode", rt::to_string(p.access));
    if (!p.size_expr.empty()) param.set_attribute("size", p.size_expr);
  }
  for (const std::string& tp : template_params) {
    root->append_child("templateParam").set_attribute("name", tp);
  }
  if (!performance_metrics.empty()) {
    xml::Element& metrics = root->append_child("performanceMetrics");
    for (const std::string& m : performance_metrics) {
      metrics.append_child("metric").set_attribute("name", m);
    }
  }
  if (!context_params.empty()) {
    xml::Element& context = root->append_child("contextParams");
    for (const ContextParamDesc& c : context_params) {
      xml::Element& cp = context.append_child("contextParam");
      cp.set_attribute("name", c.name);
      if (c.min) cp.set_attribute("min", std::to_string(*c.min));
      if (c.max) cp.set_attribute("max", std::to_string(*c.max));
    }
  }
  return root;
}

std::string InterfaceDescriptor::prototype() const {
  std::string out;
  if (is_generic()) {
    out += "template <";
    for (std::size_t i = 0; i < template_params.size(); ++i) {
      if (i != 0) out += ", ";
      out += "typename " + template_params[i];
    }
    out += ">\n";
  }
  out += return_type + " " + name + "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i != 0) out += ", ";
    out += params[i].type + " " + params[i].name;
  }
  out += ");";
  return out;
}

// ---------------------------------------------------------------------------
// ImplementationDescriptor
// ---------------------------------------------------------------------------

ImplementationDescriptor ImplementationDescriptor::from_xml(
    const xml::Element& element) {
  if (element.name() != "peppher-implementation") {
    throw ParseError("expected <peppher-implementation>, found <" +
                     element.name() + ">");
  }
  ImplementationDescriptor out;
  out.name = element.required_attribute("name");
  out.interface_name = element.required_attribute("interface");
  out.loc = loc_of(element);
  const xml::Element& platform = element.required_child("platform");
  out.language = platform.required_attribute("language");
  out.target_platform = platform.attribute("target").value_or("");
  if (const xml::Element* sources = element.child("sources")) {
    for (const xml::Element* source : sources->children("source")) {
      out.sources.push_back(source->required_attribute("file"));
    }
  }
  if (const xml::Element* compilation = element.child("compilation")) {
    out.compile_command = compilation->attribute("command").value_or("");
    out.compile_options = compilation->attribute("options").value_or("");
  }
  if (const xml::Element* requires_elem = element.child("requires")) {
    for (const xml::Element* iface : requires_elem->children("interface")) {
      out.required_interfaces.push_back(iface->required_attribute("name"));
    }
  }
  if (const xml::Element* resources = element.child("resources")) {
    out.min_memory_mb =
        optional_attr_double(*resources, "minMemoryMB").value_or(0.0);
    out.max_memory_mb =
        optional_attr_double(*resources, "maxMemoryMB").value_or(0.0);
  }
  if (const xml::Element* prediction = element.child("prediction")) {
    out.prediction_function = prediction->required_attribute("function");
  }
  if (const xml::Element* tunables = element.child("tunables")) {
    for (const xml::Element* tunable : tunables->children("tunable")) {
      TunableDesc t;
      t.name = tunable->required_attribute("name");
      for (std::string& v :
           strings::split(tunable->attribute("values").value_or(""), ',')) {
        std::string trimmed(strings::trim(v));
        if (!trimmed.empty()) t.values.push_back(std::move(trimmed));
      }
      t.default_value = tunable->attribute("default").value_or(
          t.values.empty() ? "" : t.values.front());
      out.tunables.push_back(std::move(t));
    }
  }
  if (const xml::Element* constraints = element.child("constraints")) {
    for (const xml::Element* constraint : constraints->children("constraint")) {
      ConstraintDesc c;
      c.loc = loc_of(*constraint);
      c.param = constraint->required_attribute("param");
      c.min = optional_attr_double(*constraint, "min");
      c.max = optional_attr_double(*constraint, "max");
      out.constraints.push_back(std::move(c));
    }
  }
  // Validates the language eagerly so errors point at the descriptor.
  (void)out.arch();
  return out;
}

std::unique_ptr<xml::Element> ImplementationDescriptor::to_xml() const {
  auto root = std::make_unique<xml::Element>("peppher-implementation");
  root->set_attribute("name", name);
  root->set_attribute("interface", interface_name);
  xml::Element& platform = root->append_child("platform");
  platform.set_attribute("language", language);
  if (!target_platform.empty()) platform.set_attribute("target", target_platform);
  if (!sources.empty()) {
    xml::Element& src = root->append_child("sources");
    for (const std::string& file : sources) {
      src.append_child("source").set_attribute("file", file);
    }
  }
  if (!compile_command.empty() || !compile_options.empty()) {
    xml::Element& compilation = root->append_child("compilation");
    compilation.set_attribute("command", compile_command);
    compilation.set_attribute("options", compile_options);
  }
  if (!required_interfaces.empty()) {
    xml::Element& req = root->append_child("requires");
    for (const std::string& iface : required_interfaces) {
      req.append_child("interface").set_attribute("name", iface);
    }
  }
  if (min_memory_mb > 0.0 || max_memory_mb > 0.0) {
    xml::Element& resources = root->append_child("resources");
    resources.set_attribute("minMemoryMB", std::to_string(min_memory_mb));
    resources.set_attribute("maxMemoryMB", std::to_string(max_memory_mb));
  }
  if (prediction_function) {
    root->append_child("prediction").set_attribute("function", *prediction_function);
  }
  if (!tunables.empty()) {
    xml::Element& tuns = root->append_child("tunables");
    for (const TunableDesc& t : tunables) {
      xml::Element& tunable = tuns.append_child("tunable");
      tunable.set_attribute("name", t.name);
      tunable.set_attribute("values", strings::join(t.values, ","));
      if (!t.default_value.empty()) {
        tunable.set_attribute("default", t.default_value);
      }
    }
  }
  if (!constraints.empty()) {
    xml::Element& cons = root->append_child("constraints");
    for (const ConstraintDesc& c : constraints) {
      xml::Element& constraint = cons.append_child("constraint");
      constraint.set_attribute("param", c.param);
      if (c.min) constraint.set_attribute("min", std::to_string(*c.min));
      if (c.max) constraint.set_attribute("max", std::to_string(*c.max));
    }
  }
  return root;
}

// ---------------------------------------------------------------------------
// PlatformDescriptor
// ---------------------------------------------------------------------------

PlatformDescriptor PlatformDescriptor::from_xml(const xml::Element& element) {
  if (element.name() != "peppher-platform") {
    throw ParseError("expected <peppher-platform>, found <" + element.name() + ">");
  }
  PlatformDescriptor out;
  out.name = element.required_attribute("name");
  out.kind = element.attribute("kind").value_or("cpu");
  out.loc = loc_of(element);
  for (const xml::Element* property : element.children("property")) {
    out.properties[property->required_attribute("name")] =
        property->required_attribute("value");
  }
  return out;
}

std::optional<double> PlatformDescriptor::numeric_property(
    const std::string& key) const {
  auto it = properties.find(key);
  if (it == properties.end()) return std::nullopt;
  return strings::to_double(it->second);
}

std::unique_ptr<xml::Element> PlatformDescriptor::to_xml() const {
  auto root = std::make_unique<xml::Element>("peppher-platform");
  root->set_attribute("name", name);
  root->set_attribute("kind", kind);
  for (const auto& [key, value] : properties) {
    xml::Element& property = root->append_child("property");
    property.set_attribute("name", key);
    property.set_attribute("value", value);
  }
  return root;
}

// ---------------------------------------------------------------------------
// MainDescriptor
// ---------------------------------------------------------------------------

MainDescriptor MainDescriptor::from_xml(const xml::Element& element) {
  if (element.name() != "peppher-main") {
    throw ParseError("expected <peppher-main>, found <" + element.name() + ">");
  }
  MainDescriptor out;
  out.name = element.required_attribute("name");
  out.source = element.attribute("source").value_or("main.cpp");
  out.loc = loc_of(element);
  if (const xml::Element* target = element.child("target")) {
    out.target_platform = target->attribute("platform").value_or("");
  }
  if (const xml::Element* goal = element.child("goal")) {
    out.optimization_goal = goal->attribute("metric").value_or("exec_time");
  }
  for (const xml::Element* uses : element.children("uses")) {
    out.uses.push_back(uses->required_attribute("interface"));
  }
  if (const xml::Element* calls = element.child("calls")) {
    out.call_tree = parse_statements(*calls, /*inside_if=*/false, nullptr);
    flatten_calls(out.call_tree, &out.calls, &out.has_control_flow,
                  &out.has_distributed);
  }
  if (const xml::Element* composition = element.child("composition")) {
    out.use_history_models = parse_bool(
        composition->attribute("useHistoryModels").value_or("true"), true);
    out.scheduler = composition->attribute("scheduler").value_or("dmda");
    for (const xml::Element* disable : composition->children("disableImpls")) {
      out.disabled_impls.push_back(disable->required_attribute("name"));
    }
  }
  return out;
}

std::unique_ptr<xml::Element> MainDescriptor::to_xml() const {
  auto root = std::make_unique<xml::Element>("peppher-main");
  root->set_attribute("name", name);
  root->set_attribute("source", source);
  if (!target_platform.empty()) {
    root->append_child("target").set_attribute("platform", target_platform);
  }
  root->append_child("goal").set_attribute("metric", optimization_goal);
  for (const std::string& iface : uses) {
    root->append_child("uses").set_attribute("interface", iface);
  }
  if (!call_tree.empty()) {
    serialize_statements(call_tree, root->append_child("calls"));
  } else if (!calls.empty()) {
    // Programmatically built descriptor with only the flattened view.
    xml::Element& calls_elem = root->append_child("calls");
    for (const CallDesc& c : calls) {
      xml::Element& call = calls_elem.append_child("call");
      call.set_attribute("interface", c.interface_name);
      for (const CallArgDesc& a : c.args) {
        xml::Element& arg = call.append_child("arg");
        arg.set_attribute("param", a.param);
        arg.set_attribute("data", a.data);
      }
    }
  }
  xml::Element& composition = root->append_child("composition");
  composition.set_attribute("useHistoryModels",
                            use_history_models ? "true" : "false");
  composition.set_attribute("scheduler", scheduler);
  for (const std::string& impl : disabled_impls) {
    composition.append_child("disableImpls").set_attribute("name", impl);
  }
  return root;
}

// ---------------------------------------------------------------------------
// Repository
// ---------------------------------------------------------------------------

void Repository::scan(const std::filesystem::path& root) {
  for (const auto& path : fs::list_files_recursive(root, ".xml")) {
    load_file(path);
  }
}

void Repository::load_file(const std::filesystem::path& path) {
  load_text(fs::read_file(path), path.parent_path(), path.string());
}

void Repository::load_text(std::string_view text,
                           const std::filesystem::path& origin,
                           const std::string& source_file) {
  const xml::Document doc = xml::parse(text);
  const std::string& root = doc.root->name();
  if (root == "peppher-interface") {
    InterfaceDescriptor d = InterfaceDescriptor::from_xml(*doc.root);
    d.loc.file = source_file;
    for (ParamDesc& p : d.params) p.loc.file = source_file;
    origins_[d.name] = origin;
    add(std::move(d));
  } else if (root == "peppher-implementation") {
    ImplementationDescriptor d = ImplementationDescriptor::from_xml(*doc.root);
    d.loc.file = source_file;
    for (ConstraintDesc& c : d.constraints) c.loc.file = source_file;
    origins_[d.name] = origin;
    add(std::move(d));
  } else if (root == "peppher-platform") {
    PlatformDescriptor d = PlatformDescriptor::from_xml(*doc.root);
    d.loc.file = source_file;
    origins_[d.name] = origin;
    add(std::move(d));
  } else if (root == "peppher-main") {
    MainDescriptor d = MainDescriptor::from_xml(*doc.root);
    d.loc.file = source_file;
    for (CallDesc& c : d.calls) {
      c.loc.file = source_file;
      for (CallArgDesc& a : c.args) a.loc.file = source_file;
    }
    set_statement_files(d.call_tree, source_file);
    origins_[d.name] = origin;
    add(std::move(d));
  }
  // Unknown root elements are ignored: repositories may hold other XML.
}

void Repository::add(InterfaceDescriptor interface_desc) {
  const std::string name = interface_desc.name;
  if (interfaces_.find(name) == interfaces_.end()) {
    interface_order_.push_back(name);
  }
  interfaces_[name] = std::move(interface_desc);
}

void Repository::add(ImplementationDescriptor impl_desc) {
  const std::string name = impl_desc.name;
  if (implementations_.find(name) == implementations_.end()) {
    implementation_order_.push_back(name);
  } else {
    duplicate_implementations_.insert(name);
  }
  implementations_[name] = std::move(impl_desc);
}

void Repository::add(PlatformDescriptor platform_desc) {
  platforms_[platform_desc.name] = std::move(platform_desc);
}

void Repository::add(MainDescriptor main_desc) { main_ = std::move(main_desc); }

const InterfaceDescriptor* Repository::find_interface(const std::string& name) const {
  auto it = interfaces_.find(name);
  return it == interfaces_.end() ? nullptr : &it->second;
}

const ImplementationDescriptor* Repository::find_implementation(
    const std::string& name) const {
  auto it = implementations_.find(name);
  return it == implementations_.end() ? nullptr : &it->second;
}

const PlatformDescriptor* Repository::find_platform(const std::string& name) const {
  auto it = platforms_.find(name);
  return it == platforms_.end() ? nullptr : &it->second;
}

const MainDescriptor* Repository::main_module() const {
  return main_.has_value() ? &*main_ : nullptr;
}

std::vector<const ImplementationDescriptor*> Repository::implementations_of(
    const std::string& interface_name) const {
  std::vector<const ImplementationDescriptor*> out;
  for (const std::string& name : implementation_order_) {
    const ImplementationDescriptor& impl = implementations_.at(name);
    if (impl.interface_name == interface_name) out.push_back(&impl);
  }
  return out;
}

std::vector<const InterfaceDescriptor*> Repository::interfaces() const {
  std::vector<const InterfaceDescriptor*> out;
  for (const std::string& name : interface_order_) {
    out.push_back(&interfaces_.at(name));
  }
  return out;
}

std::vector<const PlatformDescriptor*> Repository::platforms() const {
  std::vector<const PlatformDescriptor*> out;
  out.reserve(platforms_.size());
  for (const auto& [name, platform] : platforms_) out.push_back(&platform);
  return out;
}

std::filesystem::path Repository::origin_of(const std::string& descriptor_name) const {
  auto it = origins_.find(descriptor_name);
  return it == origins_.end() ? std::filesystem::path() : it->second;
}

std::vector<const InterfaceDescriptor*> Repository::interfaces_bottom_up() const {
  // Build interface -> required interfaces (union over that interface's
  // implementations), then topologically sort dependencies-first.
  std::map<std::string, std::set<std::string>> requires_map;
  for (const std::string& name : interface_order_) {
    requires_map[name] = {};
  }
  for (const std::string& impl_name : implementation_order_) {
    const ImplementationDescriptor& impl = implementations_.at(impl_name);
    auto it = requires_map.find(impl.interface_name);
    if (it == requires_map.end()) continue;
    for (const std::string& req : impl.required_interfaces) {
      if (requires_map.count(req) != 0) it->second.insert(req);
    }
  }

  std::vector<const InterfaceDescriptor*> out;
  std::set<std::string> emitted;
  std::set<std::string> visiting;
  // Depth-first emit of requirements before dependents (deterministic:
  // follows load order).
  std::function<void(const std::string&)> visit = [&](const std::string& name) {
    if (emitted.count(name) != 0) return;
    if (!visiting.insert(name).second) {
      throw Error(ErrorCode::kInvalidState,
                  "cycle in required-interfaces relation involving '" + name + "'");
    }
    for (const std::string& req : requires_map.at(name)) visit(req);
    visiting.erase(name);
    emitted.insert(name);
    out.push_back(&interfaces_.at(name));
  };
  for (const std::string& name : interface_order_) visit(name);
  return out;
}

std::vector<diag::Diagnostic> Repository::diagnose() const {
  using diag::Severity;
  diag::DiagnosticBag bag;
  for (const std::string& name : duplicate_implementations_) {
    bag.add("PL040", Severity::kWarning,
            "implementation name clash: '" + name +
                "' defined more than once (latest definition wins)",
            implementations_.at(name).loc);
  }
  for (const std::string& impl_name : implementation_order_) {
    const ImplementationDescriptor& impl = implementations_.at(impl_name);
    if (interfaces_.count(impl.interface_name) == 0) {
      bag.add("PL041", Severity::kError,
              "implementation '" + impl.name + "' provides unknown interface '" +
                  impl.interface_name + "'",
              impl.loc);
    }
    for (const std::string& req : impl.required_interfaces) {
      if (interfaces_.count(req) == 0) {
        bag.add("PL042", Severity::kError,
                "implementation '" + impl.name + "' requires unknown interface '" +
                    req + "'",
                impl.loc);
      }
    }
    if (!impl.target_platform.empty() &&
        platforms_.count(impl.target_platform) == 0) {
      bag.add("PL043", Severity::kError,
              "implementation '" + impl.name + "' targets unknown platform '" +
                  impl.target_platform + "'",
              impl.loc);
    }
    for (const ConstraintDesc& constraint : impl.constraints) {
      const InterfaceDescriptor* iface = find_interface(impl.interface_name);
      if (iface == nullptr) continue;
      const bool known =
          std::any_of(iface->context_params.begin(), iface->context_params.end(),
                      [&](const ContextParamDesc& c) { return c.name == constraint.param; }) ||
          std::any_of(iface->params.begin(), iface->params.end(),
                      [&](const ParamDesc& p) { return p.name == constraint.param; });
      if (!known) {
        bag.add("PL044", Severity::kError,
                "implementation '" + impl.name + "' constrains unknown parameter '" +
                    constraint.param + "'",
                constraint.loc.known() ? constraint.loc : impl.loc);
      }
    }
  }
  for (const std::string& iface_name : interface_order_) {
    const InterfaceDescriptor& iface = interfaces_.at(iface_name);
    if (implementations_of(iface_name).empty()) {
      bag.add("PL045", Severity::kWarning,
              "interface '" + iface_name + "' has no implementation variants",
              iface.loc);
    }
    // The runtime's performance models provide average execution time; any
    // other requested metric has no provider in this framework.
    for (const std::string& metric : iface.performance_metrics) {
      if (metric != "avg_exec_time") {
        bag.add("PL046", Severity::kWarning,
                "interface '" + iface_name +
                    "' requests unsupported performance metric '" + metric + "'",
                iface.loc);
      }
    }
    std::set<std::string> seen_params;
    for (const ParamDesc& p : iface.params) {
      if (!seen_params.insert(p.name).second) {
        bag.add("PL050", Severity::kError,
                "interface '" + iface_name + "' declares parameter '" + p.name +
                    "' more than once",
                p.loc.known() ? p.loc : iface.loc);
      }
    }
    for (const ParamDesc& p : iface.params) {
      for (const std::string& ident : identifiers_in(p.size_expr)) {
        if (seen_params.count(ident) == 0) {
          bag.add("PL051", Severity::kError,
                  "size expression '" + p.size_expr + "' of parameter '" +
                      p.name + "' in interface '" + iface_name +
                      "' references undeclared parameter '" + ident + "'",
                  p.loc.known() ? p.loc : iface.loc);
        }
      }
    }
  }
  if (main_.has_value()) {
    for (const std::string& used : main_->uses) {
      if (interfaces_.count(used) == 0) {
        bag.add("PL047", Severity::kError,
                "main module uses unknown interface '" + used + "'", main_->loc);
      }
    }
    for (const std::string& disabled : main_->disabled_impls) {
      bool is_arch = true;
      try {
        (void)rt::parse_arch(disabled);
      } catch (const Error&) {
        is_arch = false;
      }
      if (!is_arch && implementations_.count(disabled) == 0) {
        bag.add("PL048", Severity::kWarning,
                "disableImpls names '" + disabled +
                    "', which is neither an implementation nor an architecture",
                main_->loc);
      }
    }
  }
  bag.sort();
  return bag.diagnostics();
}

std::vector<std::string> Repository::validate() const {
  std::vector<std::string> problems;
  for (const diag::Diagnostic& d : diagnose()) problems.push_back(d.format());
  return problems;
}

}  // namespace peppher::desc
