#include "sim/topology.hpp"

#include <set>
#include <sstream>

#include "support/error.hpp"

namespace peppher::sim {
namespace {

/// One whitespace-delimited token with its 1-based location.
struct Token {
  std::string text;
  int line = 0;
  int column = 0;
};

std::vector<std::vector<Token>> tokenize_lines(const std::string& text) {
  std::vector<std::vector<Token>> lines;
  std::vector<Token> current;
  Token token;
  int line = 1;
  int column = 1;
  const auto flush_token = [&] {
    if (!token.text.empty()) current.push_back(std::move(token));
    token = Token{};
  };
  const auto flush_line = [&] {
    flush_token();
    if (!current.empty()) lines.push_back(std::move(current));
    current.clear();
  };
  for (const char c : text) {
    if (c == '\n') {
      flush_line();
      ++line;
      column = 1;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      flush_token();
    } else {
      if (token.text.empty()) {
        token.line = line;
        token.column = column;
      }
      token.text.push_back(c);
    }
    ++column;
  }
  flush_line();
  return lines;
}

[[noreturn]] void fail(const std::string& message, const Token& at) {
  throw ParseError(message, at.line, at.column);
}

/// The token after `index` on the same line, or a located error naming the
/// keyword that is missing its value.
const Token& value_after(const std::vector<Token>& line, std::size_t index,
                         const std::string& keyword) {
  if (index + 1 >= line.size()) {
    fail("'" + keyword + "' is missing a value", line[index]);
  }
  return line[index + 1];
}

double parse_double(const Token& token, const std::string& what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token.text, &consumed);
  } catch (const std::exception&) {
    fail(what + " is not a number: '" + token.text + "'", token);
  }
  if (consumed != token.text.size()) {
    fail(what + " is not a number: '" + token.text + "'", token);
  }
  return value;
}

int parse_int(const Token& token, const std::string& what) {
  const double value = parse_double(token, what);
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    fail(what + " must be an integer", token);
  }
  return as_int;
}

MachineConfig node_machine(const Token& token) {
  try {
    return machine_preset(token.text);
  } catch (const Error&) {
    fail("unknown machine preset '" + token.text + "' (expected " +
             std::string(kMachinePresets) + ")",
         token);
  }
}

void parse_link_fields(const std::vector<Token>& line, std::size_t start,
                       LinkProfile& link) {
  for (std::size_t i = start; i < line.size(); i += 2) {
    const std::string& key = line[i].text;
    const Token& value = value_after(line, i, key);
    if (key == "latency_us") {
      link.latency_us = parse_double(value, "latency_us");
      if (link.latency_us < 0.0) fail("latency_us must be >= 0", value);
    } else if (key == "bandwidth_gbs") {
      link.bandwidth_gbs = parse_double(value, "bandwidth_gbs");
      if (link.bandwidth_gbs <= 0.0) {
        fail("bandwidth_gbs must be positive", value);
      }
    } else {
      fail("unknown internode field '" + key +
               "' (expected latency_us or bandwidth_gbs)",
           line[i]);
    }
  }
}

NodeConfig parse_node_line(const std::vector<Token>& line) {
  NodeConfig node;
  const Token& id = value_after(line, 0, "node");
  node.id = parse_int(id, "node id");
  if (node.id < 0) fail("node id must be non-negative", id);
  node.machine = MachineConfig::platform_c2050();
  for (std::size_t i = 2; i < line.size(); i += 2) {
    const std::string& key = line[i].text;
    const Token& value = value_after(line, i, key);
    if (key == "machine") {
      node.machine = node_machine(value);
    } else if (key == "cpu_cores") {
      node.machine.cpu_cores = parse_int(value, "cpu_cores");
      if (node.machine.cpu_cores < 0) fail("cpu_cores must be >= 0", value);
    } else {
      fail("unknown node field '" + key +
               "' (expected machine or cpu_cores)",
           line[i]);
    }
  }
  return node;
}

}  // namespace

ClusterConfig ClusterConfig::single(MachineConfig machine) {
  ClusterConfig cluster;
  cluster.name = machine.name;
  cluster.nodes.push_back({0, std::move(machine)});
  return cluster;
}

ClusterConfig ClusterConfig::uniform(int count, MachineConfig machine,
                                     LinkProfile internode) {
  check(count > 0, "ClusterConfig::uniform: count must be positive");
  ClusterConfig cluster;
  cluster.name = std::to_string(count) + "x" + machine.name;
  cluster.internode = internode;
  for (int i = 0; i < count; ++i) {
    cluster.nodes.push_back({i, machine});
  }
  return cluster;
}

ClusterConfig parse_cluster(const std::string& text) {
  const std::vector<std::vector<Token>> lines = tokenize_lines(text);
  if (lines.empty()) {
    throw ParseError("empty cluster document (expected 'peppher-cluster v1')",
                     1, 1);
  }
  const std::vector<Token>& header = lines.front();
  if (header[0].text != "peppher-cluster") {
    fail("not a peppher-cluster document (got '" + header[0].text + "')",
         header[0]);
  }
  const Token& version = value_after(header, 0, "peppher-cluster");
  if (version.text != "v1") {
    fail("unsupported cluster format version '" + version.text +
             "' (reader supports v1)",
         version);
  }
  if (header.size() > 2) fail("trailing tokens after the header", header[2]);

  ClusterConfig cluster;
  cluster.nodes.clear();
  std::set<int> seen_ids;
  bool ended = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<Token>& line = lines[i];
    const std::string& keyword = line[0].text;
    if (ended) fail("content after 'end'", line[0]);
    if (keyword == "name") {
      cluster.name = value_after(line, 0, "name").text;
      if (line.size() > 2) fail("trailing tokens after the name", line[2]);
    } else if (keyword == "internode") {
      parse_link_fields(line, 1, cluster.internode);
    } else if (keyword == "node") {
      NodeConfig node = parse_node_line(line);
      if (!seen_ids.insert(node.id).second) {
        fail("duplicate node id " + std::to_string(node.id), line[1]);
      }
      cluster.nodes.push_back(std::move(node));
    } else if (keyword == "end") {
      if (line.size() > 1) fail("trailing tokens after 'end'", line[1]);
      ended = true;
    } else {
      fail("unknown keyword '" + keyword +
               "' (expected name, internode, node or end)",
           line[0]);
    }
  }
  if (!ended) {
    const Token& last = lines.back().back();
    throw ParseError("truncated cluster document (missing 'end')", last.line,
                     last.column);
  }
  if (cluster.nodes.empty()) {
    throw ParseError("cluster has no nodes", 1, 1);
  }
  // Node ids must be dense 0..N-1 so they double as sim-node indices.
  for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
    if (cluster.nodes[i].id != static_cast<int>(i)) {
      throw ParseError("node ids must be dense and ordered 0..N-1 (got " +
                           std::to_string(cluster.nodes[i].id) +
                           " at position " + std::to_string(i) + ")",
                       1, 1);
    }
  }
  return cluster;
}

std::string to_text(const ClusterConfig& cluster) {
  std::ostringstream out;
  out << "peppher-cluster v1\n";
  out << "name " << cluster.name << "\n";
  out << "internode latency_us " << cluster.internode.latency_us
      << " bandwidth_gbs " << cluster.internode.bandwidth_gbs << "\n";
  for (const NodeConfig& node : cluster.nodes) {
    out << "node " << node.id;
    const std::string& name = node.machine.name;
    if (name == "xeon-e5520+c2050") {
      out << " machine c2050";
    } else if (name == "xeon-e5520+c1060") {
      out << " machine c1060";
    } else if (name == "xeon-e5520+opencl") {
      out << " machine opencl";
    } else if (name == "xeon-e5520+2xc2050") {
      out << " machine dual_c2050";
    } else {
      out << " machine cpu_only";
    }
    out << " cpu_cores " << node.machine.cpu_cores << "\n";
  }
  out << "end\n";
  return std::move(out).str();
}

}  // namespace peppher::sim
