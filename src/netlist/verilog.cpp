#include "netlist/verilog.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ppat::netlist {
namespace {

/// Input pin names by position (data pins; the DFF data pin is "D").
const char* input_pin_name(const Cell& cell, std::size_t pin) {
  if (cell.sequential) return "D";
  static const char* kNames[] = {"A", "B", "C"};
  if (pin < 3) return kNames[pin];
  throw std::logic_error("input_pin_name: cells have at most 3 data pins");
}

const char* output_pin_name(const Cell& cell) {
  return cell.sequential ? "Q" : "Y";
}

std::string net_name(NetId id, const std::map<NetId, std::size_t>& pi_index) {
  // Built by construct-then-append: GCC 12 reports a false -Wrestrict
  // overlap inside `"pi" + std::to_string(...)` and string assignment.
  const auto it = pi_index.find(id);
  const bool is_pi = it != pi_index.end();
  std::string name(is_pi ? "pi" : "n");
  name += std::to_string(is_pi ? it->second : std::size_t{id});
  return name;
}

}  // namespace

void write_verilog(const Netlist& nl, const std::string& module_name,
                   std::ostream& out) {
  std::map<NetId, std::size_t> pi_index;
  for (std::size_t k = 0; k < nl.primary_inputs().size(); ++k) {
    pi_index[nl.primary_inputs()[k]] = k;
  }
  const auto pos = nl.primary_outputs();

  // Header with the port list: clk, inputs, outputs.
  out << "module " << module_name << " (clk";
  for (std::size_t k = 0; k < pi_index.size(); ++k) out << ", pi" << k;
  for (NetId po : pos) out << ", " << net_name(po, pi_index);
  out << ");\n";
  out << "  input clk;\n";
  for (std::size_t k = 0; k < pi_index.size(); ++k) {
    out << "  input pi" << k << ";\n";
  }
  for (NetId po : pos) {
    if (pi_index.count(po) != 0) {
      throw std::runtime_error(
          "write_verilog: net is both primary input and output");
    }
    out << "  output " << net_name(po, pi_index) << ";\n";
  }
  // Wire declarations: every connected, non-port net.
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const Net& net = nl.net(id);
    if (pi_index.count(id) != 0 || net.is_primary_output) continue;
    if (net.driver == kInvalidId && net.sinks.empty()) continue;  // floating
    out << "  wire " << net_name(id, pi_index) << ";\n";
  }

  // Instances in id order.
  for (InstanceId i = 0; i < nl.num_instances(); ++i) {
    const Instance& inst = nl.instance(i);
    const Cell& cell = nl.library().cell(inst.cell);
    out << "  " << cell.name << " u" << i << " (";
    for (std::size_t pin = 0; pin < inst.fanins.size(); ++pin) {
      out << "." << input_pin_name(cell, pin) << "("
          << net_name(inst.fanins[pin], pi_index) << "), ";
    }
    if (cell.sequential) out << ".CK(clk), ";
    out << "." << output_pin_name(cell) << "("
        << net_name(inst.fanout, pi_index) << "));\n";
  }
  out << "endmodule\n";
}

std::string to_verilog(const Netlist& nl, const std::string& module_name) {
  std::ostringstream out;
  write_verilog(nl, module_name, out);
  return out.str();
}

namespace {

/// Minimal tokenizer for the emitted dialect.
struct Parser {
  const CellLibrary& library;
  std::istringstream in;
  std::size_t line_no = 0;
  std::string line;

  explicit Parser(const CellLibrary& lib, const std::string& text)
      : library(lib), in(text) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("verilog parse error at line " +
                             std::to_string(line_no) + ": " + what);
  }
};

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_names(const std::string& list,
                                     Parser& parser) {
  std::vector<std::string> names;
  std::string cur;
  for (char c : list) {
    if (c == ',') {
      const std::string name = strip(cur);
      if (name.empty()) parser.fail("empty name in list");
      names.push_back(name);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  const std::string name = strip(cur);
  if (!name.empty()) names.push_back(name);
  return names;
}

}  // namespace

Netlist parse_verilog(const CellLibrary& library, const std::string& text) {
  Parser parser(library, text);
  Netlist nl(&library);
  std::map<std::string, NetId> nets;
  std::vector<std::string> output_names;
  bool in_module = false;

  // Resolves a net name, creating a floating placeholder for forward
  // references. "clk" is the implicit clock and resolves to no net.
  auto net_for = [&](const std::string& name) -> NetId {
    auto it = nets.find(name);
    if (it != nets.end()) return it->second;
    const NetId id = nl.add_floating_net();
    nets.emplace(name, id);
    return id;
  };

  while (std::getline(parser.in, parser.line)) {
    ++parser.line_no;
    std::string s = strip(parser.line);
    if (s.empty() || s.rfind("//", 0) == 0) continue;
    if (s.rfind("module", 0) == 0) {
      in_module = true;
      continue;  // the port list repeats the declarations below
    }
    if (s == "endmodule") {
      in_module = false;
      continue;
    }
    if (!in_module) parser.fail("statement outside module");
    if (s.back() != ';') parser.fail("missing ';'");
    s.pop_back();

    auto handle_decl = [&](const std::string& keyword,
                           auto&& per_name) -> bool {
      if (s.rfind(keyword, 0) != 0) return false;
      for (const auto& name :
           split_names(s.substr(keyword.size()), parser)) {
        per_name(name);
      }
      return true;
    };

    if (handle_decl("input ", [&](const std::string& name) {
          if (name == "clk") return;
          if (nets.count(name) != 0) parser.fail("duplicate input " + name);
          nets.emplace(name, nl.add_primary_input());
        })) {
      continue;
    }
    if (handle_decl("output ", [&](const std::string& name) {
          output_names.push_back(name);
          net_for(name);
        })) {
      continue;
    }
    if (handle_decl("wire ", [&](const std::string& name) {
          net_for(name);
        })) {
      continue;
    }

    // Instance statement: CELL inst ( .PIN(net), ... )
    const std::size_t paren = s.find('(');
    if (paren == std::string::npos) parser.fail("expected instance");
    std::istringstream head(s.substr(0, paren));
    std::string cell_name, inst_name;
    head >> cell_name >> inst_name;
    if (cell_name.empty() || inst_name.empty()) {
      parser.fail("malformed instance header");
    }
    const auto cell_id = library.find_by_name(cell_name);
    if (!cell_id) parser.fail("unknown cell " + cell_name);
    const Cell& cell = library.cell(*cell_id);

    const std::size_t close = s.rfind(')');
    if (close == std::string::npos || close < paren) {
      parser.fail("missing ')'");
    }
    // Parse ".PIN(net)" pairs.
    std::map<std::string, std::string> conns;
    const std::string body = s.substr(paren + 1, close - paren - 1);
    std::size_t pos_c = 0;
    while ((pos_c = body.find('.', pos_c)) != std::string::npos) {
      const std::size_t open = body.find('(', pos_c);
      const std::size_t end = body.find(')', pos_c);
      if (open == std::string::npos || end == std::string::npos || end < open) {
        parser.fail("malformed connection in " + inst_name);
      }
      const std::string pin = strip(body.substr(pos_c + 1, open - pos_c - 1));
      const std::string net = strip(body.substr(open + 1, end - open - 1));
      if (!conns.emplace(pin, net).second) {
        parser.fail("duplicate pin " + pin + " on " + inst_name);
      }
      pos_c = end + 1;
    }

    // Assemble fanins in pin order.
    std::vector<NetId> fanins;
    for (std::size_t pin = 0; pin < cell.num_inputs; ++pin) {
      const std::string pin_name = input_pin_name(cell, pin);
      auto it = conns.find(pin_name);
      if (it == conns.end()) {
        parser.fail("instance " + inst_name + " missing pin " + pin_name);
      }
      fanins.push_back(net_for(it->second));
    }
    const std::string out_pin = output_pin_name(cell);
    auto out_it = conns.find(out_pin);
    if (out_it == conns.end()) {
      parser.fail("instance " + inst_name + " missing pin " + out_pin);
    }

    const InstanceId inst = nl.add_instance(*cell_id, fanins);
    const NetId actual_out = nl.instance(inst).fanout;
    // If the output name was forward-referenced (or declared), splice the
    // placeholder's connections onto the real fanout net.
    auto net_it = nets.find(out_it->second);
    if (net_it != nets.end()) {
      const NetId placeholder = net_it->second;
      if (nl.net(placeholder).driver != kInvalidId) {
        parser.fail("net " + out_it->second + " multiply driven");
      }
      const std::vector<SinkPin> sinks = nl.net(placeholder).sinks;
      for (const SinkPin& sink : sinks) {
        nl.reconnect_input(sink.instance, sink.pin, actual_out);
      }
      net_it->second = actual_out;
    } else {
      nets.emplace(out_it->second, actual_out);
    }
  }

  for (const auto& name : output_names) {
    auto it = nets.find(name);
    if (it == nets.end()) parser.fail("undeclared output " + name);
    nl.mark_primary_output(it->second);
  }
  nl.validate();
  return nl;
}

}  // namespace ppat::netlist
