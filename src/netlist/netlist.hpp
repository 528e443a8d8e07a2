// Gate-level netlist data model: instances of library cells connected by
// nets, with explicit primary inputs/outputs and a dedicated clock domain.
//
// Conventions (chosen to keep downstream algorithms simple and cache-friendly):
//   - Every cell has exactly one output pin; multi-output functions (e.g. a
//     full adder) are represented as two cells sharing inputs, which mirrors
//     how such macros decompose in simple standard-cell libraries.
//   - Nets are single-driver. A net's driver is either an instance or a
//     primary input.
//   - The clock is not modeled as a net in the graph; sequential instances
//     are flagged, and the clock tree's power is modeled in closed form
//     from their count (power::clock_tree_power_mw).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cell_library.hpp"

namespace ppat::netlist {

using InstanceId = std::uint32_t;
using NetId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

/// A sink connection: input pin `pin` of instance `instance`.
struct SinkPin {
  InstanceId instance = kInvalidId;
  std::uint8_t pin = 0;
  friend bool operator==(const SinkPin&, const SinkPin&) = default;
};

/// Single-driver net.
struct Net {
  /// Driving instance, or kInvalidId when driven by a primary input.
  InstanceId driver = kInvalidId;
  std::vector<SinkPin> sinks;
  bool is_primary_output = false;
};

/// A placed cell instance.
struct Instance {
  CellId cell = 0;
  /// Input nets by pin index; size == library cell's num_inputs.
  std::vector<NetId> fanins;
  /// The single output net.
  NetId fanout = kInvalidId;
};

/// Mutable gate-level netlist. Invariants (checked by validate()):
///   - pin counts match the library;
///   - every net has a consistent driver back-reference;
///   - no combinational cycles.
class Netlist {
 public:
  explicit Netlist(const CellLibrary* library) : library_(library) {}

  const CellLibrary& library() const { return *library_; }

  /// Creates a net driven by a primary input. Returns its id.
  NetId add_primary_input();

  /// Creates a driverless internal net. Used as a placeholder when building
  /// sequential feedback loops (create FFs on a floating D, then reconnect);
  /// the net is expected to end up with no connections.
  NetId add_floating_net();

  /// Marks a net as observed at a primary output.
  void mark_primary_output(NetId net);

  /// Creates an instance of `cell` reading `fanins`; allocates and returns
  /// the instance. Its fanout net is created automatically.
  InstanceId add_instance(CellId cell, const std::vector<NetId>& fanins);

  /// Re-points input pin `pin` of `instance` from its current net to `net`,
  /// updating both nets' sink lists. Used by buffering/DRV repair.
  void reconnect_input(InstanceId instance, std::uint8_t pin, NetId net);

  /// Replaces the cell of an instance with another cell of the same function
  /// arity (used by gate sizing).
  void resize_instance(InstanceId instance, CellId new_cell);

  std::size_t num_instances() const { return instances_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  const Instance& instance(InstanceId id) const { return instances_.at(id); }
  const Net& net(NetId id) const { return nets_.at(id); }
  const std::vector<Instance>& instances() const { return instances_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
  std::vector<NetId> primary_outputs() const;

  /// True if the instance is sequential (flip-flop).
  bool is_sequential(InstanceId id) const {
    return library_->cell(instances_[id].cell).sequential;
  }

  /// Topological order over combinational logic: sequential outputs and
  /// primary inputs are sources; sequential inputs and primary outputs are
  /// sinks. Returns instance ids such that every combinational instance
  /// appears after all its combinational fanin drivers.
  /// Throws std::runtime_error if a combinational cycle exists.
  std::vector<InstanceId> topological_order() const;

  /// Checks all structural invariants; throws std::runtime_error with a
  /// description on the first violation.
  void validate() const;

  /// Total cell area in um^2.
  double total_cell_area() const;

  /// Counts of sequential / combinational instances.
  std::size_t num_sequential() const;
  std::size_t num_combinational() const {
    return num_instances() - num_sequential();
  }

 private:
  const CellLibrary* library_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<NetId> primary_inputs_;
};

/// Summary statistics used in reports and tests.
struct NetlistStats {
  std::size_t instances = 0;
  std::size_t nets = 0;
  std::size_t sequential = 0;
  std::size_t primary_inputs = 0;
  std::size_t primary_outputs = 0;
  double total_area_um2 = 0.0;
  double avg_fanout = 0.0;
  std::size_t max_fanout = 0;
  std::size_t max_logic_depth = 0;  ///< longest combinational path (gates)
};

NetlistStats compute_stats(const Netlist& netlist);

}  // namespace ppat::netlist
