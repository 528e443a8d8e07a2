// Static timing analysis over a placed netlist.
//
// Substitutes for Innovus' timer in the pdsim flow. The delay model is a
// deliberately small but mechanistically honest subset of an NLDM flow:
//   - wire parasitics are lumped per net from placement HPWL
//     (R = r_per_um * L * rc_factor, C = c_per_um * L * rc_factor), where
//     rc_factor is the paper's `place_rcfactor` tool parameter;
//   - gate delay = intrinsic + drive_resistance * load + slew pushout;
//   - output slew grows with drive resistance * load;
//   - wire delay to a sink uses the Elmore-style 0.5*R_net*C_net + R_net*C_pin;
//   - paths start at primary inputs / FF clock-to-Q and end at primary
//     outputs / FF D pins; setup, clock uncertainty, and I/O delays are
//     constants of the model.
// Units: ns, kOhm, fF (1 kOhm * 1 fF = 1e-3 ns).
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "place/placer.hpp"

namespace ppat::sta {

struct TimingOptions {
  double clock_period_ns = 1.0;
  double clock_uncertainty_ns = 0.05;
  double rc_factor = 1.0;          ///< wire RC scaling (place_rcfactor)
  double input_delay_ns = 0.05;    ///< arrival at primary inputs
  double output_margin_ns = 0.05;  ///< required-time margin at outputs
  double setup_ns = 0.030;         ///< FF setup time
  double clk_to_q_ns = 0.040;      ///< FF clock-to-Q delay
  double min_slew_ns = 0.008;      ///< floor on propagated slew
};

/// Lumped per-net parasitics.
struct WireParasitics {
  std::vector<double> res_kohm;  ///< per-net wire resistance
  std::vector<double> cap_ff;    ///< per-net wire capacitance
};

/// Per-um wire constants (before rc_factor scaling), matched to the die
/// scale produced by the cell library (see cell_library.cpp).
inline constexpr double kWireResKohmPerUm = 0.0040;
inline constexpr double kWireCapFfPerUm = 0.35;

/// Extracts parasitics from placement HPWL. `rc_factor` scales both R and C.
WireParasitics extract_parasitics(const netlist::Netlist& netlist,
                                  const std::vector<double>& net_hpwl_um,
                                  double rc_factor);

/// Results of one timing run.
struct TimingReport {
  double wns_ns = 0.0;             ///< worst negative slack (<= 0 when failing)
  double tns_ns = 0.0;             ///< total negative slack (sum of violations)
  double critical_delay_ns = 0.0;  ///< worst endpoint data-path delay
  std::size_t violating_endpoints = 0;
  std::size_t endpoints = 0;

  // Per-net signal state (indexed by NetId).
  std::vector<double> arrival_ns;  ///< latest arrival at the net
  std::vector<double> slew_ns;     ///< slew at the net (driver output)
  std::vector<double> load_ff;     ///< total load seen by the net's driver
};

/// Runs one STA pass. `net_hpwl_um` and `parasitics` must be sized to the
/// netlist's current net count.
TimingReport run_sta(const netlist::Netlist& netlist,
                     const WireParasitics& parasitics,
                     const TimingOptions& options);

/// Total load (wire cap + sink pin caps) seen by the driver of `net`.
double net_load_ff(const netlist::Netlist& netlist,
                   const WireParasitics& parasitics, netlist::NetId net);

}  // namespace ppat::sta
