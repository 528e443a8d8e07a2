#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ppat::sta {

using netlist::InstanceId;
using netlist::Netlist;
using netlist::NetId;

WireParasitics extract_parasitics(const Netlist& nl,
                                  const std::vector<double>& net_hpwl_um,
                                  double rc_factor) {
  assert(net_hpwl_um.size() == nl.num_nets());
  WireParasitics p;
  p.res_kohm.resize(nl.num_nets());
  p.cap_ff.resize(nl.num_nets());
  for (NetId i = 0; i < nl.num_nets(); ++i) {
    const double len = net_hpwl_um[i];
    p.res_kohm[i] = kWireResKohmPerUm * len * rc_factor;
    p.cap_ff[i] = kWireCapFfPerUm * len * rc_factor;
  }
  return p;
}

double net_load_ff(const Netlist& nl, const WireParasitics& parasitics,
                   NetId net) {
  double load = parasitics.cap_ff[net];
  for (const auto& sink : nl.net(net).sinks) {
    load += nl.library().cell(nl.instance(sink.instance).cell).input_cap_ff;
  }
  return load;
}

TimingReport run_sta(const Netlist& nl, const WireParasitics& parasitics,
                     const TimingOptions& opt) {
  TimingReport r;
  const std::size_t nets = nl.num_nets();
  r.arrival_ns.assign(nets, 0.0);
  r.slew_ns.assign(nets, opt.min_slew_ns);
  r.load_ff.assign(nets, 0.0);
  for (NetId i = 0; i < nets; ++i) {
    r.load_ff[i] = net_load_ff(nl, parasitics, i);
  }

  // Launch points: primary inputs and FF outputs.
  for (NetId pi : nl.primary_inputs()) {
    r.arrival_ns[pi] = opt.input_delay_ns;
    r.slew_ns[pi] = opt.min_slew_ns * 2.0;
  }
  for (InstanceId i = 0; i < nl.num_instances(); ++i) {
    if (!nl.is_sequential(i)) continue;
    const NetId q = nl.instance(i).fanout;
    const auto& cell = nl.library().cell(nl.instance(i).cell);
    // Clock-to-Q pushed out by the FF's own drive on its load.
    const double delay =
        opt.clk_to_q_ns + cell.drive_res_kohm * r.load_ff[q] * 1e-3;
    r.arrival_ns[q] = delay;
    r.slew_ns[q] = std::max(
        opt.min_slew_ns, 2.0 * cell.drive_res_kohm * r.load_ff[q] * 1e-3);
  }

  // Forward propagation in topological order over combinational cells.
  // Arrival on a net = arrival at driver's worst input + gate delay + the
  // lumped wire delay (applied once per net: 0.5 * R_net * C_net plus the
  // driver-resistance term is already in gate delay; per-sink pin RC adds
  // R_net * C_pin, approximated by using the full net R with the average pin
  // cap — adequate at this model's fidelity).
  for (InstanceId i : nl.topological_order()) {
    const auto& inst = nl.instance(i);
    const auto& cell = nl.library().cell(inst.cell);
    double worst_in = 0.0;
    double worst_slew = opt.min_slew_ns;
    for (NetId fanin : inst.fanins) {
      // Wire delay from the fanin net's driver to this pin.
      const double wire_delay =
          (0.5 * parasitics.res_kohm[fanin] * parasitics.cap_ff[fanin] +
           parasitics.res_kohm[fanin] * cell.input_cap_ff) *
          1e-3;
      const double arr = r.arrival_ns[fanin] + wire_delay;
      if (arr > worst_in) worst_in = arr;
      worst_slew = std::max(worst_slew, r.slew_ns[fanin]);
    }
    const NetId out = inst.fanout;
    const double load = r.load_ff[out];
    // Gate delay: intrinsic + RC + slew pushout (input slew degrades delay).
    const double gate_delay = cell.intrinsic_delay_ns +
                              cell.drive_res_kohm * load * 1e-3 +
                              0.35 * worst_slew;
    r.arrival_ns[out] = worst_in + gate_delay;
    // Output slew: driven by this cell's strength on its load, with partial
    // propagation of the input slew through the gate.
    r.slew_ns[out] =
        std::max(opt.min_slew_ns,
                 2.0 * cell.drive_res_kohm * load * 1e-3 + 0.25 * worst_slew);
  }

  // Endpoint checks.
  const double required_ff =
      opt.clock_period_ns - opt.setup_ns - opt.clock_uncertainty_ns;
  const double required_po = opt.clock_period_ns - opt.output_margin_ns;
  double wns = 1e30;
  auto check_endpoint = [&](double arrival, double required) {
    ++r.endpoints;
    r.critical_delay_ns = std::max(r.critical_delay_ns, arrival);
    const double slack = required - arrival;
    wns = std::min(wns, slack);
    if (slack < 0.0) {
      ++r.violating_endpoints;
      r.tns_ns += slack;
    }
  };
  for (InstanceId i = 0; i < nl.num_instances(); ++i) {
    if (!nl.is_sequential(i)) continue;
    const auto& inst = nl.instance(i);
    const auto& cell = nl.library().cell(inst.cell);
    for (NetId fanin : inst.fanins) {
      const double wire_delay =
          (0.5 * parasitics.res_kohm[fanin] * parasitics.cap_ff[fanin] +
           parasitics.res_kohm[fanin] * cell.input_cap_ff) *
          1e-3;
      check_endpoint(r.arrival_ns[fanin] + wire_delay, required_ff);
    }
  }
  for (NetId po : nl.primary_outputs()) {
    check_endpoint(r.arrival_ns[po], required_po);
  }
  r.wns_ns = (r.endpoints == 0) ? 0.0 : wns;
  return r;
}

}  // namespace ppat::sta
