//! Diagnostic probe: per-cycle ROBDD growth of the symbolic simulation of a
//! design pair under the paper's simulation plan, one table per machine.
//! Useful when tuning the variable order or the netlists; not part of the
//! evaluation itself.
//!
//! Run with `cargo run --release -p pv-bench --bin probe -- <vsm|alpha0>`:
//! `vsm` is the reduced two-register VSM pair under the Section 6.2 plan,
//! `alpha0` the condensed Alpha0 pair under the Section 6.3 plan. The rows
//! come from [`pv_bench::simulation_rows`], the loop behind
//! [`pv_bench::symbolic_simulation_cost`].

use std::process::ExitCode;

use pipeverify_core::{MachineSpec, SimulationPlan, SimulationSchedule};
use pv_bench::{simulation_rows, Side};
use pv_isa::alpha0::Alpha0Config;
use pv_netlist::Netlist;
use pv_proc::alpha0::{self, PipelineConfig};
use pv_proc::vsm::{self, VsmConfig};

fn main() -> ExitCode {
    let design = std::env::args().nth(1).unwrap_or_default();
    let (spec, plan, pipelined, unpipelined): (MachineSpec, SimulationPlan, Netlist, Netlist) =
        match design.as_str() {
            "vsm" => (
                MachineSpec::vsm_reduced(2),
                SimulationPlan::paper_vsm(),
                vsm::pipelined(VsmConfig::reduced(2)).expect("build"),
                vsm::unpipelined(VsmConfig::reduced(2)).expect("build"),
            ),
            "alpha0" => {
                let isa = Alpha0Config::condensed();
                (
                    MachineSpec::alpha0_condensed(isa),
                    SimulationPlan::paper_alpha0(),
                    alpha0::pipelined(PipelineConfig::condensed(isa)).expect("build"),
                    alpha0::unpipelined(PipelineConfig::condensed(isa)).expect("build"),
                )
            }
            _ => {
                eprintln!("usage: probe <vsm|alpha0>");
                return ExitCode::FAILURE;
            }
        };
    let schedule = SimulationSchedule::expand(&spec, &plan);
    for (netlist, side, inputs) in [
        (&pipelined, Side::Pipelined, &schedule.pipelined_inputs),
        (
            &unpipelined,
            Side::Unpipelined,
            &schedule.unpipelined_inputs,
        ),
    ] {
        println!("{design} {side:?}: {} cycles", inputs.len());
        let rows = simulation_rows(&spec, netlist, side, &plan);
        for (cycle, (row, input)) in rows.iter().zip(inputs).enumerate() {
            println!(
                "cycle {cycle:2} ({input:?}): live = {:8}, allocated = {:9}, state nodes = {:8}",
                row.live, row.allocated, row.state_nodes,
            );
        }
    }
    ExitCode::SUCCESS
}
