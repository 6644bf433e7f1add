//! Shared helpers for the benchmark harness that regenerates the evaluation
//! of Chapter 6 (see `benches/`). The helpers re-create, on top of the public
//! API, the per-machine symbolic-simulation runs whose wall-clock times the
//! thesis reports separately for the unpipelined and the pipelined machine.

use std::collections::BTreeMap;

use pipeverify_core::{CycleInput, MachineSpec, SimulationPlan, SimulationSchedule, Slot};
use pv_bdd::{Bdd, BddManager, BddVec, TransitionSystem, Var};
use pv_netlist::{Netlist, SymbolicSim};

pub mod gate;
pub mod matrix;

/// An `n`-bit counter with an enable input, as a partitioned transition
/// system with interleaved present/next state variables — the machine family
/// the `bdd_ops` reachability benchmark and the `perf_smoke` gate sweep.
pub fn counter_system(m: &mut BddManager, n: usize) -> TransitionSystem {
    let enable = m.new_var();
    let mut present = Vec::with_capacity(n);
    let mut next = Vec::with_capacity(n);
    for _ in 0..n {
        present.push(m.new_var());
        next.push(m.new_var());
    }
    let state = BddVec::from_vars(m, &present);
    let en = m.var(enable);
    let inc = state.inc(m);
    let next_val = BddVec::mux(m, en, &inc, &state);
    let partitions: Vec<Bdd> = next
        .iter()
        .enumerate()
        .map(|(i, &nv)| {
            let v = m.var(nv);
            m.xnor(v, next_val.bit(i))
        })
        .collect();
    let init_cube: Vec<(Var, bool)> = present.iter().map(|&v| (v, false)).collect();
    let init = m.cube(&init_cube);
    TransitionSystem::from_partitions(m, vec![enable], present, next, partitions, init)
}

/// Which side of a design pair to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The pipelined implementation.
    Pipelined,
    /// The unpipelined specification.
    Unpipelined,
}

/// The ROBDD size after one simulated cycle of [`simulation_rows`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CycleRow {
    /// Nodes created so far, including reclaimed ones (monotone).
    pub allocated: usize,
    /// Nodes in the unique table after the cycle's collection check.
    pub live: usize,
    /// Sum of the per-bit node counts of the state registers.
    pub state_nodes: usize,
}

/// Symbolically simulates one machine of a design pair over the cycles the
/// verification methodology prescribes for `plan`, and returns one
/// [`CycleRow`] per simulated cycle.
///
/// The state is cofactored by the instruction-class constraint after every
/// cycle, exactly as the verifier does (Section 5.2's cofactoring step), so
/// the measured cost is the cost of the method, not of an unconstrained
/// simulation.
pub fn simulation_rows(
    spec: &MachineSpec,
    netlist: &Netlist,
    side: Side,
    plan: &SimulationPlan,
) -> Vec<CycleRow> {
    let schedule = SimulationSchedule::expand(spec, plan);
    let cycles = match side {
        Side::Pipelined => &schedule.pipelined_inputs,
        Side::Unpipelined => &schedule.unpipelined_inputs,
    };
    let mut manager = BddManager::new();
    let slot_vars: Vec<Vec<Var>> = schedule
        .slot_classes
        .iter()
        .map(|_| manager.new_vars(spec.instr_width))
        .collect();
    let mut assumption = Bdd::TRUE;
    for (vars, class) in slot_vars.iter().zip(&schedule.slot_classes) {
        let constraint = match class {
            Slot::Normal => (spec.normal_class)(&mut manager, vars),
            Slot::ControlTransfer => (spec.control_class)(&mut manager, vars),
            Slot::Interrupt | Slot::Reset => Bdd::TRUE,
        };
        assumption = manager.and(assumption, constraint);
    }
    // The assumption survives every per-cycle collection below; the slot
    // words are rebuilt from their variables each cycle, so they need no
    // pinning.
    manager.add_root(assumption);
    let sym = SymbolicSim::new(netlist);
    let mut state = sym.initial_state(&manager);
    let mut rows = Vec::with_capacity(cycles.len());
    for input in cycles {
        let (instr, reset) = match input {
            CycleInput::Reset => (BddVec::constant(&manager, 0, spec.instr_width), 1),
            CycleInput::Slot(j) => (BddVec::from_vars(&mut manager, &slot_vars[*j]), 0),
            CycleInput::DontCare => (BddVec::constant(&manager, 0, spec.instr_width), 0),
        };
        let mut inputs = BTreeMap::new();
        inputs.insert(spec.instr_port.clone(), instr);
        inputs.insert(
            spec.reset_port.clone(),
            BddVec::constant(&manager, reset, 1),
        );
        if let Some(irq) = &spec.irq_port {
            if netlist.input_width(irq).is_some() {
                inputs.insert(irq.clone(), BddVec::constant(&manager, 0, 1));
            }
        }
        let (mut next, _outputs) = sym.step(&mut manager, &state, &inputs);
        if !assumption.is_true() {
            for bit in &mut next.regs {
                *bit = manager.constrain(*bit, assumption);
            }
        }
        state = next;
        manager.maybe_gc(&state.regs);
        let stats = manager.stats();
        rows.push(CycleRow {
            allocated: stats.allocated,
            live: stats.nodes,
            state_nodes: state.regs.iter().map(|&b| manager.node_count(b)).sum(),
        });
    }
    rows
}

/// The number of ROBDD nodes [`simulation_rows`] creates over the whole run:
/// the cost metric (besides wall-clock time) that the thesis's experiments
/// are limited by.
pub fn symbolic_simulation_cost(
    spec: &MachineSpec,
    netlist: &Netlist,
    side: Side,
    plan: &SimulationPlan,
) -> usize {
    simulation_rows(spec, netlist, side, plan)
        .last()
        .map_or(0, |row| row.allocated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_proc::vsm::{self, VsmConfig};

    #[test]
    fn pipelined_simulation_creates_more_nodes_than_unpipelined() {
        let spec = MachineSpec::vsm_reduced(2);
        let plan = SimulationPlan::paper_vsm();
        let p = vsm::pipelined(VsmConfig::reduced(2)).expect("build");
        let u = vsm::unpipelined(VsmConfig::reduced(2)).expect("build");
        let pc = symbolic_simulation_cost(&spec, &p, Side::Pipelined, &plan);
        let uc = symbolic_simulation_cost(&spec, &u, Side::Unpipelined, &plan);
        // The thesis's pipelined-vs-unpipelined comparison is a wall-clock
        // claim (292 s vs 175 s); node totals depend on how much per-cycle
        // garbage each run accumulates, so here we only check that both runs
        // are non-trivial and bounded.
        assert!(pc > 1_000 && uc > 1_000);
        assert!(pc < 10_000_000 && uc < 10_000_000);
    }

    #[test]
    fn simulation_rows_follow_the_schedule() {
        let spec = MachineSpec::vsm_reduced(2);
        let plan = SimulationPlan::paper_vsm();
        let schedule = SimulationSchedule::expand(&spec, &plan);
        let pairs = [
            (
                vsm::pipelined(VsmConfig::reduced(2)).expect("build"),
                Side::Pipelined,
                schedule.pipelined_inputs.len(),
            ),
            (
                vsm::unpipelined(VsmConfig::reduced(2)).expect("build"),
                Side::Unpipelined,
                schedule.unpipelined_inputs.len(),
            ),
        ];
        for (netlist, side, cycles) in pairs {
            let rows = simulation_rows(&spec, &netlist, side, &plan);
            assert_eq!(rows.len(), cycles, "{side:?}: one row per scheduled cycle");
            assert!(
                rows.windows(2).all(|w| w[0].allocated <= w[1].allocated),
                "{side:?}: allocated never decreases"
            );
            assert_eq!(
                symbolic_simulation_cost(&spec, &netlist, side, &plan),
                rows.last().expect("non-empty schedule").allocated,
                "{side:?}: the cost is the last row"
            );
        }
    }
}
