//! A replay of one `Verifier::check_plan` built only from the public calls
//! of `pv-bdd`, `pv-netlist` and `pipeverify-core`, with a span around each
//! layer's call. It mirrors the verifier's default path step for step —
//! FORCE slot-bit order, forced-bit `restrict`, fresh don't-care words,
//! roots, `maybe_reorder`/`maybe_gc` per cycle, the final comparison — so
//! its work counts must equal the verifier's own [`PlanReport`] exactly;
//! [`PlanReplay::identity`] is that gate.

use std::collections::BTreeMap;

use pipeverify_core::{
    CycleInput, MachineSpec, PlanReport, SimulationPlan, SimulationSchedule, Slot,
};
use pv_bdd::{Bdd, BddManager, BddVec, Var};
use pv_netlist::{Netlist, SymbolicSim};

use crate::spans::Tracer;

/// What one replayed plan did, read from its manager's statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanReplay {
    /// Nodes allocated (monotone across collections).
    pub allocated: usize,
    /// Peak live nodes.
    pub peak_live: usize,
    /// ITE computed-table hits.
    pub ite_hits: usize,
    /// ITE computed-table misses.
    pub ite_misses: usize,
    /// Unique-table grow events.
    pub unique_grows: usize,
    /// Garbage collections that ran.
    pub gc_runs: usize,
    /// Nodes those collections reclaimed.
    pub gc_collected: usize,
    /// `true` when no compared sample differed.
    pub equivalent: bool,
}

impl PlanReplay {
    /// Checks that this replay did exactly the verifier's work on the same
    /// plan: allocated nodes, peak live nodes and ITE misses must match
    /// `report`, and so must the verdict.
    ///
    /// # Errors
    /// Names every figure that differs.
    pub fn identity(&self, report: &PlanReport) -> Result<(), String> {
        let misses = report.metrics.get("bdd.ite.cache_miss").copied();
        let mut diffs = Vec::new();
        if self.allocated != report.bdd_nodes {
            diffs.push(format!(
                "allocated {} vs {}",
                self.allocated, report.bdd_nodes
            ));
        }
        if self.peak_live != report.bdd_peak_live {
            diffs.push(format!(
                "peak live {} vs {}",
                self.peak_live, report.bdd_peak_live
            ));
        }
        if misses != Some(self.ite_misses as u64) {
            diffs.push(format!("ITE misses {} vs {misses:?}", self.ite_misses));
        }
        if self.equivalent != report.equivalent() {
            diffs.push(format!(
                "verdict {} vs {}",
                self.equivalent,
                report.equivalent()
            ));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "plan #{} replay differs from the verifier: {}",
                report.plan_index,
                diffs.join(", ")
            ))
        }
    }
}

/// Replays the check of `plan` on a fresh manager, recording spans into
/// `tracer`: `plan` around everything, with children `netlist.force_order`,
/// `plan.setup`, one `sim.cycle` per simulated cycle (children
/// `netlist.step`, `bdd.constrain`, `bdd.sample_constrain`, `bdd.gc`) and
/// `plan.compare`.
pub fn replay_plan(
    spec: &MachineSpec,
    pipelined: &Netlist,
    unpipelined: &Netlist,
    plan: &SimulationPlan,
    tracer: &mut Tracer,
) -> PlanReplay {
    tracer.enter("plan");
    let schedule = SimulationSchedule::expand(spec, plan);
    let mut manager = BddManager::new();
    let mut gc = GcTally::default();

    let instr_order = tracer.time("netlist.force_order", || {
        pv_netlist::order::force_order(pipelined)
            .port_orders
            .remove(&spec.instr_port)
            .filter(|order| order.len() == spec.instr_width)
    });

    tracer.enter("plan.setup");
    let slot_vars: Vec<Vec<Var>> = schedule
        .slot_classes
        .iter()
        .map(|_| {
            let alloc = manager.new_vars(spec.instr_width);
            manager.group_vars(&alloc);
            match &instr_order {
                Some(order) => {
                    let mut vars = alloc.clone();
                    for (k, &bit) in order.iter().enumerate() {
                        vars[bit] = alloc[k];
                    }
                    vars
                }
                None => alloc,
            }
        })
        .collect();
    let mut assumption = Bdd::TRUE;
    let mut slot_words: Vec<BddVec> = Vec::with_capacity(slot_vars.len());
    for (vars, class) in slot_vars.iter().zip(&schedule.slot_classes) {
        let constraint = match class {
            Slot::Normal => (spec.normal_class)(&mut manager, vars),
            Slot::ControlTransfer => (spec.control_class)(&mut manager, vars),
            Slot::Interrupt | Slot::Reset => Bdd::TRUE,
        };
        assumption = manager.and(assumption, constraint);
        let bits = vars
            .iter()
            .map(|&v| {
                // Both cofactors are always built, as the verifier does:
                // each allocates nodes.
                let forced_true = manager.restrict(constraint, v, false).is_false();
                let forced_false = manager.restrict(constraint, v, true).is_false();
                if forced_true {
                    manager.constant(true)
                } else if forced_false {
                    manager.constant(false)
                } else {
                    manager.var(v)
                }
            })
            .collect();
        slot_words.push(BddVec::from_bits(bits));
    }
    manager.add_root(assumption);
    for word in &slot_words {
        for &bit in word.bits() {
            manager.add_root(bit);
        }
    }
    tracer.exit();

    let machine = Machine {
        spec,
        slot_words: &slot_words,
        assumption,
    };
    let pipelined_samples = machine.simulate(
        &mut manager,
        tracer,
        &mut gc,
        pipelined,
        &schedule.pipelined_inputs,
        &schedule.pipelined_irq_cycles,
        &schedule
            .samples
            .iter()
            .map(|&(j, pc, _)| (j, pc))
            .collect::<Vec<_>>(),
        true,
    );
    let unpipelined_samples = machine.simulate(
        &mut manager,
        tracer,
        &mut gc,
        unpipelined,
        &schedule.unpipelined_inputs,
        &schedule.unpipelined_irq_cycles,
        &schedule
            .samples
            .iter()
            .map(|&(j, _, uc)| (j, uc))
            .collect::<Vec<_>>(),
        false,
    );

    tracer.enter("plan.compare");
    let mut equivalent = true;
    'outer: for &(slot, _, _) in &schedule.samples {
        for name in &spec.observed {
            let p = &pipelined_samples[&slot][name];
            let u = &unpipelined_samples[&slot][name];
            let equal = p.eq(&mut manager, u);
            let differs = manager.not(equal);
            if !manager.and(assumption, differs).is_false() {
                equivalent = false;
                break 'outer;
            }
        }
    }
    tracer.exit();

    let stats = manager.stats();
    tracer.exit();
    PlanReplay {
        allocated: stats.allocated,
        peak_live: stats.peak_live,
        ite_hits: stats.ite_hits,
        ite_misses: stats.ite_misses,
        unique_grows: stats.unique_grows,
        gc_runs: gc.runs,
        gc_collected: gc.collected,
        equivalent,
    }
}

#[derive(Default)]
struct GcTally {
    runs: usize,
    collected: usize,
}

type Samples = BTreeMap<usize, BTreeMap<String, BddVec>>;

/// The plan-wide inputs both machines' simulations share.
struct Machine<'a> {
    spec: &'a MachineSpec,
    slot_words: &'a [BddVec],
    assumption: Bdd,
}

impl Machine<'_> {
    /// One machine's symbolic simulation over the expanded cycle plan,
    /// sampling the observed words at `sample_cycles`.
    #[allow(clippy::too_many_arguments)]
    fn simulate(
        &self,
        manager: &mut BddManager,
        tracer: &mut Tracer,
        gc: &mut GcTally,
        netlist: &Netlist,
        cycle_inputs: &[CycleInput],
        irq_cycles: &[usize],
        sample_cycles: &[(usize, usize)],
        is_implementation: bool,
    ) -> Samples {
        let spec = self.spec;
        let assumption = self.assumption;
        let sym = SymbolicSim::new(netlist);
        let mut state = sym.initial_state(manager);
        let mut samples = Samples::new();
        let has_port = |port: &Option<String>| {
            port.as_ref()
                .is_some_and(|p| netlist.input_width(p).is_some())
        };
        let has_irq = has_port(&spec.irq_port);
        let has_stall = has_port(&spec.stall_port);
        let last_slot_cycle = cycle_inputs
            .iter()
            .rposition(|i| matches!(i, CycleInput::Slot(_)))
            .unwrap_or(0);
        for (cycle, input) in cycle_inputs.iter().enumerate() {
            tracer.enter("sim.cycle");
            let (instr, reset) = match input {
                CycleInput::Reset => (BddVec::constant(manager, 0, spec.instr_width), true),
                CycleInput::Slot(j) => (self.slot_words[*j].clone(), false),
                CycleInput::DontCare if is_implementation && cycle <= last_slot_cycle => {
                    let vars = manager.new_vars(spec.instr_width);
                    manager.group_vars(&vars);
                    (BddVec::from_vars(manager, &vars), false)
                }
                CycleInput::DontCare => (BddVec::constant(manager, 0, spec.instr_width), false),
            };
            let mut inputs = BTreeMap::new();
            inputs.insert(spec.instr_port.clone(), instr);
            inputs.insert(
                spec.reset_port.clone(),
                BddVec::constant(manager, u64::from(reset), 1),
            );
            if has_irq {
                let irq = irq_cycles.contains(&cycle);
                inputs.insert(
                    spec.irq_port.clone().expect("checked above"),
                    BddVec::constant(manager, u64::from(irq), 1),
                );
            }
            if has_stall {
                inputs.insert(
                    spec.stall_port.clone().expect("checked above"),
                    BddVec::constant(manager, 0, 1),
                );
            }
            let (mut next_state, outputs) =
                tracer.time("netlist.step", || sym.step(manager, &state, &inputs));
            if !assumption.is_true() {
                tracer.time("bdd.constrain", || {
                    for bit in &mut next_state.regs {
                        *bit = manager.constrain(*bit, assumption);
                    }
                });
            }
            for &(slot, sample_cycle) in sample_cycles {
                if sample_cycle == cycle {
                    tracer.enter("bdd.sample_constrain");
                    let observed: BTreeMap<String, BddVec> = spec
                        .observed
                        .iter()
                        .map(|name| {
                            let word = &outputs[name];
                            let bits = (0..word.width())
                                .map(|i| manager.constrain(word.bit(i), assumption))
                                .collect();
                            (name.clone(), BddVec::from_bits(bits))
                        })
                        .collect();
                    for word in observed.values() {
                        for &bit in word.bits() {
                            manager.add_root(bit);
                        }
                    }
                    samples.insert(slot, observed);
                    tracer.exit();
                }
            }
            state = next_state;
            tracer.time("bdd.gc", || {
                manager.maybe_reorder(&state.regs);
                if let Some(stats) = manager.maybe_gc(&state.regs) {
                    gc.runs += 1;
                    gc.collected += stats.collected;
                }
            });
            tracer.exit();
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeverify_core::Verifier;
    use pv_proc::vsm::{self, VsmConfig};
    use std::time::Instant;

    #[test]
    fn replay_reproduces_the_verifiers_work_on_a_vsm_plan() {
        let pipelined = vsm::pipelined(VsmConfig::reduced(2)).unwrap();
        let unpipelined = vsm::unpipelined(VsmConfig::reduced(2)).unwrap();
        let spec = MachineSpec::vsm_reduced(2);
        let verifier = Verifier::new(spec.clone()).with_threads(1);
        let plan = SimulationPlan::with_control_at(spec.k, 1);
        let report = verifier
            .check_plan(&pipelined, &unpipelined, &plan)
            .unwrap();
        let mut tracer = Tracer::new(Instant::now());
        let replay = replay_plan(&spec, &pipelined, &unpipelined, &plan, &mut tracer);
        replay.identity(&report).unwrap();
        assert!(replay.equivalent);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for name in [
            "plan",
            "netlist.force_order",
            "netlist.step",
            "bdd.constrain",
            "bdd.gc",
        ] {
            assert!(names.contains(&name), "no `{name}` span");
        }
        // A replay that did different work is caught.
        let mismatched = PlanReplay {
            allocated: replay.allocated + 1,
            ..replay
        };
        assert!(mismatched.identity(&report).is_err());
    }
}
