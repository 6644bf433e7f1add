//! Round-trip properties of the report JSON codec (`pipeverify_core::report_io`):
//! encode → render → parse → decode must be **field-identical** for arbitrary
//! reports, including full-range `u64` payloads and nested counterexamples.
//!
//! `FlowReport`/`PlanReport` deliberately do not implement `PartialEq` (they
//! carry wall-clock durations), so field identity is checked the way the
//! cache does: the deterministic JSON encoding of the decoded report must
//! equal the original encoding byte-for-byte — plus spot checks on the fields
//! where a codec bug could hide behind re-encoding symmetry.

use std::collections::BTreeMap;
use std::time::Duration;

use pipeverify_core::json::Json;
use pipeverify_core::report_io::{
    flow_report_from_json, flow_report_to_json, plan_report_from_json, plan_report_to_json,
};
use pipeverify_core::{
    Counterexample, FlowCounterexample, FlowErrorKind, FlowReport, PlanReport, ReplayRecipe,
    SimulationPlan, UnitFailure,
};
use proptest::prelude::*;

const PORTS: &[&str] = &["instr", "reset", "irq", "stall"];
const VARS: &[&str] = &["regfile", "pc", "acc"];

fn arb_rows() -> impl Strategy<Value = Vec<Vec<(String, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            ((0..PORTS.len()), any::<u64>()).prop_map(|(p, v)| (PORTS[p].to_owned(), v)),
            0..3,
        ),
        0..4,
    )
}

fn arb_recipe() -> impl Strategy<Value = ReplayRecipe> {
    (
        arb_rows(),
        arb_rows(),
        (0usize..8),
        (0usize..8),
        (0..VARS.len()),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(pi, ui, pc, uc, var, pv, uv)| ReplayRecipe {
            pipelined_inputs: pi,
            unpipelined_inputs: ui,
            pipelined_sample_cycle: pc,
            unpipelined_sample_cycle: uc,
            variable: VARS[var].to_owned(),
            pipelined_value: pv,
            unpipelined_value: uv,
        })
}

const METRIC_NAMES: &[&str] = &[
    "bdd.ite.cache_hit",
    "bdd.ite.cache_miss",
    "bdd.constrain.cache_hit",
    "bdd.constrain.cache_miss",
    "bdd.unique.grow",
];

fn arb_metrics() -> impl Strategy<Value = BTreeMap<String, u64>> {
    proptest::collection::vec(((0..METRIC_NAMES.len()), any::<u64>()), 0..6).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(m, v)| (METRIC_NAMES[m].to_owned(), v))
            .collect()
    })
}

fn arb_unit_failures() -> impl Strategy<Value = Vec<UnitFailure>> {
    let kinds = [
        FlowErrorKind::DeadlineExceeded,
        FlowErrorKind::NodeBudgetExceeded,
        FlowErrorKind::Cancelled,
        FlowErrorKind::WorkerPanicked,
    ];
    proptest::collection::vec(((0usize..16), (0..kinds.len())), 0..4).prop_map(move |entries| {
        entries
            .into_iter()
            .map(|(unit, k)| UnitFailure {
                unit,
                kind: kinds[k],
                message: "budget exceeded: \"node\" limit".to_owned(),
            })
            .collect()
    })
}

fn arb_plan() -> impl Strategy<Value = SimulationPlan> {
    proptest::collection::vec(0..4usize, 1..6).prop_map(|tokens| {
        let text: Vec<&str> = tokens.iter().map(|&t| ["r", "0", "1", "i"][t]).collect();
        text.join("\n").parse().expect("valid plan tokens")
    })
}

fn arb_flow_report() -> impl Strategy<Value = FlowReport> {
    (
        (
            any::<bool>(),
            proptest::option::of((0usize..16, arb_recipe())),
            (0usize..32),
            any::<bool>(),
        ),
        (
            (0usize..1000),
            (0usize..1_000_000),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..4),
            (1usize..9),
            arb_metrics(),
            arb_unit_failures(),
        ),
    )
        .prop_map(
            |(
                (beta, cex, units, equivalent),
                (checks, space, wall, walls, threads, metrics, unit_failures),
            )| {
                FlowReport {
                    flow: if beta { "beta-relation" } else { "flushing" },
                    design: "proptest-design".to_owned(),
                    equivalent,
                    counterexample: cex.map(|(unit, replay)| FlowCounterexample {
                        unit,
                        description: "observed `pc` mismatch\nwith a \"quoted\" detail".to_owned(),
                        replay: if beta { Some(replay) } else { None },
                    }),
                    units_checked: units,
                    unit_label: if beta { "plan" } else { "case-split block" },
                    checks,
                    space,
                    space_label: if beta { "BDD nodes" } else { "EUF terms" },
                    threads_used: threads,
                    wall_time: Duration::from_nanos(wall),
                    unit_walls: walls.into_iter().map(Duration::from_nanos).collect(),
                    metrics,
                    unit_failures,
                }
            },
        )
}

fn arb_plan_report() -> impl Strategy<Value = PlanReport> {
    (
        (
            arb_plan(),
            (0usize..32),
            proptest::collection::vec(any::<usize>(), 6),
        ),
        proptest::option::of((
            arb_plan(),
            proptest::collection::vec(any::<u64>(), 1..5),
            arb_recipe(),
        )),
        (any::<u64>(), arb_metrics()),
    )
        .prop_map(
            |((plan, index, stats), cex, (wall_ns, metrics))| PlanReport {
                plan,
                plan_index: index,
                samples_compared: stats[0] % 1000,
                pipelined_cycles: stats[1] % 1000,
                unpipelined_cycles: stats[2] % 1000,
                bdd_nodes: stats[3] % 1_000_000,
                bdd_peak_live: stats[4] % 1_000_000,
                bdd_vars: stats[5] % 10_000,
                filters: ("beta".to_owned(), "dynamic-beta".to_owned()),
                counterexample: cex.map(|(plan, instrs, replay)| {
                    let slot = instrs.len() - 1;
                    Counterexample {
                        plan,
                        slot_instructions: instrs,
                        slot,
                        variable: "regfile".to_owned(),
                        pipelined_value: replay.pipelined_value,
                        unpipelined_value: replay.unpipelined_value,
                        replay,
                    }
                }),
                wall_time: Duration::from_nanos(wall_ns),
                metrics,
            },
        )
}

proptest! {
    /// FlowReport: encode → text → parse → decode → re-encode is the
    /// identity on the encoding, and the decoded fields match the originals.
    #[test]
    fn flow_report_round_trips(report in arb_flow_report()) {
        let json = flow_report_to_json(&report);
        let text = json.render();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        let decoded = flow_report_from_json(&parsed).expect("well-formed report");

        prop_assert_eq!(flow_report_to_json(&decoded), json);
        prop_assert_eq!(decoded.flow, report.flow);
        prop_assert_eq!(decoded.design, report.design);
        prop_assert_eq!(decoded.equivalent, report.equivalent);
        prop_assert_eq!(decoded.counterexample, report.counterexample);
        prop_assert_eq!(decoded.units_checked, report.units_checked);
        prop_assert_eq!(decoded.unit_label, report.unit_label);
        prop_assert_eq!(decoded.checks, report.checks);
        prop_assert_eq!(decoded.space, report.space);
        prop_assert_eq!(decoded.space_label, report.space_label);
        prop_assert_eq!(decoded.threads_used, report.threads_used);
        prop_assert_eq!(decoded.wall_time, report.wall_time);
        prop_assert_eq!(decoded.unit_walls, report.unit_walls);
        prop_assert_eq!(decoded.metrics, report.metrics);
        prop_assert_eq!(decoded.unit_failures, report.unit_failures);
    }

    /// PlanReport: same round trip, including the β-relation's structured
    /// counterexample and the plan's text rendering.
    #[test]
    fn plan_report_round_trips(report in arb_plan_report()) {
        let json = plan_report_to_json(&report);
        let text = json.render();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        let decoded = plan_report_from_json(&parsed).expect("well-formed report");

        prop_assert_eq!(plan_report_to_json(&decoded), json);
        prop_assert_eq!(decoded.plan, report.plan);
        prop_assert_eq!(decoded.plan_index, report.plan_index);
        prop_assert_eq!(decoded.counterexample, report.counterexample);
        prop_assert_eq!(decoded.wall_time, report.wall_time);
        prop_assert_eq!(decoded.filters, report.filters);
        prop_assert_eq!(decoded.metrics, report.metrics);
    }
}

/// Decoding must reject unknown labels instead of leaking allocations into
/// the `&'static str` fields.
#[test]
fn unknown_labels_are_rejected() {
    let mut report = flow_report_to_json(&FlowReport {
        flow: "beta-relation",
        design: "d".to_owned(),
        equivalent: true,
        counterexample: None,
        units_checked: 0,
        unit_label: "plan",
        checks: 0,
        space: 0,
        space_label: "BDD nodes",
        threads_used: 1,
        wall_time: Duration::ZERO,
        unit_walls: vec![],
        metrics: BTreeMap::new(),
        unit_failures: vec![],
    });
    if let Json::Obj(pairs) = &mut report {
        for (k, v) in pairs.iter_mut() {
            if k == "flow" {
                *v = Json::Str("gamma-relation".to_owned());
            }
        }
    }
    assert!(flow_report_from_json(&report).is_err());
}

/// A real plan report carries the per-operator computed-table counters,
/// and they survive the round trip like every other metric.
#[test]
fn a_checked_plan_reports_constrain_traffic_and_round_trips() {
    use pipeverify_core::{MachineSpec, Verifier};
    use pv_proc::vsm::{self, VsmConfig};

    let pipelined = vsm::pipelined(VsmConfig::reduced(2)).expect("build pipelined");
    let unpipelined = vsm::unpipelined(VsmConfig::reduced(2)).expect("build unpipelined");
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .check_plan(
            &pipelined,
            &unpipelined,
            &SimulationPlan::with_control_at(2, 0),
        )
        .expect("check");
    let misses = report.metrics["bdd.constrain.cache_miss"];
    let hits = report.metrics["bdd.constrain.cache_hit"];
    assert!(misses > 0, "the class constraint cofactors every state bit");
    assert!(hits > 0, "bits and cycles share constrain subproblems");

    let json = plan_report_to_json(&report);
    let parsed = Json::parse(&json.render()).expect("rendered JSON parses");
    let decoded = plan_report_from_json(&parsed).expect("well-formed report");
    assert_eq!(decoded.metrics, report.metrics);
    assert_eq!(plan_report_to_json(&decoded), json);
}
