//! FORCE-style static variable ordering derived from netlist connectivity.
//!
//! The β-relation verifier allocates one block of BDD variables per fetched
//! instruction word, and the order of the *bits inside that block* decides
//! how early the decode logic can branch. The default (declaration order,
//! LSB first) is a poor fit for ISAs that put the opcode in the high bits:
//! every path through the BDD must pass all operand bits before it reaches
//! the field that actually selects the datapath.
//!
//! This module recovers a better order from the netlist itself, with no
//! ISA-specific knowledge, using the FORCE heuristic of Aloul, Markov and
//! Sakallah (GLSVLSI 2003): model the netlist as a hypergraph — one vertex
//! per net, one hyperedge per gate (the gate and its operands), per register
//! (the register output and its next-state net) and per exposed output word —
//! and iteratively move every vertex to the centre of gravity of its
//! incident edges, re-sorting into a linear arrangement each pass. The total
//! edge *span* (the distance between a hyperedge's extreme vertices)
//! monotonically shrinks toward a local optimum in a few dozen passes, each
//! of which is linear in the number of pins.
//!
//! From the converged arrangement we read off, for every primary input port,
//! the order in which its bits appear — bits that sit near the gates that
//! consume them, and near each other when they feed the same logic. One
//! refinement is applied on extraction: a linear arrangement is equivalent
//! to its mirror image (the span is symmetric), so the *direction* of each
//! port's bit sequence is arbitrary. We orient it so the end with the larger
//! share of direct fanout comes first: high-fanout bits are control (opcode
//! fields feeding comparators all over the decoder), and branching on
//! control before data is the classic variable-ordering rule of thumb.

use std::collections::BTreeMap;

use crate::net::{NetNode, Netlist};

/// How many placement passes to attempt before giving up on improvement.
const MAX_PASSES: usize = 48;
/// Stop after this many consecutive passes without a new best span.
const STALL_LIMIT: usize = 4;

/// The result of a FORCE ordering run: per-port bit orders plus the span
/// trajectory, so callers can report how much the arrangement improved.
#[derive(Clone, Debug)]
pub struct OrderReport {
    /// For each primary input port, the port's bit indices in suggested
    /// **allocation order**: the first entry should get the topmost
    /// (earliest) BDD variable of the port's block.
    pub port_orders: BTreeMap<String, Vec<usize>>,
    /// Total hyperedge span of the initial (declaration-order) arrangement.
    pub span_before: u64,
    /// Total hyperedge span of the best arrangement found.
    pub span_after: u64,
    /// Number of placement passes actually run.
    pub passes: usize,
}

/// Run the FORCE placement on `netlist` and extract a static bit order for
/// every primary input port. Deterministic: ties in the centre-of-gravity
/// sort are broken by vertex index.
pub fn force_order(netlist: &Netlist) -> OrderReport {
    let n = netlist.nodes.len();

    // Vertex index of each register's output net, so the register edge can
    // tie a state bit to the logic that computes its next value.
    let mut reg_vertex: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        if let NetNode::Reg(r) = node {
            reg_vertex.entry(*r).or_insert(i as u32);
        }
    }

    // Hyperedges over vertex indices, and per-vertex direct fanout (number
    // of gate/register pins that read the vertex).
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut fanout = vec![0u64; n];
    for (i, node) in netlist.nodes.iter().enumerate() {
        let mut edge = |operands: &[u32]| {
            for &o in operands {
                fanout[o as usize] += 1;
            }
            let mut e = Vec::with_capacity(operands.len() + 1);
            e.push(i as u32);
            e.extend_from_slice(operands);
            e.sort_unstable();
            e.dedup();
            if e.len() > 1 {
                edges.push(e);
            }
        };
        match node {
            NetNode::Const(_) | NetNode::Input { .. } | NetNode::Reg(_) => {}
            NetNode::Not(a) => edge(&[a.raw()]),
            NetNode::And(a, b) | NetNode::Or(a, b) | NetNode::Xor(a, b) => {
                edge(&[a.raw(), b.raw()]);
            }
        }
    }
    for (r, info) in netlist.regs.iter().enumerate() {
        if let (Some(&v), Some(next)) = (reg_vertex.get(&(r as u32)), info.next) {
            fanout[next.raw() as usize] += 1;
            let mut e = vec![v, next.raw()];
            e.sort_unstable();
            e.dedup();
            if e.len() > 1 {
                edges.push(e);
            }
        }
    }
    for (_, nets) in &netlist.outputs {
        let mut e: Vec<u32> = nets.iter().map(|id| id.raw()).collect();
        e.sort_unstable();
        e.dedup();
        if e.len() > 1 {
            edges.push(e);
        }
    }

    // `position[v]` is the vertex's slot in the current linear arrangement.
    let mut position: Vec<f64> = (0..n).map(|v| v as f64).collect();
    let span = |position: &[f64]| -> u64 {
        edges
            .iter()
            .map(|e| {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in e {
                    let p = position[v as usize];
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
                (hi - lo) as u64
            })
            .sum()
    };

    let span_before = span(&position);
    let mut best_span = span_before;
    let mut best_position = position.clone();
    let mut stalled = 0usize;
    let mut passes = 0usize;
    let mut ideal = vec![0.0f64; n];
    let mut weight = vec![0u32; n];
    let mut by_ideal: Vec<u32> = (0..n as u32).collect();
    for _ in 0..MAX_PASSES {
        passes += 1;
        // Each vertex moves to the mean of its incident edges' centres of
        // gravity; vertices on no edge keep their current position.
        ideal.iter_mut().for_each(|x| *x = 0.0);
        weight.iter_mut().for_each(|w| *w = 0);
        for e in &edges {
            let cog: f64 = e.iter().map(|&v| position[v as usize]).sum::<f64>() / e.len() as f64;
            for &v in e {
                ideal[v as usize] += cog;
                weight[v as usize] += 1;
            }
        }
        for v in 0..n {
            ideal[v] = if weight[v] > 0 {
                ideal[v] / f64::from(weight[v])
            } else {
                position[v]
            };
        }
        // Legalise: sort by ideal position (vertex index breaks ties, which
        // keeps the whole procedure deterministic) and assign integer slots.
        by_ideal.sort_by(|&a, &b| {
            ideal[a as usize]
                .total_cmp(&ideal[b as usize])
                .then(a.cmp(&b))
        });
        for (slot, &v) in by_ideal.iter().enumerate() {
            position[v as usize] = slot as f64;
        }
        let s = span(&position);
        if s < best_span {
            best_span = s;
            best_position.copy_from_slice(&position);
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= STALL_LIMIT {
                break;
            }
        }
    }

    // Extract each input port's bit sequence from the best arrangement and
    // orient it control-first (heavier direct fanout leads).
    let mut port_orders = BTreeMap::new();
    for (p, port) in netlist.inputs.iter().enumerate() {
        let mut bits: Vec<(f64, usize, u64)> = Vec::with_capacity(port.width);
        for (i, node) in netlist.nodes.iter().enumerate() {
            if let NetNode::Input { port: ip, bit } = node {
                if *ip == p as u32 {
                    bits.push((best_position[i], *bit as usize, fanout[i]));
                }
            }
        }
        bits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let total: u64 = bits.iter().map(|&(_, _, w)| w).sum();
        if total > 0 {
            let centroid: f64 = bits
                .iter()
                .enumerate()
                .map(|(k, &(_, _, w))| k as f64 * w as f64)
                .sum::<f64>()
                / total as f64;
            if centroid > (bits.len() as f64 - 1.0) / 2.0 {
                bits.reverse();
            }
        }
        let mut order: Vec<usize> = bits.iter().map(|&(_, b, _)| b).collect();
        // Unconnected bits never appear as vertices; append them in
        // declaration order so the permutation is always total.
        let mut seen = vec![false; port.width];
        for &b in &order {
            seen[b] = true;
        }
        order.extend((0..port.width).filter(|&b| !seen[b]));
        port_orders.insert(port.name.clone(), order);
    }

    OrderReport {
        port_orders,
        span_before,
        span_after: best_span,
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    /// A decoder-shaped design: the top bits of `instr` select which of four
    /// datapaths drives the result, the low bits are data. FORCE must place
    /// the selector bits first in the port order.
    fn decoder_netlist() -> Netlist {
        let mut n = NetlistBuilder::new("decoder");
        let instr = n.input("instr", 6);
        let acc = n.register("acc", 4, 0);
        let data = instr.slice(0, 4);
        let a = n.wadd(&acc.value(), &data);
        let b = n.wand(&acc.value(), &data);
        let c = n.wor(&acc.value(), &data);
        let d = n.wxor(&acc.value(), &data);
        let sel0 = instr.bit(4);
        let sel1 = instr.bit(5);
        let ab = n.wmux(sel0, &a, &b);
        let cd = n.wmux(sel0, &c, &d);
        let next = n.wmux(sel1, &ab, &cd);
        n.set_next(&acc, &next);
        n.expose("acc", &acc.value());
        n.finish().expect("decoder netlist builds")
    }

    #[test]
    fn force_reduces_span_and_is_total() {
        let netlist = decoder_netlist();
        let report = force_order(&netlist);
        assert!(report.span_after <= report.span_before);
        let order = &report.port_orders["instr"];
        assert_eq!(order.len(), 6);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3, 4, 5],
            "order must be a permutation"
        );
    }

    #[test]
    fn selector_bits_lead_the_port_order() {
        let netlist = decoder_netlist();
        let report = force_order(&netlist);
        let order = &report.port_orders["instr"];
        let pos = |bit: usize| order.iter().position(|&b| b == bit).unwrap();
        // The mux selectors fan out across every datapath; both must be
        // allocated before the median data bit.
        let sel_worst = pos(4).max(pos(5));
        assert!(
            sel_worst <= 2,
            "selector bits must lead the order, got {order:?}"
        );
    }

    #[test]
    fn force_is_deterministic() {
        let netlist = decoder_netlist();
        let a = force_order(&netlist);
        let b = force_order(&netlist);
        assert_eq!(a.port_orders, b.port_orders);
        assert_eq!(a.span_after, b.span_after);
    }
}
