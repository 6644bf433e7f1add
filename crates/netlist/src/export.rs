//! Deterministic text **export/import** of a finished [`Netlist`], and the
//! FNV-1a hash primitive of the workspace's cache keys.
//!
//! The export is a pure function of the netlist: same design, same bytes.
//! That makes it the design component of the verification service's cache
//! key — any gate, register, port or pipeline-hint change changes the key.
//! The export is never stored; [`import`] exists to prove it lossless, so
//! that two designs with one export are the same design and cannot share a
//! stale cached report.
//!
//! ```text
//! .pvnet 1                      header: format name + version
//! .name counter
//! .inputs 1
//! enable 1
//! .nodes 7                      one gate/source per line, id = line order
//! C0                            constant 0      (C1 = constant 1)
//! I 0 0                         input  <port> <bit>
//! R 0                           output of register bit 0
//! N 2                           NOT    <net>
//! A 1 2                         AND    <net> <net>   (O = OR, X = XOR)
//! ...
//! .regs 2
//! count 0 0 5                   <name> <bit> <init> <next-net>
//! .outputs 1
//! count 2 6                     <name> <width> <nets...>
//! .hints
//! stall_port -
//! ...
//! .end
//! ```
//!
//! Gate operands always reference earlier node lines (the builder only ever
//! wires existing nets), register next-state nets may reference any node, and
//! the pipeline hints are exported in full — a seeded bug that changes only a
//! hint (say, an inverted stall gate) therefore changes the export too.
//!
//! Round trip:
//!
//! ```
//! use pv_netlist::{export, ConcreteSim, NetlistBuilder};
//!
//! let mut n = NetlistBuilder::new("counter");
//! let enable = n.input("enable", 1);
//! let count = n.register("count", 2, 0);
//! let one = n.wconst(1, 2);
//! let next = n.wadd(&count.value(), &one);
//! let next = n.wmux(enable.bit(0), &next, &count.value());
//! n.set_next(&count, &next);
//! n.expose("count", &count.value());
//! let netlist = n.finish()?;
//!
//! let text = export::export(&netlist);
//! let rebuilt = export::import(&text).expect("well-formed export");
//! assert_eq!(export::export(&rebuilt), text);
//!
//! // The rebuilt netlist behaves identically.
//! let mut sim = ConcreteSim::new(&rebuilt);
//! sim.step(&[("enable", 1)]);
//! let out = sim.step(&[("enable", 1)]);
//! assert_eq!(out["count"], 1);
//! # Ok::<(), pv_netlist::BuildError>(())
//! ```

use std::fmt;

use crate::net::{NetId, NetNode, Netlist, PipelineHints, PortInfo, RegInfo};

/// Format version written by [`export`] and accepted by [`import`].
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a hash — the workspace's content-hash primitive.
///
/// Small, dependency-free and stable across platforms and releases; used (in
/// `pipeverify-core`) for cache keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors produced by [`import`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImportError {
    /// 1-based line number of the offending line (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist export, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ImportError {}

fn check_token(name: &str, what: &str) {
    assert!(
        !name.is_empty() && !name.chars().any(char::is_whitespace),
        "{what} `{name}` must be non-empty and whitespace-free to be exported"
    );
}

/// Exports `netlist` as the deterministic text format described in the
/// [module docs](self).
///
/// # Panics
/// Panics if the design name or any port/register name is empty or contains
/// whitespace — the format is line- and space-delimited. Every name the
/// workspace's builders produce satisfies this.
pub fn export(netlist: &Netlist) -> String {
    check_token(&netlist.name, "design name");
    let mut out = String::new();
    out.push_str(&format!(".pvnet {FORMAT_VERSION}\n"));
    out.push_str(&format!(".name {}\n", netlist.name));
    out.push_str(&format!(".inputs {}\n", netlist.inputs.len()));
    for p in &netlist.inputs {
        check_token(&p.name, "input port");
        out.push_str(&format!("{} {}\n", p.name, p.width));
    }
    out.push_str(&format!(".nodes {}\n", netlist.nodes.len()));
    for node in &netlist.nodes {
        match node {
            NetNode::Const(false) => out.push_str("C0\n"),
            NetNode::Const(true) => out.push_str("C1\n"),
            NetNode::Input { port, bit } => out.push_str(&format!("I {port} {bit}\n")),
            NetNode::Reg(r) => out.push_str(&format!("R {r}\n")),
            NetNode::Not(a) => out.push_str(&format!("N {}\n", a.raw())),
            NetNode::And(a, b) => out.push_str(&format!("A {} {}\n", a.raw(), b.raw())),
            NetNode::Or(a, b) => out.push_str(&format!("O {} {}\n", a.raw(), b.raw())),
            NetNode::Xor(a, b) => out.push_str(&format!("X {} {}\n", a.raw(), b.raw())),
        }
    }
    out.push_str(&format!(".regs {}\n", netlist.regs.len()));
    for r in &netlist.regs {
        check_token(&r.name, "register");
        let next = r
            .next
            .expect("finished netlists have every next-state wired");
        out.push_str(&format!(
            "{} {} {} {}\n",
            r.name,
            r.bit,
            u8::from(r.init),
            next.raw()
        ));
    }
    out.push_str(&format!(".outputs {}\n", netlist.outputs.len()));
    for (name, nets) in &netlist.outputs {
        check_token(name, "output port");
        out.push_str(&format!("{} {}", name, nets.len()));
        for n in nets {
            out.push_str(&format!(" {}", n.raw()));
        }
        out.push('\n');
    }
    let h = &netlist.hints;
    let opt_name = |o: &Option<String>| o.clone().unwrap_or_else(|| "-".to_owned());
    let opt_num = |o: Option<u64>| o.map_or_else(|| "-".to_owned(), |v| v.to_string());
    out.push_str(".hints\n");
    out.push_str(&format!("stall_port {}\n", opt_name(&h.stall_port)));
    out.push_str(&format!("stage_valids {}", h.stage_valids.len()));
    for s in &h.stage_valids {
        check_token(s, "stage-valid register");
        out.push_str(&format!(" {s}"));
    }
    out.push('\n');
    out.push_str(&format!("forward_paths {}\n", h.forward_paths));
    out.push_str(&format!("built_forward_paths {}\n", h.built_forward_paths));
    out.push_str(&format!("stall_gates {}\n", h.stall_gates));
    out.push_str(&format!("stall_inverted {}\n", u8::from(h.stall_inverted)));
    out.push_str(&format!("annul_gates {}\n", h.annul_gates));
    out.push_str(&format!(
        "delay_slots {}\n",
        opt_num(h.delay_slots.map(|v| v as u64))
    ));
    out.push_str(&format!(
        "branch_base_offset {}\n",
        opt_num(h.branch_base_offset)
    ));
    out.push_str(".end\n");
    out
}

/// Imports a netlist written by [`export`].
///
/// The rebuilt [`Netlist`] is structurally identical to the exported one:
/// same node graph, registers, ports and pipeline hints, and therefore the
/// same [`export`] text and the same behaviour under
/// [`crate::ConcreteSim`]/[`crate::SymbolicSim`].
///
/// # Errors
/// Returns [`ImportError`] on malformed headers, unknown gate kinds,
/// out-of-range net/port/register references, or a truncated file.
pub fn import(text: &str) -> Result<Netlist, ImportError> {
    let fail = |line: usize, message: String| ImportError { line, message };
    struct Cursor<'a> {
        lines: Vec<&'a str>,
        pos: usize,
    }
    impl<'a> Cursor<'a> {
        fn next(&mut self) -> Option<(usize, &'a str)> {
            let n = self.pos;
            self.pos += 1;
            self.lines.get(n).map(|l| (n, *l))
        }
        fn expect(&mut self, prefix: &str) -> Result<(usize, String), ImportError> {
            let (n, line) = self.next().ok_or_else(|| ImportError {
                line: 0,
                message: format!("missing `{prefix}` line"),
            })?;
            line.strip_prefix(prefix)
                .map(|rest| (n, rest.trim().to_owned()))
                .ok_or_else(|| ImportError {
                    line: n + 1,
                    message: format!("expected `{prefix}...`, found `{line}`"),
                })
        }
    }
    let mut lines = Cursor {
        lines: text.lines().collect(),
        pos: 0,
    };

    let (n, version) = lines.expect(".pvnet ")?;
    let version: u32 = version
        .parse()
        .map_err(|_| fail(n + 1, format!("bad version `{version}`")))?;
    if version != FORMAT_VERSION {
        return Err(fail(
            n + 1,
            format!("unsupported netlist export version {version} (this reader speaks {FORMAT_VERSION})"),
        ));
    }
    let (n, name) = lines.expect(".name ")?;
    if name.is_empty() {
        return Err(fail(n + 1, "empty design name".to_owned()));
    }

    let parse_count = |field: (usize, String)| -> Result<usize, ImportError> {
        let (n, v) = field;
        v.parse()
            .map_err(|_| fail(n + 1, format!("bad count `{v}`")))
    };

    let ninputs = parse_count(lines.expect(".inputs ")?)?;
    let mut inputs = Vec::with_capacity(ninputs);
    for _ in 0..ninputs {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, "truncated input list".to_owned()))?;
        let mut f = line.split_whitespace();
        match (
            f.next(),
            f.next().and_then(|w| w.parse::<usize>().ok()),
            f.next(),
        ) {
            (Some(name), Some(width), None) => inputs.push(PortInfo {
                name: name.to_owned(),
                width,
            }),
            _ => {
                return Err(fail(
                    n + 1,
                    format!("expected `<name> <width>`, found `{line}`"),
                ))
            }
        }
    }

    let nnodes = parse_count(lines.expect(".nodes ")?)?;
    let mut nodes = Vec::with_capacity(nnodes);
    for id in 0..nnodes {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, "truncated node list".to_owned()))?;
        let mut f = line.split_whitespace();
        let kind = f
            .next()
            .ok_or_else(|| fail(n + 1, "empty node record".to_owned()))?;
        let net_arg = |f: &mut std::str::SplitWhitespace<'_>| -> Result<NetId, ImportError> {
            let raw: u32 = f.next().and_then(|w| w.parse().ok()).ok_or_else(|| {
                fail(n + 1, format!("node {id}: missing/bad operand in `{line}`"))
            })?;
            if raw as usize >= id {
                return Err(fail(
                    n + 1,
                    format!("node {id} references net {raw}, which is not an earlier node"),
                ));
            }
            Ok(NetId(raw))
        };
        let num_arg = |f: &mut std::str::SplitWhitespace<'_>| -> Result<u32, ImportError> {
            f.next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| fail(n + 1, format!("node {id}: missing/bad operand in `{line}`")))
        };
        let node = match kind {
            "C0" => NetNode::Const(false),
            "C1" => NetNode::Const(true),
            "I" => NetNode::Input {
                port: num_arg(&mut f)?,
                bit: num_arg(&mut f)?,
            },
            "R" => NetNode::Reg(num_arg(&mut f)?),
            "N" => NetNode::Not(net_arg(&mut f)?),
            "A" => NetNode::And(net_arg(&mut f)?, net_arg(&mut f)?),
            "O" => NetNode::Or(net_arg(&mut f)?, net_arg(&mut f)?),
            "X" => NetNode::Xor(net_arg(&mut f)?, net_arg(&mut f)?),
            other => return Err(fail(n + 1, format!("unknown node kind `{other}`"))),
        };
        if f.next().is_some() {
            return Err(fail(n + 1, format!("trailing fields on node {id}")));
        }
        if let NetNode::Input { port, .. } = node {
            if port as usize >= inputs.len() {
                return Err(fail(
                    n + 1,
                    format!("node {id} reads undeclared input port {port}"),
                ));
            }
        }
        nodes.push(node);
    }

    let nregs = parse_count(lines.expect(".regs ")?)?;
    let mut regs = Vec::with_capacity(nregs);
    for _ in 0..nregs {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, "truncated register list".to_owned()))?;
        let mut f = line.split_whitespace();
        let parsed = (
            f.next(),
            f.next().and_then(|w| w.parse::<usize>().ok()),
            f.next().and_then(|w| w.parse::<u8>().ok()),
            f.next().and_then(|w| w.parse::<u32>().ok()),
            f.next(),
        );
        match parsed {
            (Some(name), Some(bit), Some(init @ (0 | 1)), Some(next), None)
                if (next as usize) < nodes.len() =>
            {
                regs.push(RegInfo {
                    name: name.to_owned(),
                    bit,
                    init: init == 1,
                    next: Some(NetId(next)),
                });
            }
            _ => {
                return Err(fail(
                    n + 1,
                    format!(
                    "expected `<name> <bit> <init> <next-net>` with a valid net, found `{line}`"
                ),
                ))
            }
        }
    }
    for (id, node) in nodes.iter().enumerate() {
        if let NetNode::Reg(r) = node {
            if *r as usize >= regs.len() {
                return Err(fail(
                    0,
                    format!("node {id} reads undeclared register bit {r}"),
                ));
            }
        }
    }

    let noutputs = parse_count(lines.expect(".outputs ")?)?;
    let mut outputs = Vec::with_capacity(noutputs);
    for _ in 0..noutputs {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, "truncated output list".to_owned()))?;
        let mut f = line.split_whitespace();
        let name = f
            .next()
            .ok_or_else(|| fail(n + 1, "empty output record".to_owned()))?;
        let width: usize = f
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| fail(n + 1, format!("output `{name}` lacks a width")))?;
        let mut nets = Vec::with_capacity(width);
        for _ in 0..width {
            let raw: u32 = f
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| fail(n + 1, format!("output `{name}`: missing/bad net")))?;
            if raw as usize >= nodes.len() {
                return Err(fail(
                    n + 1,
                    format!("output `{name}` references unknown net {raw}"),
                ));
            }
            nets.push(NetId(raw));
        }
        if f.next().is_some() {
            return Err(fail(n + 1, format!("trailing fields on output `{name}`")));
        }
        outputs.push((name.to_owned(), nets));
    }

    lines.expect(".hints")?;
    let mut hints = PipelineHints::default();
    let mut hint_field = |key: &str| -> Result<(usize, Vec<String>), ImportError> {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, format!("truncated hints: missing `{key}`")))?;
        let rest = line
            .strip_prefix(key)
            .ok_or_else(|| fail(n + 1, format!("expected hint `{key}`, found `{line}`")))?;
        Ok((n, rest.split_whitespace().map(str::to_owned).collect()))
    };
    let one = |(n, fields): (usize, Vec<String>), key: &str| -> Result<String, ImportError> {
        if fields.len() == 1 {
            Ok(fields.into_iter().next().unwrap())
        } else {
            Err(fail(n + 1, format!("hint `{key}` takes exactly one value")))
        }
    };
    let v = one(hint_field("stall_port")?, "stall_port")?;
    hints.stall_port = (v != "-").then_some(v);
    let (n, fields) = hint_field("stage_valids")?;
    let declared: usize = fields
        .first()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| fail(n + 1, "hint `stage_valids` lacks a count".to_owned()))?;
    if fields.len() != declared + 1 {
        return Err(fail(n + 1, "hint `stage_valids` count mismatch".to_owned()));
    }
    hints.stage_valids = fields[1..].to_vec();
    let usize_hint = |field: (usize, Vec<String>), key: &str| -> Result<usize, ImportError> {
        let n = field.0;
        one(field, key)?
            .parse()
            .map_err(|_| fail(n + 1, format!("hint `{key}` must be a number")))
    };
    hints.forward_paths = usize_hint(hint_field("forward_paths")?, "forward_paths")?;
    hints.built_forward_paths =
        usize_hint(hint_field("built_forward_paths")?, "built_forward_paths")?;
    hints.stall_gates = usize_hint(hint_field("stall_gates")?, "stall_gates")?;
    hints.stall_inverted = usize_hint(hint_field("stall_inverted")?, "stall_inverted")? == 1;
    hints.annul_gates = usize_hint(hint_field("annul_gates")?, "annul_gates")?;
    let opt_hint = |field: (usize, Vec<String>), key: &str| -> Result<Option<u64>, ImportError> {
        let n = field.0;
        let v = one(field, key)?;
        if v == "-" {
            Ok(None)
        } else {
            v.parse()
                .map(Some)
                .map_err(|_| fail(n + 1, format!("hint `{key}` must be a number or `-`")))
        }
    };
    hints.delay_slots = opt_hint(hint_field("delay_slots")?, "delay_slots")?.map(|v| v as usize);
    hints.branch_base_offset = opt_hint(hint_field("branch_base_offset")?, "branch_base_offset")?;

    match lines.next() {
        Some((_, ".end")) => {}
        Some((n, line)) => return Err(fail(n + 1, format!("expected `.end`, found `{line}`"))),
        None => return Err(fail(0, "truncated export: missing `.end`".to_owned())),
    }

    Ok(Netlist {
        name,
        nodes,
        regs,
        inputs,
        outputs,
        hints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn counter() -> Netlist {
        let mut n = NetlistBuilder::new("counter");
        let enable = n.input("enable", 1);
        let count = n.register("count", 2, 0);
        let one = n.wconst(1, 2);
        let next = n.wadd(&count.value(), &one);
        let next = n.wmux(enable.bit(0), &next, &count.value());
        n.set_next(&count, &next);
        n.expose("count", &count.value());
        n.finish().expect("valid netlist")
    }

    #[test]
    fn export_is_deterministic_and_round_trips_structurally() {
        let nl = counter();
        let a = export(&nl);
        let b = export(&nl);
        assert_eq!(a, b);
        let back = import(&a).expect("round trip");
        assert_eq!(export(&back), a);
        assert_eq!(back.name(), nl.name());
        assert_eq!(back.inputs(), nl.inputs());
        assert_eq!(back.outputs(), nl.outputs());
        assert_eq!(back.pipeline_hints(), nl.pipeline_hints());
        assert_eq!(back.register_bits(), nl.register_bits());
        assert_eq!(back.node_count(), nl.node_count());
    }

    #[test]
    fn import_rejects_malformed_exports() {
        let good = export(&counter());
        // Truncations at every section boundary must be rejected.
        for cut in [1, 2, 3, 4, 6, 8] {
            let truncated: String = good.lines().take(cut).map(|l| format!("{l}\n")).collect();
            assert!(
                import(&truncated).is_err(),
                "must reject truncation at line {cut}"
            );
        }
        // A dangling net reference must be rejected.
        let dangling = good
            .replace(".nodes ", ".nodes 9999\nQ ")
            .replace("Q .", ".");
        assert!(import(&dangling).is_err());
        assert!(import("").is_err());
        assert!(
            import(".pvnet 99\n").is_err(),
            "must reject future versions"
        );
    }

    /// The export is the design part of every cache key, so each pipeline
    /// hint must reach it on its own: a hint the export dropped would let a
    /// hint-only design change hit a stale report.
    #[test]
    fn export_is_sensitive_to_every_hint() {
        type Edit = fn(&mut PipelineHints);
        let base = export(&counter());
        let edits: [(&str, Edit); 9] = [
            ("stall_port", |h| h.stall_port = Some("stall".to_owned())),
            ("stage_valids", |h| {
                h.stage_valids = vec!["count".to_owned()]
            }),
            ("forward_paths", |h| h.forward_paths += 1),
            ("built_forward_paths", |h| h.built_forward_paths += 1),
            ("stall_gates", |h| h.stall_gates += 1),
            ("stall_inverted", |h| h.stall_inverted = !h.stall_inverted),
            ("annul_gates", |h| h.annul_gates += 1),
            ("delay_slots", |h| h.delay_slots = Some(1)),
            ("branch_base_offset", |h| h.branch_base_offset = Some(1)),
        ];
        for (field, edit) in edits {
            let mut nl = counter();
            edit(&mut nl.hints);
            assert_ne!(export(&nl), base, "`{field}` must change the export");
        }
    }
}
