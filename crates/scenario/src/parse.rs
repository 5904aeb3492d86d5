//! Scenario parser: spanned tokens → a validated [`Spec`].
//!
//! Recursive descent over the scanner's token stream. Every failure —
//! lexical, syntactic, or semantic — is a [`Diag`] carrying the 1-based
//! `line:col` of the offending token; parsing never panics, whatever
//! the input. Statement-level errors synchronize to the next statement
//! keyword so one bad line does not cascade, and semantic validation
//! (node ranges, phase ordering, reachable expectations) runs only on a
//! syntactically clean file so its spans always point at real tokens.

use std::collections::BTreeMap;

use ftgm_sim::RecoveryPhase;
use ftgm_workload::PhaseKind;

use crate::ast::{
    Action, ArrivalDecl, Dur, Expect, FaultDecl, FlowDecl, FlowKind, MixDecl, PhaseDecl, SloDecl,
    Spec, Target, Topo, TriggerDecl, Unit,
};
use crate::scan::{scan, Tok, TokKind};

/// One diagnostic: a message anchored at a 1-based source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (bytes).
    pub col: u32,
    /// What went wrong.
    pub msg: String,
}

impl Diag {
    fn new(line: u32, col: u32, msg: impl Into<String>) -> Diag {
        Diag {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// Renders as the canonical single line the bad-fixture corpus pins.
    pub fn render(&self) -> String {
        format!("error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

/// Renders a diagnostic list the way the CLI prints it: one canonical
/// line per diagnostic, trailing newline.
pub fn render_diags(diags: &[Diag]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
        out.push('\n');
    }
    out
}

/// A value plus the position of the token that introduced it.
#[derive(Clone, Debug)]
struct Sp<T> {
    v: T,
    line: u32,
    col: u32,
}

/// Statement keywords; error recovery synchronizes to these.
const STMT_KEYWORDS: [&str; 9] = [
    "topology",
    "seed",
    "coordinator",
    "flow",
    "phases",
    "fault",
    "on",
    "slo",
    "expect",
];

/// Hosts and switch-count ceiling (keeps worlds buildable in memory).
const MAX_NODES: u32 = 4096;

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    i: usize,
    diags: Vec<Diag>,
    eof_line: u32,
    eof_col: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let all = scan(src);
        let (mut eof_line, mut eof_col) = (1, 1);
        if let Some(last) = all.last() {
            eof_line = last.line;
            let tail = last.text(src);
            let newlines = tail.bytes().filter(|&b| b == b'\n').count() as u32;
            if newlines > 0 {
                eof_line += newlines;
                eof_col = (tail.bytes().rev().take_while(|&b| b != b'\n').count() + 1) as u32;
            } else {
                eof_col = last.col + (last.end - last.start) as u32;
            }
        }
        let toks = all.into_iter().filter(|t| !t.kind.is_trivia()).collect();
        Parser {
            src,
            toks,
            i: 0,
            diags: Vec::new(),
            eof_line,
            eof_col,
        }
    }

    fn peek(&self) -> Option<Tok> {
        self.toks.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.peek();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn here(&self) -> (u32, u32) {
        self.peek()
            .map_or((self.eof_line, self.eof_col), |t| (t.line, t.col))
    }

    fn err_here(&mut self, msg: impl Into<String>) {
        let (line, col) = self.here();
        self.diags.push(Diag::new(line, col, msg));
    }

    /// The text of the next token, for error messages ("found X").
    fn found(&self) -> String {
        match self.peek() {
            None => "end of file".to_string(),
            Some(t) => match t.kind {
                TokKind::Str { .. } => "a string".to_string(),
                _ => format!("'{}'", t.text(self.src)),
            },
        }
    }

    /// Consumes the exact identifier `kw` or diagnoses.
    fn expect_kw(&mut self, kw: &str) -> Option<Tok> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident && t.text(self.src) == kw => self.bump(),
            _ => {
                let found = self.found();
                self.err_here(format!("expected '{kw}', found {found}"));
                None
            }
        }
    }

    fn expect_punct(&mut self, kind: TokKind, what: &str) -> Option<Tok> {
        match self.peek() {
            Some(t) if t.kind == kind => self.bump(),
            _ => {
                let found = self.found();
                self.err_here(format!("expected {what}, found {found}"));
                None
            }
        }
    }

    /// Takes any identifier (for keyword dispatch).
    fn take_ident(&mut self, what: &str) -> Option<Tok> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => self.bump(),
            _ => {
                let found = self.found();
                self.err_here(format!("expected {what}, found {found}"));
                None
            }
        }
    }

    /// Takes a bare integer. A duration here is a type mismatch.
    fn take_u64(&mut self, what: &str) -> Option<Sp<u64>> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Int => {
                self.bump();
                match t.text(self.src).parse::<u64>() {
                    Ok(v) => Some(Sp {
                        v,
                        line: t.line,
                        col: t.col,
                    }),
                    Err(_) => {
                        self.diags.push(Diag::new(
                            t.line,
                            t.col,
                            format!("integer '{}' is too large", t.text(self.src)),
                        ));
                        None
                    }
                }
            }
            Some(t) if t.kind == TokKind::IntSuffix => {
                let found = self.found();
                self.err_here(format!(
                    "type mismatch: expected a bare integer for the {what}, found duration {found}"
                ));
                None
            }
            _ => {
                let found = self.found();
                self.err_here(format!("expected an integer for the {what}, found {found}"));
                None
            }
        }
    }

    fn take_u32(&mut self, what: &str) -> Option<Sp<u32>> {
        let n = self.take_u64(what)?;
        match u32::try_from(n.v) {
            Ok(v) => Some(Sp {
                v,
                line: n.line,
                col: n.col,
            }),
            Err(_) => {
                self.diags.push(Diag::new(
                    n.line,
                    n.col,
                    format!("value {} is out of range for {what}", n.v),
                ));
                None
            }
        }
    }

    fn take_u16(&mut self, what: &str) -> Option<Sp<u16>> {
        let n = self.take_u64(what)?;
        match u16::try_from(n.v) {
            Ok(v) => Some(Sp {
                v,
                line: n.line,
                col: n.col,
            }),
            Err(_) => {
                self.diags.push(Diag::new(
                    n.line,
                    n.col,
                    format!("value {} is out of range for {what}", n.v),
                ));
                None
            }
        }
    }

    /// Takes a duration literal (`10ms`). A bare integer here is a type
    /// mismatch: every duration needs an explicit unit.
    fn take_dur(&mut self, what: &str) -> Option<Sp<Dur>> {
        match self.peek() {
            Some(t) if t.kind == TokKind::IntSuffix => {
                self.bump();
                let text = t.text(self.src);
                let split = text
                    .bytes()
                    .position(|b| !b.is_ascii_digit())
                    .unwrap_or(text.len());
                let (digits, suffix) = text.split_at(split);
                let Ok(value) = digits.parse::<u64>() else {
                    self.diags.push(Diag::new(
                        t.line,
                        t.col,
                        format!("integer '{digits}' is too large"),
                    ));
                    return None;
                };
                let Some(unit) = Unit::from_name(suffix) else {
                    self.diags.push(Diag::new(
                        t.line,
                        t.col,
                        format!("unknown duration unit '{suffix}' (expected ns, us, ms or s)"),
                    ));
                    return None;
                };
                Some(Sp {
                    v: Dur { value, unit },
                    line: t.line,
                    col: t.col,
                })
            }
            Some(t) if t.kind == TokKind::Int => {
                let text = t.text(self.src).to_string();
                self.err_here(format!(
                    "type mismatch: expected a duration for the {what}, found bare integer \
                     '{text}' (write '{text}ms', '{text}us', ...)"
                ));
                None
            }
            _ => {
                let found = self.found();
                self.err_here(format!("expected a duration for the {what}, found {found}"));
                None
            }
        }
    }

    /// A duration that must be strictly positive.
    fn take_pos_dur(&mut self, what: &str) -> Option<Sp<Dur>> {
        let d = self.take_dur(what)?;
        if d.v.value == 0 {
            self.diags.push(Diag::new(
                d.line,
                d.col,
                format!("the {what} must be positive"),
            ));
            return None;
        }
        Some(d)
    }

    /// A message size in bytes, within the `16..=1048576` every flow
    /// kind accepts.
    fn take_size(&mut self, what: &str) -> Option<u32> {
        let s = self.take_u32(what)?;
        if !(16..=1_048_576).contains(&s.v) {
            self.diags.push(Diag::new(
                s.line,
                s.col,
                format!("message size {} must be within 16..=1048576 bytes", s.v),
            ));
            return None;
        }
        Some(s.v)
    }

    /// Skips tokens until the next statement keyword or the scenario's
    /// closing brace, stepping over nested braced blocks wholesale.
    fn sync(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::LBrace => depth += 1,
                TokKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                TokKind::Ident
                    if depth == 0 && STMT_KEYWORDS.contains(&t.text(self.src)) =>
                {
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }
}

/// Parsed-but-not-yet-validated pieces, spans attached.
#[derive(Default)]
struct Partial {
    name: Option<Sp<String>>,
    topology: Option<Sp<Topo>>,
    seed: Option<Sp<u64>>,
    coordinator: Option<Sp<bool>>,
    flows: Vec<Sp<FlowDecl>>,
    phases: Option<Sp<Vec<Sp<PhaseDecl>>>>,
    faults: Vec<Sp<FaultDecl>>,
    triggers: Vec<Sp<TriggerDecl>>,
    slo: Option<Sp<SloDecl>>,
    expect: Option<Sp<Expect>>,
}

/// Parses one scenario file into a validated [`Spec`].
///
/// Returns every diagnostic found — lexical, syntactic, then semantic —
/// or the spec when the file is clean.
pub fn parse(src: &str) -> Result<Spec, Vec<Diag>> {
    let mut p = Parser::new(src);
    let mut partial = Partial::default();

    parse_header(&mut p, &mut partial);
    if p.diags.is_empty() {
        parse_body(&mut p, &mut partial);
    }
    if !p.diags.is_empty() {
        return Err(p.diags);
    }
    validate(&p, partial)
}

fn parse_header(p: &mut Parser<'_>, partial: &mut Partial) {
    if p.expect_kw("scenario").is_none() {
        return;
    }
    match p.peek() {
        Some(t) if matches!(t.kind, TokKind::Str { closed: true }) => {
            p.bump();
            let name = t
                .text(p.src)
                .trim_start_matches('"')
                .trim_end_matches('"')
                .to_string();
            let ok = !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
            if ok {
                partial.name = Some(Sp {
                    v: name,
                    line: t.line,
                    col: t.col,
                });
            } else {
                p.diags.push(Diag::new(
                    t.line,
                    t.col,
                    format!(
                        "scenario name \"{name}\" must be non-empty and use only \
                         letters, digits, '-', '_' and '.'"
                    ),
                ));
            }
        }
        Some(t) if matches!(t.kind, TokKind::Str { closed: false }) => {
            p.bump();
            p.diags
                .push(Diag::new(t.line, t.col, "unterminated scenario name string"));
        }
        _ => {
            let found = p.found();
            p.err_here(format!("expected a quoted scenario name, found {found}"));
        }
    }
}

fn parse_body(p: &mut Parser<'_>, partial: &mut Partial) {
    if p.expect_punct(TokKind::LBrace, "'{' to open the scenario block")
        .is_none()
    {
        return;
    }
    loop {
        match p.peek() {
            None => {
                p.err_here("missing '}' to close the scenario block");
                return;
            }
            Some(t) if t.kind == TokKind::RBrace => {
                p.bump();
                break;
            }
            Some(t) if t.kind == TokKind::Ident => {
                let kw = t.text(p.src).to_string();
                let before = p.diags.len();
                parse_statement(p, partial, &kw, t);
                if p.diags.len() > before {
                    p.sync();
                }
            }
            Some(t) => {
                let found = p.found();
                p.diags.push(Diag::new(
                    t.line,
                    t.col,
                    format!("expected a statement keyword, found {found}"),
                ));
                p.sync();
            }
        }
    }
    if p.peek().is_some() {
        p.err_here("trailing input after the scenario block");
    }
}

fn dup_check<T>(p: &mut Parser<'_>, slot: &Option<Sp<T>>, kw: &str, at: Tok) -> bool {
    if slot.is_some() {
        p.diags.push(Diag::new(
            at.line,
            at.col,
            format!("duplicate '{kw}' statement"),
        ));
        return true;
    }
    false
}

fn parse_statement(p: &mut Parser<'_>, partial: &mut Partial, kw: &str, at: Tok) {
    match kw {
        "topology" => {
            if dup_check(p, &partial.topology, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            if let Some(topo) = parse_topology(p) {
                partial.topology = Some(Sp {
                    v: topo,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "seed" => {
            if dup_check(p, &partial.seed, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            partial.seed = p.take_u64("seed");
        }
        "coordinator" => {
            if dup_check(p, &partial.coordinator, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            if let Some(t) = p.take_ident("'on' or 'off'") {
                match t.text(p.src) {
                    "on" => {
                        partial.coordinator = Some(Sp {
                            v: true,
                            line: at.line,
                            col: at.col,
                        });
                    }
                    "off" => {
                        partial.coordinator = Some(Sp {
                            v: false,
                            line: at.line,
                            col: at.col,
                        });
                    }
                    other => {
                        p.diags.push(Diag::new(
                            t.line,
                            t.col,
                            format!("expected 'on' or 'off', found '{other}'"),
                        ));
                    }
                }
            }
        }
        "flow" => {
            p.bump();
            if let Some(flow) = parse_flow(p) {
                partial.flows.push(Sp {
                    v: flow,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "phases" => {
            if dup_check(p, &partial.phases, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            if let Some(list) = parse_phases(p) {
                partial.phases = Some(Sp {
                    v: list,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "fault" => {
            p.bump();
            if let Some(fault) = parse_fault(p) {
                partial.faults.push(Sp {
                    v: fault,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "on" => {
            p.bump();
            if let Some(trigger) = parse_trigger(p) {
                partial.triggers.push(Sp {
                    v: trigger,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "slo" => {
            if dup_check(p, &partial.slo, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            if let Some(slo) = parse_slo(p) {
                partial.slo = Some(Sp {
                    v: slo,
                    line: at.line,
                    col: at.col,
                });
            }
        }
        "expect" => {
            if dup_check(p, &partial.expect, kw, at) {
                p.bump();
                return;
            }
            p.bump();
            if let Some(t) = p.take_ident("'survived', 'rerouted' or 'escalated'") {
                match Expect::from_name(t.text(p.src)) {
                    Some(e) => {
                        partial.expect = Some(Sp {
                            v: e,
                            line: at.line,
                            col: at.col,
                        });
                    }
                    None => {
                        p.diags.push(Diag::new(
                            t.line,
                            t.col,
                            format!(
                                "unknown verdict '{}' (expected survived, rerouted or escalated)",
                                t.text(p.src)
                            ),
                        ));
                    }
                }
            }
        }
        other => {
            p.diags.push(Diag::new(
                at.line,
                at.col,
                format!("unknown keyword '{other}'"),
            ));
            p.bump();
        }
    }
}

fn parse_topology(p: &mut Parser<'_>) -> Option<Topo> {
    let t = p.take_ident("a topology (two_node, star, ring, fat_tree, torus)")?;
    let shape = t.text(p.src).to_string();
    match shape.as_str() {
        "two_node" => Some(Topo::TwoNode),
        "star" => {
            let n = p.take_u16("host count")?;
            if n.v < 2 {
                p.diags
                    .push(Diag::new(n.line, n.col, "a star needs at least 2 hosts"));
                return None;
            }
            Some(Topo::Star(n.v))
        }
        "ring" => {
            let n = p.take_u16("host count")?;
            if n.v < 3 {
                p.diags
                    .push(Diag::new(n.line, n.col, "a ring needs at least 3 hosts"));
                return None;
            }
            Some(Topo::Ring(n.v))
        }
        "fat_tree" => {
            let spines = p.take_u16("spine count")?;
            let leaves = p.take_u16("leaf count")?;
            let hosts = p.take_u16("hosts-per-leaf count")?;
            if spines.v == 0 || leaves.v == 0 || hosts.v == 0 {
                p.diags.push(Diag::new(
                    spines.line,
                    spines.col,
                    "fat_tree needs at least one spine, leaf and host per leaf",
                ));
                return None;
            }
            Some(Topo::FatTree {
                spines: spines.v,
                leaves: leaves.v,
                hosts_per_leaf: hosts.v,
            })
        }
        "torus" => {
            let cols = p.take_u16("column count")?;
            let rows = p.take_u16("row count")?;
            if cols.v < 2 || rows.v < 2 {
                p.diags.push(Diag::new(
                    cols.line,
                    cols.col,
                    "a torus needs at least 2 columns and 2 rows",
                ));
                return None;
            }
            Some(Topo::Torus {
                cols: cols.v,
                rows: rows.v,
            })
        }
        other => {
            p.diags.push(Diag::new(
                t.line,
                t.col,
                format!(
                    "unknown topology '{other}' (expected two_node, star, ring, fat_tree or torus)"
                ),
            ));
            None
        }
    }
}

fn parse_flow(p: &mut Parser<'_>) -> Option<FlowDecl> {
    let src = p.take_u16("source node")?;
    p.expect_punct(TokKind::Arrow, "'->'")?;
    let dst = p.take_u16("destination node")?;
    let kind_tok = p.take_ident("'validated', 'open' or 'closed'")?;
    let kind = match kind_tok.text(p.src) {
        "validated" => {
            let mut size = 256u32;
            let mut pipeline = 2u32;
            if p.peek().is_some_and(|t| t.text(p.src) == "size") {
                p.bump();
                size = p.take_size("message size")?;
            }
            if p.peek().is_some_and(|t| t.text(p.src) == "pipeline") {
                p.bump();
                let d = p.take_u32("pipeline depth")?;
                if !(1..=64).contains(&d.v) {
                    p.diags.push(Diag::new(
                        d.line,
                        d.col,
                        format!("pipeline depth {} must be within 1..=64", d.v),
                    ));
                    return None;
                }
                pipeline = d.v;
            }
            FlowKind::Validated { size, pipeline }
        }
        "open" => {
            let arrival = parse_arrival(p)?;
            p.expect_kw("sizes")?;
            let sizes = parse_mix(p)?;
            FlowKind::Open { arrival, sizes }
        }
        "closed" => {
            p.expect_kw("think")?;
            let think = p.take_dur("think time")?;
            p.expect_kw("sizes")?;
            let sizes = parse_mix(p)?;
            FlowKind::Closed {
                think: think.v,
                sizes,
            }
        }
        other => {
            p.diags.push(Diag::new(
                kind_tok.line,
                kind_tok.col,
                format!("unknown flow kind '{other}' (expected validated, open or closed)"),
            ));
            return None;
        }
    };
    Some(FlowDecl {
        src: src.v,
        dst: dst.v,
        kind,
    })
}

fn parse_arrival(p: &mut Parser<'_>) -> Option<ArrivalDecl> {
    let t = p.take_ident("an arrival model ('every', 'jitter' or 'burst')")?;
    match t.text(p.src) {
        "every" => Some(ArrivalDecl::Every(p.take_pos_dur("arrival gap")?.v)),
        "jitter" => {
            let min = p.take_pos_dur("jitter lower edge")?;
            p.expect_punct(TokKind::DotDot, "'..'")?;
            let max = p.take_pos_dur("jitter upper edge")?;
            if min.v.as_nanos() > max.v.as_nanos() {
                p.diags.push(Diag::new(
                    min.line,
                    min.col,
                    "jitter window is reversed (lower edge exceeds upper edge)",
                ));
                return None;
            }
            Some(ArrivalDecl::Jitter {
                min: min.v,
                max: max.v,
            })
        }
        "burst" => {
            p.expect_kw("scale")?;
            let scale = p.take_pos_dur("burst scale")?;
            p.expect_kw("shape")?;
            let shape = p.take_u32("burst shape (permille)")?;
            if !(1..=10_000).contains(&shape.v) {
                p.diags.push(Diag::new(
                    shape.line,
                    shape.col,
                    format!("burst shape {} must be within 1..=10000 permille", shape.v),
                ));
                return None;
            }
            p.expect_kw("cap")?;
            let cap = p.take_pos_dur("burst cap")?;
            if cap.v.as_nanos() < scale.v.as_nanos() {
                p.diags.push(Diag::new(
                    cap.line,
                    cap.col,
                    "burst cap is smaller than its scale",
                ));
                return None;
            }
            Some(ArrivalDecl::Burst {
                scale: scale.v,
                shape_permille: shape.v,
                cap: cap.v,
            })
        }
        other => {
            p.diags.push(Diag::new(
                t.line,
                t.col,
                format!("unknown arrival model '{other}' (expected every, jitter or burst)"),
            ));
            None
        }
    }
}

fn parse_mix(p: &mut Parser<'_>) -> Option<MixDecl> {
    match p.peek() {
        Some(t) if t.kind == TokKind::Int => Some(MixDecl::Fixed(p.take_size("message size")?)),
        Some(t) if t.kind == TokKind::Ident && t.text(p.src) == "mix" => {
            p.bump();
            p.expect_punct(TokKind::LBrace, "'{' to open the size mix")?;
            let mut options = Vec::new();
            loop {
                let bytes = p.take_size("mix entry size")?;
                p.expect_punct(TokKind::Colon, "':' between size and weight")?;
                let weight = p.take_u32("mix entry weight")?;
                if weight.v == 0 {
                    p.diags.push(Diag::new(
                        weight.line,
                        weight.col,
                        "mix entry weight must be positive",
                    ));
                    return None;
                }
                options.push((bytes, weight.v));
                match p.peek() {
                    Some(t) if t.kind == TokKind::Comma => {
                        p.bump();
                    }
                    Some(t) if t.kind == TokKind::RBrace => {
                        p.bump();
                        break;
                    }
                    _ => {
                        let found = p.found();
                        p.err_here(format!(
                            "expected ',' or '}}' in the size mix, found {found}"
                        ));
                        return None;
                    }
                }
            }
            Some(MixDecl::Weighted(options))
        }
        _ => {
            let found = p.found();
            p.err_here(format!(
                "expected a size in bytes or 'mix {{ ... }}', found {found}"
            ));
            None
        }
    }
}

fn parse_phases(p: &mut Parser<'_>) -> Option<Vec<Sp<PhaseDecl>>> {
    p.expect_punct(TokKind::LBrace, "'{' to open the phase list")?;
    let mut list = Vec::new();
    loop {
        match p.peek() {
            Some(t) if t.kind == TokKind::RBrace => {
                p.bump();
                break;
            }
            Some(t) if t.kind == TokKind::Ident => {
                let Some(kind) = PhaseKind::from_name(t.text(p.src)) else {
                    p.diags.push(Diag::new(
                        t.line,
                        t.col,
                        format!(
                            "unknown phase '{}' (expected warmup, steady, fault or drain)",
                            t.text(p.src)
                        ),
                    ));
                    return None;
                };
                p.bump();
                let duration = p.take_pos_dur("phase length")?;
                list.push(Sp {
                    v: PhaseDecl {
                        kind,
                        duration: duration.v,
                    },
                    line: t.line,
                    col: t.col,
                });
            }
            _ => {
                let found = p.found();
                p.err_here(format!("expected a phase name or '}}', found {found}"));
                return None;
            }
        }
    }
    Some(list)
}

fn parse_action(p: &mut Parser<'_>) -> Option<Action> {
    let t = p.take_ident(
        "a fault action (bitflip, hang, link_down, noise, switch_death, link_flap)",
    )?;
    match t.text(p.src) {
        "bitflip" => {
            p.expect_kw("node")?;
            let node = p.take_u16("node id")?;
            p.expect_kw("target")?;
            let tt = p.take_ident("an injection target")?;
            let Some(target) = Target::from_name(tt.text(p.src)) else {
                p.diags.push(Diag::new(
                    tt.line,
                    tt.col,
                    format!(
                        "unknown injection target '{}' (expected send_chunk_code, \
                         packet_buffer or send_record)",
                        tt.text(p.src)
                    ),
                ));
                return None;
            };
            Some(Action::BitFlip {
                node: node.v,
                target,
            })
        }
        "hang" => {
            let which = p.take_ident("'node' or 'nodes'")?;
            match which.text(p.src) {
                "node" => Some(Action::Hang {
                    node: p.take_u16("node id")?.v,
                }),
                "nodes" => {
                    let mut nodes = Vec::new();
                    while p.peek().is_some_and(|t| t.kind == TokKind::Int) {
                        nodes.push(p.take_u16("node id")?.v);
                    }
                    if nodes.is_empty() {
                        p.err_here("expected at least one node id after 'nodes'");
                        return None;
                    }
                    p.expect_kw("skew")?;
                    let skew = p.take_dur("hang skew")?;
                    Some(Action::CorrelatedHang {
                        nodes,
                        skew: skew.v,
                    })
                }
                other => {
                    p.diags.push(Diag::new(
                        which.line,
                        which.col,
                        format!("expected 'node' or 'nodes', found '{other}'"),
                    ));
                    None
                }
            }
        }
        "link_down" => {
            p.expect_kw("node")?;
            let node = p.take_u16("node id")?;
            p.expect_kw("for")?;
            let duration = p.take_pos_dur("outage length")?;
            Some(Action::LinkDown {
                node: node.v,
                duration: duration.v,
            })
        }
        "noise" => {
            p.expect_kw("drop")?;
            let drop = p.take_u32("drop probability (permille)")?;
            p.expect_kw("corrupt")?;
            let corrupt = p.take_u32("corrupt probability (permille)")?;
            for v in [&drop, &corrupt] {
                if v.v > 1000 {
                    p.diags.push(Diag::new(
                        v.line,
                        v.col,
                        format!("probability {} exceeds 1000 permille", v.v),
                    ));
                    return None;
                }
            }
            p.expect_kw("for")?;
            let duration = p.take_pos_dur("noise window")?;
            Some(Action::Noise {
                drop_permille: drop.v,
                corrupt_permille: corrupt.v,
                duration: duration.v,
            })
        }
        "switch_death" => Some(Action::SwitchDeath {
            switch: p.take_u16("switch id")?.v,
        }),
        "link_flap" => {
            p.expect_kw("node")?;
            let node = p.take_u16("node id")?;
            p.expect_kw("period")?;
            let period = p.take_pos_dur("flap period")?;
            p.expect_kw("count")?;
            let count = p.take_u32("flap count")?;
            if count.v == 0 {
                p.diags.push(Diag::new(
                    count.line,
                    count.col,
                    "flap count must be positive",
                ));
                return None;
            }
            Some(Action::LinkFlap {
                node: node.v,
                period: period.v,
                count: count.v,
            })
        }
        other => {
            p.diags.push(Diag::new(
                t.line,
                t.col,
                format!(
                    "unknown fault action '{other}' (expected bitflip, hang, link_down, \
                     noise, switch_death or link_flap)"
                ),
            ));
            None
        }
    }
}

fn parse_fault(p: &mut Parser<'_>) -> Option<FaultDecl> {
    p.expect_kw("in")?;
    let pt = p.take_ident("a phase name")?;
    let Some(phase) = PhaseKind::from_name(pt.text(p.src)) else {
        p.diags.push(Diag::new(
            pt.line,
            pt.col,
            format!(
                "unknown phase '{}' (expected warmup, steady, fault or drain)",
                pt.text(p.src)
            ),
        ));
        return None;
    };
    p.expect_kw("at")?;
    let at = p.take_dur("fault offset")?;
    let action = parse_action(p)?;
    Some(FaultDecl {
        phase,
        at: at.v,
        action,
    })
}

fn parse_trigger(p: &mut Parser<'_>) -> Option<TriggerDecl> {
    p.expect_kw("node")?;
    let node = p.take_u16("node id")?;
    p.expect_kw("phase")?;
    let pt = p.take_ident("an FTD phase name")?;
    let Some(phase) = RecoveryPhase::from_name(pt.text(p.src)) else {
        p.diags.push(Diag::new(
            pt.line,
            pt.col,
            format!(
                "unknown FTD phase '{}' (expected reset, clear_sram, reload_mcp, \
                 restart_engines, restore_page_table or restore_routes)",
                pt.text(p.src)
            ),
        ));
        return None;
    };
    let action = parse_action(p)?;
    let mut limit = 1u32;
    if p.peek().is_some_and(|t| t.text(p.src) == "limit") {
        p.bump();
        let l = p.take_u32("trigger limit")?;
        if l.v == 0 {
            p.diags
                .push(Diag::new(l.line, l.col, "trigger limit must be positive"));
            return None;
        }
        limit = l.v;
    }
    Some(TriggerDecl {
        node: node.v,
        phase,
        action,
        limit,
    })
}

fn parse_slo(p: &mut Parser<'_>) -> Option<SloDecl> {
    p.expect_punct(TokKind::LBrace, "'{' to open the slo block")?;
    let mut slo = SloDecl::default();
    loop {
        match p.peek() {
            Some(t) if t.kind == TokKind::RBrace => {
                p.bump();
                break;
            }
            Some(t) if t.kind == TokKind::Ident => {
                let key = t.text(p.src).to_string();
                p.bump();
                match key.as_str() {
                    "flow_blackout" => {
                        if slo.flow_blackout.is_some() {
                            p.diags
                                .push(Diag::new(t.line, t.col, "duplicate 'flow_blackout' bound"));
                            return None;
                        }
                        slo.flow_blackout = Some(p.take_pos_dur("flow blackout bound")?.v);
                    }
                    "fault_blackout" => {
                        if slo.fault_blackout.is_some() {
                            p.diags
                                .push(Diag::new(t.line, t.col, "duplicate 'fault_blackout' bound"));
                            return None;
                        }
                        slo.fault_blackout = Some(p.take_pos_dur("fault blackout bound")?.v);
                    }
                    "steady_completed" => {
                        if slo.steady_completed.is_some() {
                            p.diags.push(Diag::new(
                                t.line,
                                t.col,
                                "duplicate 'steady_completed' bound",
                            ));
                            return None;
                        }
                        let v = p.take_u32("completion bound (permille)")?;
                        if v.v > 1000 {
                            p.diags.push(Diag::new(
                                v.line,
                                v.col,
                                format!("completion bound {} exceeds 1000 permille", v.v),
                            ));
                            return None;
                        }
                        slo.steady_completed = Some(v.v);
                    }
                    "p99_overhead" => {
                        if slo.p99_overhead.is_some() {
                            p.diags
                                .push(Diag::new(t.line, t.col, "duplicate 'p99_overhead' bound"));
                            return None;
                        }
                        slo.p99_overhead = Some(p.take_pos_dur("p99 overhead bound")?.v);
                    }
                    other => {
                        p.diags.push(Diag::new(
                            t.line,
                            t.col,
                            format!(
                                "unknown slo bound '{other}' (expected flow_blackout, \
                                 fault_blackout, steady_completed or p99_overhead)"
                            ),
                        ));
                        return None;
                    }
                }
            }
            _ => {
                let found = p.found();
                p.err_here(format!("expected an slo bound or '}}', found {found}"));
                return None;
            }
        }
    }
    Some(slo)
}

/// All node ids an action touches.
fn action_nodes(a: &Action) -> Vec<u16> {
    match a {
        Action::BitFlip { node, .. }
        | Action::Hang { node }
        | Action::LinkDown { node, .. }
        | Action::LinkFlap { node, .. } => vec![*node],
        Action::CorrelatedHang { nodes, .. } => nodes.clone(),
        Action::Noise { .. } | Action::SwitchDeath { .. } => Vec::new(),
    }
}

/// Cross-declaration validation on a syntactically clean parse.
fn validate(p: &Parser<'_>, partial: Partial) -> Result<Spec, Vec<Diag>> {
    let mut diags = Vec::new();
    let head = partial
        .name
        .as_ref()
        .map_or((1, 1), |n| (n.line, n.col));

    let Partial {
        name,
        topology,
        seed,
        coordinator,
        flows,
        phases,
        faults,
        triggers,
        slo,
        expect,
    } = partial;

    let name = match name {
        Some(n) => n.v,
        None => {
            diags.push(Diag::new(head.0, head.1, "missing scenario name"));
            String::new()
        }
    };
    if topology.is_none() {
        diags.push(Diag::new(
            head.0,
            head.1,
            "missing 'topology' statement",
        ));
    }
    if phases.is_none() {
        diags.push(Diag::new(head.0, head.1, "missing 'phases' statement"));
    }
    if expect.is_none() {
        diags.push(Diag::new(head.0, head.1, "missing 'expect' statement"));
    }
    if flows.is_empty() {
        diags.push(Diag::new(
            head.0,
            head.1,
            "a scenario needs at least one 'flow'",
        ));
    }
    let (Some(topology), Some(phases), Some(expect)) = (topology, phases, expect) else {
        return Err(diags);
    };

    let topo = topology.v;
    let nodes = topo.node_count();
    let switches = topo.switch_count();
    if u32::from(nodes) > MAX_NODES {
        diags.push(Diag::new(
            topology.line,
            topology.col,
            format!("topology has {nodes} hosts; the ceiling is {MAX_NODES}"),
        ));
    }
    if nodes < 2 {
        diags.push(Diag::new(
            topology.line,
            topology.col,
            format!("topology has only {nodes} host(s); flows need two endpoints"),
        ));
    }

    // Phases: warmup first, each kind at most once, timeline order.
    let list = &phases.v;
    match list.first() {
        None => diags.push(Diag::new(
            phases.line,
            phases.col,
            "the phase list is empty",
        )),
        Some(first) if first.v.kind != PhaseKind::Warmup => diags.push(Diag::new(
            first.line,
            first.col,
            "the first phase must be 'warmup'",
        )),
        Some(_) => {}
    }
    for pair in list.windows(2) {
        if let [a, b] = pair {
            if b.v.kind <= a.v.kind {
                let msg = if b.v.kind == a.v.kind {
                    format!("duplicate phase '{}'", b.v.kind.name())
                } else {
                    format!(
                        "phase '{}' cannot follow '{}' (timeline order is \
                         warmup, steady, fault, drain)",
                        b.v.kind.name(),
                        a.v.kind.name()
                    )
                };
                diags.push(Diag::new(b.line, b.col, msg));
            }
        }
    }

    // Flows: endpoints in range, and no two generators of one kind may
    // share a GM port on one node (each kind binds its own fixed ports).
    let mut validated_srcs: BTreeMap<u16, ()> = BTreeMap::new();
    let mut validated_dsts: BTreeMap<u16, ()> = BTreeMap::new();
    let mut load_srcs: BTreeMap<u16, ()> = BTreeMap::new();
    let mut load_dst_model: BTreeMap<u16, &'static str> = BTreeMap::new();
    for f in &flows {
        for (what, id) in [("source", f.v.src), ("destination", f.v.dst)] {
            if id >= nodes {
                diags.push(Diag::new(
                    f.line,
                    f.col,
                    format!(
                        "{what} node {id} is out of range (topology has hosts 0..{nodes})"
                    ),
                ));
            }
        }
        if f.v.src == f.v.dst {
            diags.push(Diag::new(
                f.line,
                f.col,
                format!("flow endpoints must differ (both are node {})", f.v.src),
            ));
        }
        match &f.v.kind {
            FlowKind::Validated { .. } => {
                if validated_srcs.insert(f.v.src, ()).is_some() {
                    diags.push(Diag::new(
                        f.line,
                        f.col,
                        format!("two validated flows share source node {}", f.v.src),
                    ));
                }
                if validated_dsts.insert(f.v.dst, ()).is_some() {
                    diags.push(Diag::new(
                        f.line,
                        f.col,
                        format!("two validated flows share destination node {}", f.v.dst),
                    ));
                }
            }
            kind => {
                if load_srcs.insert(f.v.src, ()).is_some() {
                    diags.push(Diag::new(
                        f.line,
                        f.col,
                        format!("two load flows share source node {}", f.v.src),
                    ));
                }
                let model = if matches!(kind, FlowKind::Closed { .. }) {
                    "closed"
                } else {
                    "open"
                };
                if let Some(prev) = load_dst_model.insert(f.v.dst, model) {
                    if prev != model {
                        diags.push(Diag::new(
                            f.line,
                            f.col,
                            format!(
                                "load flows to node {} mix open and closed models \
                                 (one responder per destination)",
                                f.v.dst
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Faults: declared phase, not warmup, offset inside the phase,
    // action endpoints in range.
    for f in &faults {
        if f.v.phase == PhaseKind::Warmup {
            diags.push(Diag::new(
                f.line,
                f.col,
                "faults cannot fire in the warmup phase (inject in steady, fault or drain)",
            ));
        }
        match list.iter().find(|ph| ph.v.kind == f.v.phase) {
            None => diags.push(Diag::new(
                f.line,
                f.col,
                format!("fault names phase '{}', which is not declared", f.v.phase.name()),
            )),
            Some(ph) => {
                if f.v.at.as_nanos() > ph.v.duration.as_nanos() {
                    diags.push(Diag::new(
                        f.line,
                        f.col,
                        format!(
                            "fault offset exceeds the '{}' phase ({} ns > {} ns)",
                            f.v.phase.name(),
                            f.v.at.as_nanos(),
                            ph.v.duration.as_nanos()
                        ),
                    ));
                }
            }
        }
        check_action(&mut diags, &f.v.action, nodes, switches, topo, f.line, f.col);
    }
    for t in &triggers {
        if t.v.node >= nodes {
            diags.push(Diag::new(
                t.line,
                t.col,
                format!(
                    "trigger node {} is out of range (topology has hosts 0..{nodes})",
                    t.v.node
                ),
            ));
        }
        check_action(&mut diags, &t.v.action, nodes, switches, topo, t.line, t.col);
    }

    // SLO bounds must be observable.
    let slo_sp = slo;
    let slo = slo_sp.as_ref().map(|s| s.v).unwrap_or_default();
    let has_validated = !validated_srcs.is_empty();
    let has_load = !load_srcs.is_empty();
    if let Some(s) = &slo_sp {
        let has_phase = |k: PhaseKind| list.iter().any(|p| p.v.kind == k);
        if slo.flow_blackout.is_some() && !has_validated {
            diags.push(Diag::new(
                s.line,
                s.col,
                "'flow_blackout' needs at least one validated flow to observe",
            ));
        }
        for (key, set, phase) in [
            ("fault_blackout", slo.fault_blackout.is_some(), PhaseKind::Fault),
            ("steady_completed", slo.steady_completed.is_some(), PhaseKind::Steady),
            ("p99_overhead", slo.p99_overhead.is_some(), PhaseKind::Steady),
        ] {
            if set && !has_load {
                diags.push(Diag::new(
                    s.line,
                    s.col,
                    format!("'{key}' needs at least one open or closed load flow"),
                ));
            }
            if set && !has_phase(phase) {
                diags.push(Diag::new(
                    s.line,
                    s.col,
                    format!("'{key}' needs a declared '{}' phase", phase.name()),
                ));
            }
        }
    }

    // The pinned verdict must be reachable.
    let coordinator = coordinator.map(|c| c.v).unwrap_or(false);
    let has_faults = !faults.is_empty() || !triggers.is_empty();
    match expect.v {
        Expect::Rerouted if !coordinator => diags.push(Diag::new(
            expect.line,
            expect.col,
            "'expect rerouted' is unreachable with the coordinator off \
             (add 'coordinator on')",
        )),
        Expect::Rerouted | Expect::Escalated if !has_faults => diags.push(Diag::new(
            expect.line,
            expect.col,
            format!(
                "'expect {}' is unreachable: the scenario declares no faults",
                expect.v.name()
            ),
        )),
        _ => {}
    }

    if !diags.is_empty() {
        return Err(diags);
    }
    let _ = p;
    Ok(Spec {
        name,
        topology: topo,
        seed: seed.map(|s| s.v),
        coordinator,
        flows: flows.into_iter().map(|f| f.v).collect(),
        phases: list.iter().map(|p| p.v).collect(),
        faults: faults.into_iter().map(|f| f.v).collect(),
        triggers: triggers.into_iter().map(|t| t.v).collect(),
        slo,
        expect: expect.v,
    })
}

#[allow(clippy::too_many_arguments)]
fn check_action(
    diags: &mut Vec<Diag>,
    action: &Action,
    nodes: u16,
    switches: u16,
    topo: Topo,
    line: u32,
    col: u32,
) {
    for n in action_nodes(action) {
        if n >= nodes {
            diags.push(Diag::new(
                line,
                col,
                format!("node {n} is out of range (topology has hosts 0..{nodes})"),
            ));
        }
    }
    if let Action::CorrelatedHang { nodes: hung, .. } = action {
        let mut seen: BTreeMap<u16, ()> = BTreeMap::new();
        for n in hung {
            if seen.insert(*n, ()).is_some() {
                diags.push(Diag::new(
                    line,
                    col,
                    format!("correlated hang lists node {n} twice"),
                ));
            }
        }
    }
    if let Action::SwitchDeath { switch } = action {
        if topo == Topo::TwoNode {
            diags.push(Diag::new(
                line,
                col,
                "two_node has no switches to kill",
            ));
        } else if *switch >= switches {
            diags.push(Diag::new(
                line,
                col,
                format!(
                    "switch {switch} is out of range (topology has switches 0..{switches})"
                ),
            ));
        }
    }
}
