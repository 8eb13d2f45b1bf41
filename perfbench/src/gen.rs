//! Seeded inputs and their independent references.
//!
//! Everything the program under test receives is generated here from the
//! `--seed` argument: the spelling of each program (α-renamings), the order
//! of rows and requests, and the cost-neutral constants that make service
//! requests distinct. The seed never changes *what* is computed, so the
//! reference values below hold for every seed.

use std::fmt;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FBE_4C4A_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Names for the recursive function and its argument. Every pair is a valid
/// identifier that is neither a keyword nor a primitive.
const FN_NAMES: [&str; 8] = ["phi", "f", "go", "rec_a", "loop_b", "h2", "self_r", "walk"];
const ARG_NAMES: [&str; 8] = ["x", "n", "y1", "z_", "v", "cnt", "m2", "w"];

/// Number of distinct α-renamings of one template.
pub const SPELLINGS: usize = FN_NAMES.len() * ARG_NAMES.len();

/// Instantiates a template whose bound names are written `{f}` and `{x}`
/// with the `spelling`-th renaming.
pub fn spell(template: &str, spelling: usize) -> String {
    let spelling = spelling % SPELLINGS;
    template
        .replace("{f}", FN_NAMES[spelling / ARG_NAMES.len()])
        .replace("{x}", ARG_NAMES[spelling % ARG_NAMES.len()])
}

/// A fraction in lowest terms, rendered the way the program renders
/// rationals (`n/d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Frac {
    pub num: u64,
    pub den: u64,
}

impl Frac {
    pub fn new(num: u64, den: u64) -> Frac {
        let (mut a, mut b) = (num, den);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Frac {
            num: num / a,
            den: den / a,
        }
    }

    pub fn value(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    pub fn complement(self) -> Frac {
        Frac::new(self.den - self.num, self.den)
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Pterm of the tree-recursive programs `gr` and 3print(1/2): the inverse
/// golden ratio, the least fixpoint of `q = 1/2 + q³/2`.
pub const INV_GOLDEN: f64 = 0.618_033_988_749_894_9;

// ---------------------------------------------------------------------------
// paper-lower: the paper's Tables 1 and 2 as CLI rows
// ---------------------------------------------------------------------------

/// What a CLI row runs and the reference its output is checked against.
#[derive(Clone, Copy, Debug)]
pub enum RowKind {
    /// `probterm lower --depth d`: the bound must equal `pinned` (10 digits,
    /// truncated) and be at most `pterm`.
    Lower {
        depth: usize,
        pinned: &'static str,
        pterm: f64,
    },
    /// `probterm lower --depth d --deadline-ms t`: any bound at most `pterm`.
    Deadline {
        depth: usize,
        deadline_ms: u64,
        pterm: f64,
    },
    /// `probterm verify`: the verdict must be AST with the paper's `P_approx`.
    Verify { papprox: &'static str },
}

#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub name: &'static str,
    pub template: &'static str,
    pub kind: RowKind,
}

const GEO_HALF: &str = "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({x} + 1)) 0";
const GOLDEN: &str = "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({f} ({f} {x}))) 0";

/// One pass of `paper-lower`: Table 1 at the paper's depths (the `d` column,
/// as in `probterm_bench::table1_depths`), three rows whose guards are
/// nonlinear (so every path is measured by the box sweep), one
/// deadline-bounded row and Table 2.
///
/// The pinned bounds were produced by the engine the benchmark was written
/// against; each is also checked against the row's known Pterm.
pub fn paper_rows() -> Vec<Row> {
    use RowKind::*;
    let lower = |depth, pinned, pterm| Lower {
        depth,
        pinned,
        pterm,
    };
    let nonlinear = |pinned| Lower {
        depth: 60,
        pinned,
        pterm: 1.0,
    };
    vec![
        Row { name: "geo(1/2)", template: GEO_HALF, kind: lower(100, "0.9999990463", 1.0) },
        Row {
            name: "geo(1/5)",
            template: "(fix {f} {x}. if sample <= 1/5 then {x} else {f} ({x} + 1)) 0",
            kind: lower(200, "0.9998670772", 1.0),
        },
        Row {
            name: "1dRW(1/2,1)",
            template: "(fix {f} {x}. if {x} <= 0 then {x} else flip(1/2, {f} ({x} - 1), {f} ({x} + 1))) 1",
            kind: lower(200, "0.7905273437", 1.0),
        },
        Row {
            name: "1dRW(7/10,1)",
            template: "(fix {f} {x}. if {x} <= 0 then {x} else flip(7/10, {f} ({x} - 1), {f} ({x} + 1))) 1",
            kind: lower(150, "0.9722198949", 1.0),
        },
        Row { name: "gr", template: GOLDEN, kind: lower(80, "0.6085357666", INV_GOLDEN) },
        Row {
            name: "Ex1.1(2) p=1/2",
            template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({f} ({x} + 1))) 1",
            kind: lower(90, "0.8141937255", 1.0),
        },
        Row {
            name: "Ex1.1(2) p=1/4",
            template: "(fix {f} {x}. if sample <= 1/4 then {x} else {f} ({f} ({x} + 1))) 1",
            kind: lower(90, "0.3322890490", 1.0 / 3.0),
        },
        Row {
            name: "3print(3/4)",
            template: "(fix {f} {x}. if sample <= 3/4 then {x} else {f} ({f} ({f} ({x} + 1)))) 1",
            kind: lower(80, "0.9523830364", 1.0),
        },
        Row {
            name: "bin(1/2,2)",
            template: "(fix {f} {x}. if {x} <= 0 then 0 else flip(1/2, {f} ({x} - 1), {f} {x})) 2",
            kind: lower(100, "0.9991149902", 1.0),
        },
        Row {
            name: "pedestrian",
            template: "(fix {f} {x}. lam d. if {x} <= 0 then d else flip(1/2, {f} ({x} - sample) (d + 1), {f} ({x} + sample) (d + 1))) (3 * sample) 0",
            kind: lower(40, "0.1782407407", 1.0),
        },
        Row {
            name: "nl-square",
            template: "(fix {f} {x}. if sample * sample <= 1/2 then {x} else {f} ({x} + 1)) 0",
            kind: nonlinear("0.9233283996"),
        },
        Row {
            name: "nl-quadratic",
            template: "(fix {f} {x}. if sample * sample + sample <= 1 then {x} else {f} ({x} + 1)) 0",
            kind: nonlinear("0.7172851562"),
        },
        Row {
            name: "nl-cube",
            template: "(fix {f} {x}. if sample * sample * sample <= 1/2 then {x} else {f} ({x} + 1)) 0",
            kind: nonlinear("0.9598999023"),
        },
        Row {
            name: "gr-deadline",
            template: GOLDEN,
            kind: Deadline { depth: 4000, deadline_ms: 100, pterm: INV_GOLDEN },
        },
        Row {
            name: "T2 Ex1.1(1) p=1/2",
            template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({x} + 1)) 1",
            kind: Verify { papprox: "1/2·δ0 + 1/2·δ1" },
        },
        Row {
            name: "T2 Ex1.1(2) p=1/2",
            template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({f} ({x} + 1))) 1",
            kind: Verify { papprox: "1/2·δ0 + 1/2·δ2" },
        },
        Row {
            name: "T2 3print(2/3)",
            template: "(fix {f} {x}. if sample <= 2/3 then {x} else {f} ({f} ({f} ({x} + 1)))) 1",
            kind: Verify { papprox: "2/3·δ0 + 1/3·δ3" },
        },
        Row {
            name: "T2 Ex5.1 p=3/5",
            template: "(fix {f} {x}. flip(3/5, {x}, flip(sig({x}), flip(1/2, {f} ({f} ({f} ({x} + 1))), {f} ({f} ({x} + 1))), {f} ({f} ({x} + 1))))) 1",
            kind: Verify { papprox: "3/5·δ0 + 1/5·δ2 + 1/5·δ3" },
        },
        Row {
            name: "T2 Ex5.15 p=13/20",
            template: "(fix {f} {x}. let e = sample in if e <= 13/20 then {x} else (if sample <= sig({x}) then (if sample <= e then {f} ({f} ({f} ({x} + 1))) else {f} ({f} ({x} + 1))) else {f} ({f} ({x} + 1)))) 1",
            kind: Verify { papprox: "13/20·δ0 + 49/800·δ2 + 231/800·δ3" },
        },
    ]
}

/// The program whose cold start `paper-lower` times as its set-up.
pub fn setup_row() -> Row {
    Row {
        name: "setup",
        template: GEO_HALF,
        kind: RowKind::Verify {
            papprox: "1/2·δ0 + 1/2·δ1",
        },
    }
}

// ---------------------------------------------------------------------------
// serve-hot and serve-cold: generated service requests
// ---------------------------------------------------------------------------

/// The engine ops the service workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Verify,
    Lower,
    Analyze,
    Explain,
    /// A deadline-bounded `lower` on a wide-frontier program.
    Deadline,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Verify,
        Op::Lower,
        Op::Analyze,
        Op::Explain,
        Op::Deadline,
    ];

    /// The wire op name.
    pub fn wire(self) -> &'static str {
        match self {
            Op::Verify => "verify",
            Op::Lower | Op::Deadline => "lower",
            Op::Analyze => "analyze",
            Op::Explain => "explain",
        }
    }

    /// The name results are reported under.
    pub fn label(self) -> &'static str {
        match self {
            Op::Deadline => "lower_deadline",
            other => other.wire(),
        }
    }
}

/// Termination probabilities of the printer family (paper Ex. 1.1(2)),
/// `k/16` for `k = 1..=15`: AST iff `p ≥ 1/2`.
pub fn printer_probabilities() -> Vec<Frac> {
    (1..=15).map(|k| Frac::new(k, 16)).collect()
}

/// One service request, before it is spelled and numbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    pub op: Op,
    /// Printer success probability (ignored by `Deadline`).
    pub p: Frac,
    /// Increment constant: changes the canonical key, not the analysis.
    pub k: u64,
    /// Start value: changes the canonical key, not the analysis.
    pub s: u64,
    pub depth: usize,
}

pub const DEADLINE_MS: u64 = 50;
pub const DEADLINE_DEPTH: usize = 400;
pub const EXPLAIN_TOP: usize = 3;

impl Spec {
    pub fn template(&self) -> String {
        match self.op {
            Op::Deadline => format!(
                "(fix {{f}} {{x}}. if sample <= 1/2 then {{x}} else {{f}} ({{f}} ({{f}} ({{x}} + {})))) {}",
                self.k, self.s
            ),
            _ => format!(
                "(fix {{f}} {{x}}. if sample <= {} then {{x}} else {{f}} ({{f}} ({{x}} + {}))) {}",
                self.p, self.k, self.s
            ),
        }
    }

    /// The request line with the given id and program spelling.
    pub fn line(&self, id: u64, spelling: usize) -> String {
        format!(r#"{{"id":{id},{}"#, self.body(spelling))
    }

    /// The request line after its id: `"op":…,"program":…}`.
    pub fn body(&self, spelling: usize) -> String {
        let program = spell(&self.template(), spelling);
        let mut body = format!(r#""op":"{}","program":"{program}""#, self.op.wire());
        match self.op {
            Op::Verify => {}
            Op::Lower | Op::Analyze => body.push_str(&format!(r#","depth":{}"#, self.depth)),
            Op::Explain => {
                body.push_str(&format!(r#","depth":{},"top":{EXPLAIN_TOP}"#, self.depth))
            }
            Op::Deadline => body.push_str(&format!(
                r#","depth":{DEADLINE_DEPTH},"deadline_ms":{DEADLINE_MS}"#
            )),
        }
        body.push('}');
        body
    }

    /// The closed-form termination probability `min(1, p/(1-p))`.
    pub fn pterm(&self) -> f64 {
        match self.op {
            Op::Deadline => INV_GOLDEN,
            _ => {
                let p = self.p.value();
                (p / (1.0 - p)).min(1.0)
            }
        }
    }

    /// AST iff `p ≥ 1/2`.
    pub fn ast(&self) -> bool {
        2 * self.p.num >= self.p.den
    }

    /// The counting distribution `P_approx = p·δ0 + (1-p)·δ2` (Ex. 1.1(2)).
    pub fn papprox(&self) -> String {
        format!("{}·δ0 + {}·δ2", self.p, self.p.complement())
    }

    /// Requests in the same class must receive the same bound: they differ
    /// only in cost-neutral constants.
    pub fn class(&self) -> (Op, Frac, usize) {
        (self.op, self.p, self.depth)
    }
}

/// The fixed set of distinct programs `serve-hot` cycles: every op over
/// every printer probability and six constant variants. 360 cache entries,
/// well under the service's 1,024-entry result cache.
pub fn hot_specs() -> Vec<Spec> {
    let mut specs = Vec::new();
    for op in [Op::Verify, Op::Lower, Op::Analyze, Op::Explain] {
        let depth = match op {
            Op::Lower => 30,
            Op::Analyze => 24,
            Op::Explain => 20,
            _ => 0,
        };
        for p in printer_probabilities() {
            for k in 1..=3 {
                for s in 0..=1 {
                    specs.push(Spec { op, p, k, s, depth });
                }
            }
        }
    }
    specs
}

/// `serve-cold`'s mix per block of 100 requests, besides the one
/// deadline-bounded `lower` at [`DEADLINE_SLOT`]. Cheap `verify` runs stay
/// under half, so the median request is a `lower` or `analyze` run rather
/// than the boundary between two clusters of latencies.
pub const COLD_MIX: [(Op, usize); 4] = [
    (Op::Verify, 35),
    (Op::Lower, 35),
    (Op::Analyze, 22),
    (Op::Explain, 7),
];

/// The slot of each block's deadline-bounded request. A fixed slot spaces
/// them a block apart, so two never hold both workers at once. One per block
/// also keeps them under 5 % of all `lower` runs: admission control prices a
/// queued request at its op's p95 engine time, and a larger share would make
/// that p95 a deadline run and shed requests.
pub const DEADLINE_SLOT: usize = 50;

/// The `i`-th `serve-cold` request. A pure function of `(seed, i)`, so the
/// receiving side recomputes what it expects from the reply id alone. Every
/// request gets its own increment constant, so no two share a canonical key;
/// each op cycles through the printer probabilities so that every class
/// appears in every block.
pub fn cold_spec(seed: u64, i: u64) -> (Spec, usize) {
    let block = i / 100;
    let mut ops: Vec<Op> = COLD_MIX
        .iter()
        .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
        .collect();
    Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(block)).shuffle(&mut ops);
    ops.insert(DEADLINE_SLOT, Op::Deadline);
    let slot = (i % 100) as usize;
    let op = ops[slot];
    let rank = ops[..slot].iter().filter(|&&o| o == op).count() as u64;
    let per_block = ops.iter().filter(|&&o| o == op).count() as u64;
    let ps = printer_probabilities();
    let p = ps[((block * per_block + rank) % ps.len() as u64) as usize];
    let depth = match op {
        Op::Verify => 0,
        Op::Deadline => DEADLINE_DEPTH,
        _ => 30,
    };
    let spec = Spec {
        op,
        p,
        k: 1_000 + i,
        s: seed % 97,
        depth,
    };
    let spelling = Rng::new(seed ^ i.wrapping_mul(0x9E37_79B9)).below(SPELLINGS);
    (spec, spelling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_are_distinct() {
        let all: std::collections::HashSet<String> =
            (0..SPELLINGS).map(|i| spell(GEO_HALF, i)).collect();
        assert_eq!(all.len(), SPELLINGS);
    }

    #[test]
    fn fractions_reduce() {
        assert_eq!(Frac::new(8, 16).to_string(), "1/2");
        assert_eq!(Frac::new(4, 16).complement().to_string(), "3/4");
    }

    #[test]
    fn cold_blocks_hold_the_mix() {
        let mut counts = std::collections::HashMap::new();
        for i in 0..100 {
            *counts.entry(cold_spec(7, i).0.op).or_insert(0) += 1;
        }
        for (op, n) in COLD_MIX {
            assert_eq!(counts[&op], n);
        }
        assert_eq!(counts[&Op::Deadline], 1);
        assert_eq!(cold_spec(7, DEADLINE_SLOT as u64 + 300).0.op, Op::Deadline);
    }
}
