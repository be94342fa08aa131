//! Seed-derived inputs: which generated designs each workload uses, the
//! renamed design variants the daemon sees as new, and the serve-mix
//! request sequence. Everything here is a pure function of the seed.

/// SplitMix64: a small, fixed, platform-independent generator, so a seed
/// means the same inputs on every machine and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values drawn from `pool`, in draw order.
    pub fn choose<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut items = pool.to_vec();
        let k = k.min(items.len());
        for i in 0..k {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
        items.truncate(k);
        items
    }
}

/// One design: `smo gen --stages S --width W --seed G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    /// Pipeline ranks (`--stages`).
    pub stages: usize,
    /// Latches per rank (`--width`).
    pub width: usize,
    /// Generator seed (`--seed`).
    pub gen_seed: u64,
}

impl Design {
    /// The `smo gen` arguments that write this design to `out`.
    pub fn gen_args(&self, out: &str) -> Vec<String> {
        [
            "gen",
            "--stages",
            &self.stages.to_string(),
            "--width",
            &self.width.to_string(),
            "--seed",
            &self.gen_seed.to_string(),
            "--out",
            out,
        ]
        .map(String::from)
        .to_vec()
    }

    /// File name for this design.
    pub fn file_name(&self) -> String {
        format!("dp{}x{}_s{}.ckt", self.stages, self.width, self.gen_seed)
    }
}

/// `(stages, width)` of the 10k-row datapath: 3,345 latches, 10,043 model
/// rows (what `smo gen --latches 3333` picks).
pub const SOLVE_SHAPE: (usize, usize) = (15, 223);
/// `(stages, width)` of the 655-row datapath: 216 latches.
pub const ANALYSIS_SHAPE: (usize, usize) = (6, 36);
/// `(stages, width)` of the 2k-row datapath: 672 latches, 2,023 rows. An
/// even rank count keeps the two-phase pipeline free of same-phase
/// wrap-around paths, so `check` is clean (`--latches 667` picks 9 ranks,
/// which `check` rightly flags with double-clocking races).
pub const SERVE_SHAPE: (usize, usize) = (8, 84);

fn designs(shape: (usize, usize), seeds: Vec<u64>) -> Vec<Design> {
    seeds
        .into_iter()
        .map(|gen_seed| Design {
            stages: shape.0,
            width: shape.1,
            gen_seed,
        })
        .collect()
}

/// Generator seeds of the `solve-10k` designs.
///
/// Every workload uses a fixed design set and the seed decides only the
/// order of work and, for `serve-mix`, the request stream. Solve time
/// varies by up to 2x between generated 10k-row designs; drawing designs
/// per seed spread the run median by 17% (solve-10k) to 26% (serve-mix)
/// across seeds, and the certified LP oracle costs about 16 s per 10k-row
/// design (cached per design fingerprint across runs).
pub const SOLVE_POOL: [u64; 8] = [1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008];
/// Generator seeds of the `analysis-655` designs.
pub const ANALYSIS_POOL: [u64; 3] = [2001, 2002, 2003];
/// Generator seeds of the `serve-mix` designs: all of them form the hot
/// set, and renamed copies of them are the designs the daemon has never
/// seen.
pub const SERVE_POOL: [u64; 6] = [3001, 3002, 3003, 3004, 3005, 3006];

/// The `solve-10k` designs in the seed's solve order.
pub fn solve_designs(seed: u64) -> Vec<Design> {
    designs(
        SOLVE_SHAPE,
        Rng::new(seed, "solve-10k").choose(&SOLVE_POOL, SOLVE_POOL.len()),
    )
}

/// The `analysis-655` designs in the seed's run order.
pub fn analysis_designs(seed: u64) -> Vec<Design> {
    designs(
        ANALYSIS_SHAPE,
        Rng::new(seed, "analysis-655").choose(&ANALYSIS_POOL, ANALYSIS_POOL.len()),
    )
}

/// The `serve-mix` designs (request streams index into this list).
pub fn serve_designs() -> Vec<Design> {
    designs(SERVE_SHAPE, SERVE_POOL.to_vec())
}

/// Renames every synchronizer of a netlist by prefixing `prefix`: the
/// circuit (and so its cycle time) is unchanged, but its bytes — and so
/// the daemon's fingerprint — are new.
pub fn rename(netlist: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(netlist.len() + netlist.len() / 8);
    for line in netlist.lines() {
        let mut words = line.split(' ');
        let renamed = match words.next() {
            Some(kw @ ("latch" | "ff")) => Some((kw, 1)),
            Some(kw @ "path") => Some((kw, 2)),
            _ => None,
        };
        match renamed {
            Some((kw, names)) => {
                out.push_str(kw);
                for (i, w) in words.enumerate() {
                    out.push(' ');
                    if i < names {
                        out.push_str(prefix);
                    }
                    out.push_str(w);
                }
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// What one `serve-mix` request asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServeKind {
    /// `solve` of a hot-set design: a result-cache hit.
    SolveHit,
    /// `solve` of a design the daemon has never seen: a full miss.
    SolveMiss,
    /// `verify` of a hot-set design above its optimal cycle time.
    ProbeFeasible,
    /// `verify` of a hot-set design below its optimal cycle time.
    ProbeInfeasible,
    /// `check` of a design the daemon has never seen.
    Check,
}

impl ServeKind {
    /// Every kind, in reporting order.
    pub const ALL: [ServeKind; 5] = [
        ServeKind::SolveHit,
        ServeKind::SolveMiss,
        ServeKind::ProbeFeasible,
        ServeKind::ProbeInfeasible,
        ServeKind::Check,
    ];

    /// Metric suffix.
    pub fn slug(self) -> &'static str {
        match self {
            ServeKind::SolveHit => "solve_hit",
            ServeKind::SolveMiss => "solve_miss",
            ServeKind::ProbeFeasible => "probe_feasible",
            ServeKind::ProbeInfeasible => "probe_infeasible",
            ServeKind::Check => "check",
        }
    }
}

/// One `serve-mix` request, before its line is rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOp {
    /// What it asks.
    pub kind: ServeKind,
    /// Index into [`serve_designs`]; misses and checks send a renamed
    /// copy.
    pub design: usize,
    /// Relative distance of a probe's cycle time from the optimum, in
    /// `[0.002, 0.05)`; zero for other kinds.
    pub margin: f64,
    /// Request id, unique within a run; also names fresh variants.
    pub id: String,
}

/// The endless request stream of one `serve-mix` client: 25% hot
/// re-solves, 25% fresh solves, 20% feasible and 20% infeasible probes at
/// distinct cycle times, and 10% fresh checks. Sorted by latency the
/// classes run hits < feasible probes < infeasible probes < fresh solves <
/// checks, so these shares put the median 5 points inside the infeasible
/// probes rather than on a class boundary, where it would jump between
/// classes from seed to seed.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: Rng,
    client: usize,
    issued: usize,
}

impl ServeStream {
    /// Client `client`'s stream under `seed`.
    pub fn new(seed: u64, client: usize) -> ServeStream {
        ServeStream {
            rng: Rng::new(seed, &format!("serve-mix client {client}")),
            client,
            issued: 0,
        }
    }
}

impl Iterator for ServeStream {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        let roll = self.rng.below(100);
        let kind = match roll {
            0..=24 => ServeKind::SolveHit,
            25..=49 => ServeKind::SolveMiss,
            50..=69 => ServeKind::ProbeFeasible,
            70..=89 => ServeKind::ProbeInfeasible,
            _ => ServeKind::Check,
        };
        let design = self.rng.below(SERVE_POOL.len());
        let margin = match kind {
            ServeKind::ProbeFeasible | ServeKind::ProbeInfeasible => {
                0.002 + 0.048 * self.rng.unit()
            }
            _ => 0.0,
        };
        let id = format!("c{}n{}", self.client, self.issued);
        self.issued += 1;
        Some(ServeOp {
            kind,
            design,
            margin,
            id,
        })
    }
}

/// The cycle time a probe asks about, given the design's optimum.
pub fn probe_cycle_time(op: &ServeOp, tc_star: f64) -> f64 {
    match op.kind {
        ServeKind::ProbeInfeasible => tc_star * (1.0 - op.margin),
        _ => tc_star * (1.0 + op.margin),
    }
}
