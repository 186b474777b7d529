//! The ssjoin benchmark: four seeded workloads, run at the library defaults
//! (exact, inline, one thread, no bitmap filter), with end-to-end metrics
//! untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! perfbench --workload all ...   # every workload, one child process each
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the first line is a
//! header with the host and its measured concurrency. See README.md.

mod batch;
mod lookup;
mod trace;
mod util;

use ssjoin_datagen::{AddressCorpus, AddressCorpusConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;
use util::ratio;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (untraced run), with units. Every workload reports
/// every one: an operation is one join call per corpus on the batch
/// workloads and one `match` on `fuzzy-lookup` (whose throughput covers the
/// writes too).
const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does not
/// use reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("text.tokenize_ms", "ms"),
    ("text.tokenize_us", "us"),
    ("text.tokens", "count"),
    ("builder.build_ms", "ms"),
    ("builder.universe", "count"),
    ("builder.set_elements", "count"),
    ("exec.join_ms", "ms"),
    ("exec.prefix_tuples", "count"),
    ("exec.candidate_pairs", "count"),
    ("exec.merge_steps", "count"),
    ("exec.early_exits", "count"),
    ("exec.output_pairs", "count"),
    ("exec.candidate_yield", "ratio"),
    ("sim.udf_ms", "ms"),
    ("sim.udf_calls", "count"),
    ("sim.udf_yield", "ratio"),
    ("index.build_ms", "ms"),
    ("index.encode_us", "us"),
    ("index.probe_us", "us"),
    ("index.candidates_per_probe", "count"),
    ("index.merge_steps_per_probe", "count"),
    ("index.insert_us", "us"),
    ("index.delete_us", "us"),
    ("index.epoch_merges", "count"),
    ("joins.self_ms", "ms"),
    ("share.joins", "ratio"),
    ("share.text", "ratio"),
    ("share.builder", "ratio"),
    ("share.exec", "ratio"),
    ("share.sim", "ratio"),
    ("share.index", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Share metric of each layer, in `trace::Layer` declaration order.
const SHARES: [&str; 6] = [
    "share.joins",
    "share.text",
    "share.builder",
    "share.exec",
    "share.sim",
    "share.index",
];

/// The seed the pinned digests belong to.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Batch(batch::Kind),
    Lookup,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    /// Rows per corpus (reference rows for `fuzzy-lookup`), full and
    /// `--tiny`.
    rows: usize,
    tiny_rows: usize,
    /// Independent corpora of `rows` rows, one join call each per
    /// operation. `ges-dedup` needs several: its cost is heavy-tailed in the
    /// corpus (one 5,000-row corpus took 0.5–3.3 s depending on the seed),
    /// so one corpus would make runs of different seeds incomparable.
    corpora: usize,
    /// Pair-set digest of the full-size join at [`DEFAULT_SEED`].
    pinned: Option<&'static str>,
}

/// `fuzzy-lookup` operations per pass, full and `--tiny`.
const LOOKUP_OPS: (usize, usize) = (2_000, 200);

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "jaccard-dedup",
        kind: Kind::Batch(batch::Kind::Jaccard),
        rows: 100_000,
        tiny_rows: 2_000,
        corpora: 1,
        pinned: Some("133174:94e970f1b087b143"),
    },
    Workload {
        name: "edit-dedup",
        kind: Kind::Batch(batch::Kind::Edit),
        rows: 10_000,
        tiny_rows: 400,
        corpora: 1,
        pinned: Some("19776:7d5a7cec8a71cd72"),
    },
    Workload {
        name: "ges-dedup",
        kind: Kind::Batch(batch::Kind::Ges),
        rows: 2_500,
        tiny_rows: 300,
        corpora: 16,
        pinned: Some("72309:dd694dbadb30b788"),
    },
    Workload {
        name: "fuzzy-lookup",
        kind: Kind::Lookup,
        rows: 25_000,
        tiny_rows: 1_000,
        corpora: 1,
        pinned: None,
    },
];

/// What a workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// A check that condemns every operation (re-verification, pinned digest).
    all_failed: bool,
    pub notes: Vec<String>,
    pub metrics: Metrics,
    pub trace: Option<Tracer>,
}

impl RunResult {
    /// One operation failed.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAIL: {msg}"));
        }
    }

    /// The output every operation produced is wrong.
    pub fn fail_all(&mut self, msg: String) {
        self.all_failed = true;
        self.notes.push(format!("FAIL: {msg}"));
    }
}

/// Self-time share of each layer over the given traced operations.
pub fn add_shares(m: &mut Metrics, tr: &Tracer, ops: impl Iterator<Item = u64>) {
    let mut sums = [0u64; 6];
    let mut total = 0u64;
    for op in ops {
        for (sum, ns) in sums.iter_mut().zip(tr.self_ns(op)) {
            *sum += ns;
        }
        total += tr.op_ns(op);
    }
    for (name, sum) in SHARES.iter().zip(sums) {
        m.insert(name, ratio(sum as f64, total as f64));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a finite number ≥ 0"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Run every workload in a child process of its own (so each reports its
/// own peak RSS); print each child's result line after its name.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.tiny {
            cmd.arg("--tiny");
        }
        match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().unwrap_or("");
                println!("{}\t{last}", w.name);
                ok &= out.status.success() && last.starts_with("{\"correct\": true");
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_metrics(metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: --workload must be one of {} or all",
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    let host = util::probe_host();
    let rows = if args.tiny { w.tiny_rows } else { w.rows };
    println!(
        "{{\"host\": {{\"available_parallelism\": {}, \"measured_concurrency\": {:.3}, \"spin_1t_ms\": {:.3}, \"spin_nt_ms\": {:.3}}}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rows\": {rows}, \"corpora\": {}}}",
        host.available_parallelism,
        host.measured_concurrency,
        host.spin_1t_ms,
        host.spin_nt_ms,
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        w.corpora,
    );

    // Inputs come from the seed alone; generating them is never timed.
    // Corpus j of seed s is generated from seed s + j·2³², so corpus 0 is
    // the seed's own corpus.
    let corpora: Vec<Vec<String>> = (0..w.corpora as u64)
        .map(|j| {
            let seed = args.seed.wrapping_add(j << 32);
            AddressCorpus::generate(&AddressCorpusConfig::paper_like(rows).with_seed(seed)).records
        })
        .collect();
    let mut res = match w.kind {
        Kind::Batch(kind) => {
            let pinned = w.pinned.filter(|_| args.seed == DEFAULT_SEED && !args.tiny);
            batch::run(kind, &corpora, args.seconds, args.traced, pinned)
        }
        Kind::Lookup => {
            let n_ops = if args.tiny {
                LOOKUP_OPS.1
            } else {
                LOOKUP_OPS.0
            };
            let ops = lookup::script(&corpora[0], n_ops, args.seed);
            lookup::run(&corpora[0], &ops, args.seconds, args.traced)
        }
    };
    if res.all_failed {
        res.failed = res.attempted;
    }
    res.failed = res.failed.min(res.attempted);

    if let Some(tr) = &res.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    for note in &res.notes {
        eprintln!("{}: {note}", w.name);
    }
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        let v = res.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{:<16} {name:<30} {v:>16.4} {unit}", w.name);
    }
    eprintln!(
        "{:<16} {:<30} {:>16.4} ratio ({} of {} operations)",
        w.name,
        "fail_ratio",
        ratio(res.failed as f64, res.attempted as f64),
        res.failed,
        res.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.failed == 0,
        res.attempted,
        res.failed,
        json_metrics(&res.metrics, table)
    );
    ExitCode::SUCCESS
}
