//! Outside-in benchmark of the `mrm` stack.
//!
//! One process runs one named workload single-threaded in a closed loop:
//! each rep sets up a fresh simulation from the seed, runs it to the end,
//! and is checked before the next rep starts. The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) alternates bare and profiled reps and reports the
//! per-layer metrics plus a self-time ledger. See `README.md` beside
//! this crate for the workloads, metric names and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cluster;
mod expected;
mod heap;
mod lifecycle;
mod metrics;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, Counts, Metric, Rows};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The simulation seed whose statistics are recorded in [`expected`].
pub const PINNED_SEED: u64 = 1;
/// Reps after which a run stops even if its window is not spent.
const MAX_REPS: u64 = 10_000;

/// Failed checks shown in the human summary before the rest are elided.
const SHOWN_FAILURES: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Retention,
    Lifecycle,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve" => Some(Workload::Serve),
            "retention" => Some(Workload::Retention),
            "lifecycle" => Some(Workload::Lifecycle),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Retention => "retention",
            Workload::Lifecycle => "lifecycle",
        }
    }
}

/// Tally of correctness checks; feeds `attempted` and `failed`.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` names it in the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one rep produced, independent of the workload.
pub struct Outcome {
    /// The simulated statistics pinned at [`PINNED_SEED`], as
    /// `key=value` pairs with exact values.
    pub fingerprint: String,
    /// The whole report, for the traced-equals-bare check.
    pub full: String,
    /// Simulated per-layer values read from the report (counts and
    /// ratios, no host time).
    pub counts: Counts,
    /// Self time per profiled frame, when the rep was traced.
    pub frames: Option<Frames>,
    /// The end-to-end simulated statistics shown in the human summary.
    pub sim: Rows,
}

/// Self time and calls per profiler frame of one traced rep, plus the
/// wall time the frames must add up to.
#[derive(Clone, Default)]
pub struct Frames {
    /// `(frame name, calls, self ns)`, in profiler order.
    pub rows: Vec<(String, u64, u64)>,
    /// Host time of the traced run phase.
    pub wall_ns: u64,
}

impl Frames {
    fn get(&self, name: &str) -> (u64, u64) {
        self.rows
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0), |&(_, c, ns)| (c, ns))
    }

    /// Calls of frame `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.get(name).0
    }

    /// Self time of frame `name`, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.get(name).1 as f64 / 1e6
    }

    /// Self time per call of frame `name`, ns (0 when never called).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (calls, ns) = self.get(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Wall time no frame accounts for, ms.
    pub fn unattributed_ms(&self) -> f64 {
        let framed: u64 = self.rows.iter().map(|r| r.2).sum();
        (self.wall_ns as f64 - framed as f64) / 1e6
    }
}

/// One timed rep.
pub struct Rep {
    pub setup: Duration,
    pub run: Duration,
    pub outcome: Outcome,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload serve|retention|lifecycle is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one rep of `w`, turning a panic into a failed check.
fn rep(w: Workload, seed: u64, traced: bool, checks: &mut Checks) -> Option<Rep> {
    let out = panic::catch_unwind(AssertUnwindSafe(|| match w {
        Workload::Serve | Workload::Retention => cluster::rep(w, seed, traced, checks),
        Workload::Lifecycle => lifecycle::rep(seed, traced, checks),
    }));
    match out {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            checks.check(false, || format!("seed {seed}: rep panicked: {msg}"));
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload serve|retention|lifecycle \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Panics inside a rep are counted as failed checks; keep their
    // message on one stderr line.
    panic::set_hook(Box::new(|info| eprintln!("rep panic: {info}")));
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut checks = Checks::default();
    let window = Duration::from_secs_f64(args.seconds);

    // First, untimed, in the fresh process: one rep at the pinned seed.
    // It checks the recorded statistics, and its peak heap is the
    // footprint of one simulation of the workload's size.
    let pinned = rep(w, PINNED_SEED, false, &mut checks);
    let heap_mb = heap::peak_bytes() as f64 / (1024.0 * 1024.0);
    if let Some(r) = &pinned {
        let (got, want) = (&r.outcome.fingerprint, expected::fingerprint(w));
        checks.check(got == want, || {
            format!(
                "seed {PINNED_SEED}: statistics differ from the recorded ones:\n  \
                 got      {got}\n  expected {want}"
            )
        });
    }

    // The closed loop: bare reps, each followed by a traced rep of the
    // same simulation when tracing, until the window is spent. Rep `i`
    // simulates seed `rep_seed(seed, i)`, so a run's medians cover many
    // inputs of the workload's fixed size rather than one.
    let mut bare: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = Instant::now();
    for i in 0..MAX_REPS {
        if i > 0 && start.elapsed() >= window {
            break;
        }
        let seed = rep_seed(args.seed, i);
        let Some(b) = rep(w, seed, false, &mut checks) else {
            continue;
        };
        if args.trace {
            if let Some(t) = rep(w, seed, true, &mut checks) {
                // Observing a simulation must not change it.
                checks.check(t.outcome.full == b.outcome.full, || {
                    format!("seed {seed}: traced report differs from the bare report")
                });
                traced.push(t);
            }
        }
        // The held-out seed: every invariant held above, and the
        // statistics are not the pinned seed's.
        if seed != PINNED_SEED {
            checks.check(b.outcome.fingerprint != expected::fingerprint(w), || {
                format!("seed {seed} reproduced the pinned seed's statistics")
            });
        }
        bare.push(b);
    }
    if bare.is_empty() || (args.trace && traced.is_empty()) {
        return Err(format!(
            "no rep completed; failed checks: {:?}",
            checks.failures
        ));
    }
    let run_s: Vec<f64> = bare.iter().map(|r| r.run.as_secs_f64()).collect();
    let setup_s: Vec<f64> = bare.iter().map(|r| r.setup.as_secs_f64()).collect();

    println!(
        "workload {} seed {} window {:.1} s: {} bare reps{}",
        w.name(),
        args.seed,
        args.seconds,
        bare.len(),
        if args.trace {
            format!(", {} traced reps", traced.len())
        } else {
            String::new()
        }
    );
    let metrics: Vec<Metric> = if args.trace {
        per_layer(&traced, &run_s)
    } else {
        let m = vec![
            Metric::new("run_s", median(&run_s), "s"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_heap_mb", heap_mb, "MB"),
        ];
        print_end_to_end(&m, bare.len(), pinned.as_ref().map(|r| &r.outcome), &checks);
        m
    };
    for f in checks.failures.iter().take(SHOWN_FAILURES) {
        println!("FAILED: {f}");
    }
    if checks.failures.len() > SHOWN_FAILURES {
        println!(
            "FAILED: ... {} more",
            checks.failures.len() - SHOWN_FAILURES
        );
    }
    println!("{}", metrics::result_json(&checks, &metrics));
    Ok(())
}

/// The simulation seed of rep `i` in a run given `seed` (SplitMix64).
fn rep_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn print_end_to_end(m: &[Metric], reps: usize, pinned: Option<&Outcome>, checks: &Checks) {
    println!("end-to-end (host time; {reps} samples per timing):");
    for x in m {
        println!("  {:<20} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!(
        "  {:<20} {:>16.6} ({} of {} checks failed)",
        "failed_ratio",
        checks.failures.len() as f64 / checks.attempted.max(1) as f64,
        checks.failures.len(),
        checks.attempted
    );
    if let Some(o) = pinned {
        println!("simulated at seed {PINNED_SEED} (exact):");
        for (name, value, unit) in &o.sim {
            println!("  {name:<20} {value:>16.6} {unit}");
        }
    }
}

/// The traced run's per-layer metrics: simulated counts from the report,
/// host self time per frame averaged over the traced reps, the tracing
/// overhead, and the ledger.
fn per_layer(traced: &[Rep], bare_run_s: &[f64]) -> Vec<Metric> {
    let traced_run_s: Vec<f64> = traced.iter().map(|r| r.run.as_secs_f64()).collect();
    let overhead = median(&traced_run_s) / median(bare_run_s);
    let frames = metrics::mean_frames(traced.iter().filter_map(|r| r.outcome.frames.as_ref()));
    let out = metrics::layer_metrics(&traced[0].outcome.counts, &frames, overhead);
    metrics::print_ledger(&frames, overhead);
    out
}
