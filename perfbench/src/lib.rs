//! End-to-end benchmark of the Vada-SA reproduction.
//!
//! Three workloads drive the library through its public entry points,
//! check every output, and report end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See `README.md` beside this crate for
//! what each workload stresses and which metric each layer should move.

pub mod checks;
mod engine;
mod fleet;
pub mod probes;
mod release;
pub mod report;
pub mod stats;
pub mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// k of the k-anonymity screen in every workload.
pub const K: usize = 2;
/// Risk threshold `T` in every workload.
pub const T: f64 = 0.5;
/// Journal snapshot cadence (iterations) in every workload.
pub const SNAPSHOT_EVERY: u32 = 16;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk CLI-shaped release of a 250k-row table.
    Release,
    /// Server jobs on 8k-row tables, two outstanding.
    Fleet,
    /// Declarative individual-risk scoring and goal queries.
    Engine,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Release, Workload::Fleet, Workload::Engine];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Release => "release-250k",
            Workload::Fleet => "fleet-8k",
            Workload::Engine => "engine-risk-4k",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Sizes::full`] is what the workload names promise;
/// [`Sizes::tiny`] keeps the self-tests fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rows of the release table.
    pub release_rows: usize,
    /// Sample-unique rows planted in the release table.
    pub release_risky: usize,
    /// Rows of each fleet job's table.
    pub fleet_rows: usize,
    /// Distinct job specs the fleet client cycles through.
    pub fleet_pool: usize,
    /// Rows of the engine workload's table.
    pub engine_rows: usize,
    /// Tables of the engine's regime whose k = 2 release measures the
    /// engine workload's information loss.
    pub engine_loss_tables: usize,
    /// Goal queries after each full scoring.
    pub goals_per_full: usize,
    /// Row cap for the engine-layer probes on the other workloads' tables.
    pub probe_engine_rows: usize,
    /// Cap on `anonymize_step` calls in the anonymize probe.
    pub probe_steps: usize,
}

impl Sizes {
    /// The sizes the workload names promise.
    pub fn full() -> Sizes {
        Sizes {
            release_rows: 250_000,
            release_risky: 256,
            fleet_rows: 8_000,
            fleet_pool: 32,
            engine_rows: 4_000,
            engine_loss_tables: 16,
            goals_per_full: 16,
            probe_engine_rows: 4_000,
            probe_steps: 256,
        }
    }

    /// Small inputs for the self-tests.
    pub fn tiny() -> Sizes {
        Sizes {
            release_rows: 3_000,
            release_risky: 16,
            fleet_rows: 600,
            fleet_pool: 2,
            engine_rows: 400,
            engine_loss_tables: 2,
            goals_per_full: 4,
            probe_engine_rows: 400,
            probe_steps: 16,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for journals and job directories; must not exist
    /// yet and is removed by the caller.
    pub work_dir: PathBuf,
}

/// End-to-end metrics printed by every untraced run, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("op_cpu_s.p50", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("nulls_per_risky_row", "ratio"),
];

/// Per-layer metrics printed by every traced run, with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("io.read_csv_s", "s"),
    ("io.write_csv_s", "s"),
    ("io.bytes_in", "bytes"),
    ("io.bytes_out", "bytes"),
    ("categorize.s", "s"),
    ("risk.view_build_s", "s"),
    ("risk.evaluate_s", "s"),
    ("risk.cycle_eval_share", "ratio"),
    ("anonymize.step_ms", "ms"),
    ("anonymize.steps", "count"),
    ("cycle.run_s", "s"),
    ("cycle.iterations", "count"),
    ("cycle.iter_ms", "ms"),
    ("cycle.outside_risk_s", "s"),
    ("journal.overhead_s", "s"),
    ("journal.fsyncs", "count"),
    ("journal.bytes_written", "bytes"),
    ("journal.snapshot_bytes", "bytes"),
    ("journal.write_amp", "ratio"),
    ("server.submit_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.result_ms", "ms"),
    ("programs.facts_ms", "ms"),
    ("vadalog.parse_ms", "ms"),
    ("vadalog.run_s", "s"),
    ("vadalog.goal_run_ms", "ms"),
    ("vadalog.facts_clone_ms", "ms"),
    ("vadalog.iterations", "count"),
    ("vadalog.facts_derived", "count"),
    ("vadalog.index_probes", "count"),
    ("vadalog.magic_pruned_rules", "count"),
    ("vadalog.goal_useful_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What a workload's measurement window produced.
#[derive(Default)]
pub(crate) struct Window {
    /// Wall seconds of each primary op (release, job, full scoring).
    pub op_secs: Vec<f64>,
    /// Whether each primary op was traced (parallel to `op_secs`).
    pub op_traced: Vec<bool>,
    /// Process CPU seconds per primary op, one sample per op (per chunk of
    /// jobs on the fleet, whose jobs overlap).
    pub op_cpu: Vec<f64>,
    /// Ops completed per wall second the ops took.
    pub ops_per_s: f64,
    /// Ops completed per process CPU second the ops took.
    pub ops_per_cpu_s: f64,
    /// `VmHWM` read at a fixed point of the workload, where the end of the
    /// window would make it depend on how many ops fit in it.
    pub peak_rss_mb: Option<f64>,
    /// Labelled nulls in the workload's released table(s).
    pub cells_suppressed: f64,
    /// Rows at risk in the same table(s) before anonymization.
    pub risky_rows: f64,
}

/// Time `f` [`SETUP_REPEATS`] times; the median seconds and the last result.
pub(crate) fn timed_setup<S>(mut f: impl FnMut(usize) -> S) -> (f64, S) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let s = f(rep);
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (stats::median(&secs), last.expect("SETUP_REPEATS > 0"))
}

/// CPU seconds this process has used so far, over all its threads, live
/// or exited (`CLOCK_PROCESS_CPUTIME_ID`). Time spent waiting for a CPU or
/// for the disk is not in it, nor, on a paravirtualized guest, time the
/// hypervisor gave the CPU to another guest; `NaN` if unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux and
    // outlives the call, which only writes through the pointer.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far (unavailable here: `NaN`).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// Peak resident set of this process in MB (`VmHWM`), `NaN` if unknown.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload: set up, measure for `spec.seconds`, check outputs.
/// Returns the report and, for a traced run, the spans as Chrome trace
/// JSON.
pub fn run(spec: &RunSpec) -> (Report, Option<String>) {
    let tracer = Tracer::new(false);
    let mut report = Report::default();
    let mut probe_input = None;
    let outcome = match spec.workload {
        Workload::Release => release::run(spec, &tracer, &mut report, &mut probe_input),
        Workload::Fleet => fleet::run(spec, &tracer, &mut report, &mut probe_input),
        Workload::Engine => engine::run(spec, &tracer, &mut report, &mut probe_input),
    };
    let (setup_s, window) = match outcome {
        Ok(v) => v,
        Err(e) => {
            report.record(Err(format!("set-up failed: {e}")));
            return (report, None);
        }
    };
    let ops = report.attempted.max(1) as f64;
    let ok_frac = (report.attempted - report.failed) as f64 / ops;
    report.extra(
        "ops_failed_frac",
        report.failed as f64 / ops,
        "ratio",
        format!("{} of {} ops failed", report.failed, report.attempted),
    );

    if !spec.trace {
        report.metric(
            "setup_s",
            setup_s,
            "s",
            "median input generation (+ server start)",
        );
        let (rss, rss_note) = match window.peak_rss_mb {
            Some(mb) => (mb, "VmHWM of the process, read after a fixed op count"),
            None => (peak_rss_mb(), "VmHWM of the process"),
        };
        report.metric("peak_rss_mb", rss, "MB", rss_note);
        report.metric("ops_ok_frac", ok_frac, "ratio", "1 - ops_failed_frac");
        report.metric(
            "op_cpu_s.p50",
            stats::median(&window.op_cpu),
            "s",
            format!("process CPU per op, n={}", window.op_cpu.len()),
        );
        report.metric(
            "ops_per_cpu_s",
            window.ops_per_cpu_s,
            "1/s",
            "ops per process CPU second",
        );
        // wall-clock figures are table only: on a shared host they swing
        // with the neighbours' load by more than any bound could hold
        let n = window.op_secs.len();
        report.extra(
            "op_s.p50",
            stats::median(&window.op_secs),
            "s",
            format!("wall, n={n}"),
        );
        let tail = stats::tail(&window.op_secs);
        let (tail_v, note) = match tail {
            Some(t) => (t.value, format!("wall, p{} of n={}", t.pct, t.samples)),
            None => (f64::NAN, "no samples".to_string()),
        };
        report.extra("op_s.tail", tail_v, "s", note);
        report.extra("ops_per_s", window.ops_per_s, "1/s", "ops per wall second");
        report.metric(
            "nulls_per_risky_row",
            window.cells_suppressed / window.risky_rows,
            "ratio",
            "cells_suppressed / rows at risk before anonymization",
        );
        report.extra(
            "cells_suppressed",
            window.cells_suppressed,
            "count",
            "labelled nulls released",
        );
        report.extra(
            "risky_rows",
            window.risky_rows,
            "count",
            "rows at risk before anonymization",
        );
        return (report, None);
    }

    // Traced run: trace overhead from the interleaved ops, then the layer
    // probes on this workload's input.
    let pick = |traced: bool| -> Vec<f64> {
        window
            .op_secs
            .iter()
            .zip(&window.op_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(s, _)| *s)
            .collect()
    };
    let overhead = stats::median(&pick(true)) / stats::median(&pick(false)) - 1.0;
    tracer.set_on(true);
    match probe_input {
        Some(input) => probes::run(&input, spec, &tracer, &mut report),
        None => report.record(Err("workload produced no probe input".into())),
    }
    report.metric(
        "trace.overhead_frac",
        overhead,
        "ratio",
        "median traced op / median untraced op - 1",
    );
    tracer.set_on(false);
    (report, Some(tracer.chrome_json()))
}

/// Traced runs alternate: odd-numbered ops are traced.
pub(crate) fn traced_op(spec: &RunSpec, op: u64) -> bool {
    spec.trace && op % 2 == 1
}

/// Should the client start op number `op` (0-based) at this moment? The
/// window must be open, except that a run always makes one op, and a
/// traced run two (one untraced, one traced).
pub(crate) fn more_ops(spec: &RunSpec, deadline: Instant, op: u64) -> bool {
    let min_ops = if spec.trace { 2 } else { 1 };
    op < min_ops || Instant::now() < deadline
}

/// The measurement window of a client that makes one untimed warm-up op
/// first (the first op of a process also pays for growing the heap).
pub(crate) struct Clock {
    window: std::time::Duration,
    deadline: Option<Instant>,
}

impl Clock {
    pub(crate) fn new(spec: &RunSpec) -> Clock {
        Clock {
            window: std::time::Duration::from_secs_f64(spec.seconds),
            deadline: None,
        }
    }

    /// The timed op number of call `n` (0-based), `None` for the warm-up.
    /// The window opens when the first timed op starts.
    pub(crate) fn timed(&mut self, n: u64) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let window = self.window;
        self.deadline.get_or_insert_with(|| Instant::now() + window);
        Some(n - 1)
    }

    /// Should the client start call `n`?
    pub(crate) fn more(&self, spec: &RunSpec, n: u64) -> bool {
        match self.deadline {
            None => true,
            Some(d) => more_ops(spec, d, n - 1),
        }
    }
}
