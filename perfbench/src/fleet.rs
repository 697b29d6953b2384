//! `fleet-8k`: the server path, heavy on iterations and durability.
//!
//! An in-process `JobServer` with two workers; one client thread keeps two
//! jobs outstanding (a closed loop: each finished job releases the next
//! submit). Jobs cycle through a pool of distinct-seed 8k-row regime-V
//! tables screened one tuple per iteration, less significant first.

use crate::checks::{check_job, check_release, risky_rows};
use crate::probes::ProbeInput;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{
    more_ops, peak_rss_mb, process_cpu_s, timed_setup, traced_op, RunSpec, Window, K,
    SNAPSHOT_EVERY, T,
};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};
use vadasa_core::cycle::{AnonymizationCycle, CycleConfig, StepGranularity, TupleOrder};
use vadasa_core::io::write_csv;
use vadasa_core::prelude::{CycleTermination, JournalConfig, LocalSuppression};
use vadasa_datagen::{generate, DatasetSpec, Regime};
use vadasa_server::{JobServer, JobSpec, JobState, MeasureSpec, ServerConfig, ShutdownMode};

/// Jobs the client keeps outstanding.
const OUTSTANDING: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Jobs per CPU sample: jobs overlap, so CPU is attributed per chunk of
/// consecutive completions rather than per job.
const CPU_CHUNK: usize = 8;
/// Completions after which `peak_rss_mb` is read (two passes over the
/// pool): the server keeps every finished job, so a reading at the end of
/// the window would count how many jobs fit in it.
const RSS_AFTER_POOLS: usize = 2;

/// A job's cycle configuration: one tuple per iteration, less significant
/// first.
pub(crate) fn config() -> CycleConfig {
    CycleConfig {
        threshold: T,
        tuple_order: TupleOrder::LessSignificantFirst,
        granularity: StepGranularity::OneTuplePerIteration,
        ..CycleConfig::default()
    }
}

/// Pin `cfg`'s screening choices and the workload flush policy on a spec.
pub(crate) fn configure(mut spec: JobSpec, cfg: &CycleConfig) -> JobSpec {
    spec.threshold = cfg.threshold;
    spec.tuple_order = cfg.tuple_order;
    spec.granularity = cfg.granularity;
    spec.batch = cfg.batch;
    spec.risk_threads = cfg.risk_threads;
    spec.sync = vadasa_core::prelude::SyncPolicy::EveryRecord;
    spec.snapshot_every = Some(SNAPSHOT_EVERY);
    spec
}

/// Job `j` of the pool generated from `seed`.
fn pool_spec(rows: usize, seed: u64, j: usize) -> Result<(JobSpec, Vec<String>), String> {
    let seed = seed.wrapping_mul(1_000_003).wrapping_add(j as u64);
    let (db, dict) = generate(&DatasetSpec::new(rows, 4, Regime::V), seed);
    let qis = dict
        .quasi_identifiers(&db.name)
        .map_err(|e| e.to_string())?;
    let spec = JobSpec::new(&db, &dict, MeasureSpec::KAnonymity(K)).map_err(|e| e.to_string())?;
    Ok((configure(spec, &config()), qis))
}

/// What the server does for a job, run in-process: the same table,
/// dictionary, measure, anonymizer, configuration and journal policy.
/// Returns the released CSV, whether the cycle converged, and the outcome.
pub(crate) fn direct_journaled(
    spec: &JobSpec,
    dir: &Path,
) -> Result<(String, vadasa_core::prelude::CycleOutcome), String> {
    let db = spec.table().map_err(|e| e.to_string())?;
    let dict = spec.dictionary().map_err(|e| e.to_string())?;
    let measure = spec.measure.build();
    let anonymizer = LocalSuppression::default();
    let mut config = spec.cycle_config();
    config.journal = Some(JournalConfig {
        sync: spec.sync,
        snapshot_every: spec.snapshot_every,
        ..JournalConfig::new(dir)
    });
    let outcome = AnonymizationCycle::new(measure.as_ref(), &anonymizer, config)
        .run(&db, &dict)
        .map_err(|e| format!("cycle: {e}"))?;
    if !matches!(outcome.termination, CycleTermination::Converged) {
        return Err("reference cycle did not converge".into());
    }
    Ok((write_csv(&outcome.db), outcome))
}

struct Pool {
    specs: Vec<JobSpec>,
    qis: Vec<Vec<String>>,
}

fn make_pool(rows: usize, n: usize, seed: u64) -> Result<Pool, String> {
    let mut pool = Pool {
        specs: Vec::new(),
        qis: Vec::new(),
    };
    for j in 0..n {
        let (s, q) = pool_spec(rows, seed, j)?;
        pool.specs.push(s);
        pool.qis.push(q);
    }
    Ok(pool)
}

struct Outstanding {
    id: String,
    idx: usize,
    op: u64,
    submitted: Instant,
}

pub(crate) fn run(
    spec: &RunSpec,
    tr: &Tracer,
    report: &mut Report,
    probe: &mut Option<ProbeInput>,
) -> Result<(f64, Window), String> {
    let sz = &spec.sizes;
    // set-up: generate the pool and start the server
    let (setup_s, started) = timed_setup(|rep| {
        let pool = make_pool(sz.fleet_rows, sz.fleet_pool, spec.seed)?;
        let root = spec.work_dir.join(format!("server-{rep}"));
        let server = JobServer::start(ServerConfig {
            workers: WORKERS,
            ..ServerConfig::new(root)
        })
        .map_err(|e| format!("server start: {e}"))?;
        Ok::<_, String>((pool, server))
    });
    let (pool, server) = started?;
    // only the last set-up's server is used; the earlier ones were shut
    // down when dropped
    for rep in 0..crate::SETUP_REPEATS - 1 {
        let _ = std::fs::remove_dir_all(spec.work_dir.join(format!("server-{rep}")));
    }

    // references: the same specs journaled in-process, two at a time
    let refs: Vec<Result<(String, usize, usize), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let pool = &pool;
                s.spawn(move || {
                    (t..pool.specs.len())
                        .step_by(WORKERS)
                        .map(|j| {
                            let dir = spec.work_dir.join(format!("reference-{j}"));
                            let (csv, _) = direct_journaled(&pool.specs[j], &dir)?;
                            let _ = std::fs::remove_dir_all(&dir);
                            let qis: Vec<&str> = pool.qis[j].iter().map(String::as_str).collect();
                            let nulls = check_release(&pool.specs[j].csv, &csv, &qis, K)?;
                            let risky = risky_rows(&pool.specs[j].csv, &qis, K)?;
                            Ok((j, csv, nulls, risky))
                        })
                        .collect::<Vec<Result<_, String>>>()
                })
            })
            .collect();
        let mut out: Vec<Result<(String, usize, usize), String>> = (0..pool.specs.len())
            .map(|_| Err("missing".into()))
            .collect();
        for h in handles {
            for r in h.join().expect("reference thread panicked") {
                match r {
                    Ok((j, csv, nulls, risky)) => out[j] = Ok((csv, nulls, risky)),
                    Err(e) => return vec![Err(e)],
                }
            }
        }
        out
    });
    let refs: Vec<(String, usize, usize)> = refs.into_iter().collect::<Result<_, _>>()?;

    let mut w = Window {
        cells_suppressed: refs.iter().map(|r| r.1 as f64).sum(),
        risky_rows: refs.iter().map(|r| r.2 as f64).sum(),
        ..Window::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let started = Instant::now();
    let mut last_done = started;
    // process CPU at the start and at each completion
    let mut cpu_marks = vec![process_cpu_s()];
    let rss_after = RSS_AFTER_POOLS * pool.specs.len();
    let mut queue: VecDeque<Outstanding> = VecDeque::new();
    let mut next_op = 0u64;

    let submit = |op: u64, queue: &mut VecDeque<Outstanding>, report: &mut Report| {
        let idx = op as usize % pool.specs.len();
        let job = pool.specs[idx].clone();
        let id = format!("job-{op}");
        tr.set_on(traced_op(spec, op));
        tr.set_op(op);
        let submitted = Instant::now();
        let res = tr.span("server.submit", || server.submit(&id, job));
        tr.set_on(false);
        match res {
            Ok(_) => queue.push_back(Outstanding {
                id,
                idx,
                op,
                submitted,
            }),
            Err(e) => report.record(Err(format!("{id} refused: {e}"))),
        }
    };
    while next_op < OUTSTANDING as u64 {
        submit(next_op, &mut queue, report);
        next_op += 1;
    }
    while !queue.is_empty() {
        let mut i = 0;
        while i < queue.len() {
            let job = &queue[i];
            let Some(status) = server.wait(&job.id, Duration::from_millis(1)) else {
                let job = queue.remove(i).expect("index in range");
                report.record(Err(format!("{} unknown to the server", job.id)));
                continue;
            };
            if !status.state.is_terminal() {
                i += 1;
                continue;
            }
            let secs = job.submitted.elapsed().as_secs_f64();
            last_done = Instant::now();
            cpu_marks.push(process_cpu_s());
            if cpu_marks.len() - 1 == rss_after {
                w.peak_rss_mb = Some(peak_rss_mb());
            }
            let job = queue.remove(i).expect("index in range");
            let traced = traced_op(spec, job.op);
            tr.set_on(traced);
            tr.set_op(job.op);
            let result = if status.state == JobState::Done {
                let got = tr.span("server.result_csv", || server.result_csv(&job.id));
                tr.span("check", || check_job(got.as_deref(), &refs[job.idx].0))
            } else {
                Err(format!(
                    "{} ended {}: {}",
                    job.id,
                    status.state.name(),
                    status.error.unwrap_or_default()
                ))
            };
            tr.set_on(false);
            if result.is_ok() {
                w.op_secs.push(secs);
                w.op_traced.push(traced);
            }
            report.record(result.map_err(|e| format!("{}: {e}", job.id)));
            if more_ops(spec, deadline, next_op) {
                submit(next_op, &mut queue, report);
                next_op += 1;
            }
        }
    }
    server.shutdown(ShutdownMode::Drain);
    w.ops_per_s = w.op_secs.len() as f64 / (last_done - started).as_secs_f64();
    let cpu = cpu_marks.last().expect("start mark") - cpu_marks[0];
    w.ops_per_cpu_s = w.op_secs.len() as f64 / cpu;
    w.op_cpu = cpu_marks
        .iter()
        .step_by(CPU_CHUNK)
        .zip(cpu_marks.iter().skip(CPU_CHUNK).step_by(CPU_CHUNK))
        .map(|(a, b)| (b - a) / CPU_CHUNK as f64)
        .collect();
    if w.op_cpu.is_empty() {
        // fewer jobs than a chunk (tiny runs): one sample over them all
        w.op_cpu.push(cpu / (cpu_marks.len() - 1).max(1) as f64);
    }

    report.extra(
        "job_latency_s.p50",
        crate::stats::median(&w.op_secs),
        "s",
        "= op_s.p50",
    );
    if let Some(t) = crate::stats::tail(&w.op_secs) {
        report.extra(
            "job_latency_s.tail",
            t.value,
            "s",
            format!("p{} of n={} (= op_s.tail)", t.pct, t.samples),
        );
    }
    report.extra("jobs_per_s", w.ops_per_s, "1/s", "= ops_per_s");

    if spec.trace {
        let job = pool.specs[0].clone();
        *probe = Some(ProbeInput::new(job.csv.clone(), job, &config()));
    }
    Ok((setup_s, w))
}
