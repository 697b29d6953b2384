//! `release-250k`: the bulk, CLI-shaped release.
//!
//! Per op, exactly what `vadasa_cycle --batch top-64 --risk-threads 2
//! --journal DIR` runs: `read_csv` → `Vadasa` (auto-categorize,
//! k-anonymity, default local suppression, batched, journaled) →
//! `write_csv`. One closed-loop client sends one release at a time.

use crate::checks::{check_release, risky_rows};
use crate::probes::ProbeInput;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{process_cpu_s, timed_setup, traced_op, Clock, RunSpec, Window, K, SNAPSHOT_EVERY, T};
use std::time::Instant;
use vadasa_core::cycle::{BatchStrategy, CycleConfig};
use vadasa_core::io::{read_csv, write_csv};
use vadasa_core::pipeline::Vadasa;
use vadasa_core::prelude::{CycleTermination, JournalConfig, SyncPolicy};
use vadasa_datagen::scale::{generate_scale, ScaleSpec, SCALE_QI_NAMES};
use vadasa_server::{JobSpec, MeasureSpec};

/// Table name handed to the pipeline.
const NAME: &str = "survey";

/// The release input: the `generate_scale` regime as CSV text, with the
/// `ResRev` header written as `Revenue` (the facade's categorizer refuses
/// `ResRev`).
pub(crate) fn input_csv(rows: usize, risky: usize, seed: u64) -> String {
    let (db, _) = generate_scale(&ScaleSpec { rows, risky, seed });
    let csv = write_csv(&db);
    let (header, body) = csv.split_once('\n').expect("csv has a header line");
    let header = header
        .split(',')
        .map(|h| if h == "ResRev" { "Revenue" } else { h })
        .collect::<Vec<_>>()
        .join(",");
    format!("{header}\n{body}")
}

/// Quasi-identifiers of the input, as the generator declares them.
pub(crate) fn qis() -> Vec<&'static str> {
    SCALE_QI_NAMES
        .iter()
        .map(|&q| if q == "ResRev" { "Revenue" } else { q })
        .collect()
}

/// The CLI's cycle configuration for `--batch top-64 --risk-threads 2`.
pub(crate) fn config() -> CycleConfig {
    CycleConfig {
        threshold: T,
        batch: Some(BatchStrategy::TopN(64)),
        risk_threads: 2,
        ..CycleConfig::default()
    }
}

struct Released {
    csv: String,
    nulls_injected: usize,
    converged: bool,
    final_risky: usize,
    iterations: usize,
    fsyncs: u64,
}

/// One release: the timed path, without the check.
fn release(csv: &str, journal: &std::path::Path, tr: &Tracer) -> Result<Released, String> {
    let db = tr
        .span("io.read_csv", || read_csv(NAME, csv))
        .map_err(|e| format!("read_csv: {e}"))?;
    let jcfg = JournalConfig {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(SNAPSHOT_EVERY),
        ..JournalConfig::new(journal)
    };
    let release = tr
        .span("pipeline.run", || {
            Vadasa::new()
                .k_anonymity(K)
                .cycle_config(config())
                .journal(jcfg)
                .run(&db)
        })
        .map_err(|e| format!("pipeline: {e}"))?;
    let out = tr.span("io.write_csv", || write_csv(&release.outcome.db));
    let o = &release.outcome;
    Ok(Released {
        csv: out,
        nulls_injected: o.nulls_injected,
        converged: matches!(o.termination, CycleTermination::Converged),
        final_risky: o.final_risky,
        iterations: o.iterations,
        fsyncs: o.profile.journal.fsyncs,
    })
}

/// Check one release. The first is re-scored in full; every later one must
/// equal it byte for byte (the same input must release the same table), so
/// the window is spent releasing rather than re-scoring.
fn check(
    input: &str,
    r: Released,
    qis: &[&str],
    first: &mut Option<Released>,
) -> Result<(), String> {
    if !r.converged {
        return Err("release did not converge (degradation fallback)".into());
    }
    if r.final_risky != 0 {
        return Err(format!("{} rows still risky", r.final_risky));
    }
    if let Some(f) = first {
        if f.csv != r.csv {
            return Err("release differs from the run's first release".into());
        }
        return Ok(());
    }
    let nulls = check_release(input, &r.csv, qis, K)?;
    if nulls != r.nulls_injected {
        return Err(format!(
            "{nulls} nulls in the released table, cycle reports {}",
            r.nulls_injected
        ));
    }
    *first = Some(r);
    Ok(())
}

pub(crate) fn run(
    spec: &RunSpec,
    tr: &Tracer,
    report: &mut Report,
    probe: &mut Option<ProbeInput>,
) -> Result<(f64, Window), String> {
    let sz = &spec.sizes;
    let (setup_s, csv) = timed_setup(|_| input_csv(sz.release_rows, sz.release_risky, spec.seed));
    let qis = qis();

    let mut w = Window {
        cells_suppressed: f64::NAN,
        risky_rows: risky_rows(&csv, &qis, K)? as f64,
        ..Window::default()
    };
    let mut first: Option<Released> = None;
    let (mut busy, mut busy_cpu) = (0.0, 0.0);
    let mut clock = Clock::new(spec);
    let mut n = 0u64;
    while clock.more(spec, n) {
        let timed = clock.timed(n);
        let traced = timed.is_some_and(|op| traced_op(spec, op));
        tr.set_on(traced);
        tr.set_op(n);
        let dir = spec.work_dir.join(format!("release-{n}"));
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let released = release(&csv, &dir, tr);
        let secs = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - c0;
        let result = released.and_then(|r| tr.span("check", || check(&csv, r, &qis, &mut first)));
        tr.set_on(false);
        let _ = std::fs::remove_dir_all(&dir);
        if result.is_ok() && timed.is_some() {
            w.op_secs.push(secs);
            w.op_traced.push(traced);
            w.op_cpu.push(cpu);
            busy += secs;
            busy_cpu += cpu;
        }
        report.record(result);
        n += 1;
    }
    w.ops_per_s = w.op_secs.len() as f64 / busy;
    w.ops_per_cpu_s = w.op_secs.len() as f64 / busy_cpu;
    report.extra(
        "release_s",
        crate::stats::median(&w.op_secs),
        "s",
        "= op_s.p50",
    );
    if let Some(f) = &first {
        w.cells_suppressed = f.nulls_injected as f64;
        report.extra(
            "cycle_iterations",
            f.iterations as f64,
            "count",
            "per release",
        );
        report.extra("journal_fsyncs", f.fsyncs as f64, "count", "per release");
    }

    if spec.trace {
        let job = JobSpec::from_csv(NAME, &csv, MeasureSpec::KAnonymity(K))
            .map_err(|e| format!("job spec: {e}"))?;
        *probe = Some(ProbeInput::new(csv, job, &config()));
    }
    Ok((setup_s, w))
}
