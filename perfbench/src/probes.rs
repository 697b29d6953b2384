//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public functions on the traced workload's
//! own input, inside a span named after the layer call, and the layer's
//! metrics are derived from those spans' self times plus the counters the
//! layer returns. The engine-layer probes (`programs`, `vadalog`) run on
//! at most [`crate::Sizes::probe_engine_rows`] rows, because a full
//! fixpoint over the 250k-row release table does not fit a run.

use crate::checks::{check_goal, check_job};
use crate::engine::{answers, group_goals, qi_groups, risk_rows, risk_source, spread};
use crate::fleet::{configure, direct_journaled};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{RunSpec, K, PER_LAYER, T};
use std::time::Duration;
use vadalog::{parse_program, Engine, MagicOptions};
use vadasa_core::io::{read_csv, write_csv};
use vadasa_core::prelude::{
    AnonymizationCycle, Anonymizer, Categorizer, CycleConfig, ExperienceBase, KAnonymity,
    LocalSuppression, MetadataDictionary, MicrodataDb, MicrodataView, NullSemantics, RiskMeasure,
};
use vadasa_core::programs::microdata_to_facts;
use vadasa_server::{JobServer, JobSpec, JobState, ServerConfig, ShutdownMode};

/// Op id the probe spans carry (ops of the window count up from 0).
const PROBE_OP: u64 = u64::MAX;
/// Repeats of the cheap probes; their metric is the median.
const REPEATS: usize = 5;
/// Goal queries in the vadalog probe.
const GOALS: usize = 8;
/// Tables up to this many rows repeat the cycle, journal and server
/// probes [`CYCLE_REPEATS`] times; larger ones run them once to fit a run.
const REPEAT_CYCLE_ROWS: usize = 50_000;
const CYCLE_REPEATS: usize = 3;

/// The traced workload's input as the probes see it.
pub struct ProbeInput {
    /// The input table as CSV text.
    pub csv: String,
    /// The same table as a job spec carrying the workload's screening
    /// configuration and flush policy.
    pub spec: JobSpec,
}

impl ProbeInput {
    /// Probe input for `csv`, screened as `spec` with `cfg`'s choices.
    pub fn new(csv: String, spec: JobSpec, cfg: &CycleConfig) -> Self {
        ProbeInput {
            csv,
            spec: configure(spec, cfg),
        }
    }
}

/// Median self time (seconds) of the spans named `name`.
fn med(tr: &Tracer, name: &str) -> f64 {
    median(&tr.self_secs(name))
}

/// The first `n` rows of `db`.
fn head(db: &MicrodataDb, n: usize) -> Result<MicrodataDb, String> {
    let mut out =
        MicrodataDb::new(&db.name, db.attributes().to_vec()).map_err(|e| e.to_string())?;
    for row in db.iter_rows().take(n) {
        out.push_row(row.to_vec()).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Run every probe on `input`, adding every per-layer metric to `report`
/// (`NaN`, which makes the run incorrect, for any a failed probe left
/// unmeasured) except `trace.overhead_frac`, which the caller adds.
pub fn run(input: &ProbeInput, spec: &RunSpec, tr: &Tracer, report: &mut Report) {
    tr.set_op(PROBE_OP);
    let result = probe_all(input, spec, tr, report);
    report.record(result.map_err(|e| format!("probe: {e}")));
    for (name, unit) in PER_LAYER {
        if name != "trace.overhead_frac" && !report.metrics.iter().any(|m| m.name == name) {
            report.metric(name, f64::NAN, unit, "not measured");
        }
    }
}

fn probe_all(
    input: &ProbeInput,
    spec: &RunSpec,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let job = &input.spec;
    let dir = spec.work_dir.join("probes");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    // --- io ---
    let mut db = None;
    let mut out = String::new();
    for _ in 0..REPEATS {
        let d = tr
            .span("io.read_csv", || read_csv(&job.name, &input.csv))
            .map_err(|e| format!("read_csv: {e}"))?;
        out = tr.span("io.write_csv", || write_csv(&d));
        db = Some(d);
    }
    let db = db.expect("REPEATS > 0");
    report.metric("io.read_csv_s", med(tr, "io.read_csv"), "s", "");
    report.metric("io.write_csv_s", med(tr, "io.write_csv"), "s", "");
    report.metric("io.bytes_in", input.csv.len() as f64, "bytes", "");
    report.metric("io.bytes_out", out.len() as f64, "bytes", "");

    // --- categorize ---
    for _ in 0..REPEATS {
        let mut d = MetadataDictionary::new();
        for attr in db.attributes() {
            d.register_attr(&db.name, attr, "");
        }
        let mut categorizer = Categorizer::new(ExperienceBase::financial_defaults());
        tr.span("categorize", || categorizer.categorize(&mut d, &db.name))
            .map_err(|e| format!("categorize: {e}"))?;
    }
    report.metric("categorize.s", med(tr, "categorize"), "s", "");

    // --- risk ---
    let dict = job.dictionary().map_err(|e| e.to_string())?;
    let measure = KAnonymity::new(K);
    let mut risky = Vec::new();
    for _ in 0..REPEATS {
        let view = tr
            .span("risk.view_build", || {
                MicrodataView::from_db_with(&db, &dict, NullSemantics::MaybeMatch, None)
            })
            .map_err(|e| format!("view: {e}"))?;
        let rep = tr
            .span("risk.evaluate", || measure.evaluate(&view))
            .map_err(|e| format!("evaluate: {e}"))?;
        risky = (0..rep.risks.len()).filter(|&i| rep.risks[i] > T).collect();
    }
    report.metric("risk.view_build_s", med(tr, "risk.view_build"), "s", "");
    report.metric("risk.evaluate_s", med(tr, "risk.evaluate"), "s", "");

    // --- anonymize: one step per initially risky row, on a copy ---
    let anonymizer = LocalSuppression::default();
    let mut copy = db.clone();
    let mut steps = 0usize;
    for &row in risky.iter().take(spec.sizes.probe_steps) {
        tr.span("anonymize.step", || {
            anonymizer.anonymize_step(&mut copy, &dict, row)
        })
        .map_err(|e| format!("anonymize_step: {e}"))?;
        steps += 1;
    }
    report.metric(
        "anonymize.step_ms",
        med(tr, "anonymize.step") * 1e3,
        "ms",
        "",
    );
    report.metric("anonymize.steps", steps as f64, "count", "");

    // --- cycle, unjournaled, with the workload's configuration ---
    let repeats = if db.len() <= REPEAT_CYCLE_ROWS {
        CYCLE_REPEATS
    } else {
        1
    };
    let config = job.cycle_config();
    let measure = job.measure.build();
    let mut plain = None;
    for _ in 0..repeats {
        plain = Some(
            tr.span("cycle.run", || {
                AnonymizationCycle::new(measure.as_ref(), &anonymizer, config.clone())
                    .run(&db, &dict)
            })
            .map_err(|e| format!("cycle: {e}"))?,
        );
    }
    let plain = plain.expect("repeats > 0");
    let run_s = med(tr, "cycle.run");
    let prof = &plain.profile;
    let risk_s = prof.risk_eval_ns as f64 / 1e9;
    report.metric(
        "risk.cycle_eval_share",
        prof.risk_eval_ns as f64 / prof.total_ns as f64,
        "ratio",
        "CycleProfile risk_eval_ns / total_ns",
    );
    report.metric("cycle.run_s", run_s, "s", "");
    report.metric("cycle.iterations", plain.iterations as f64, "count", "");
    report.metric(
        "cycle.iter_ms",
        run_s * 1e3 / plain.iterations.max(1) as f64,
        "ms",
        "",
    );
    report.metric("cycle.outside_risk_s", run_s - risk_s, "s", "");

    // --- journal: the same run journaled, exactly as the server runs it ---
    let plain_csv = write_csv(&plain.db);
    let mut journaled = None;
    for i in 0..repeats {
        let (csv, outcome) = tr.span("cycle.run_journaled", || {
            direct_journaled(job, &dir.join(format!("journal-{i}")))
        })?;
        if csv != plain_csv {
            return Err("journaling changed the released table".into());
        }
        journaled = Some(outcome);
    }
    let journaled = journaled.expect("repeats > 0");
    let journaled_s = med(tr, "cycle.run_journaled");
    let jp = &journaled.profile.journal;
    report.metric(
        "journal.overhead_s",
        journaled_s - run_s,
        "s",
        "journaled - unjournaled",
    );
    report.metric("journal.fsyncs", jp.fsyncs as f64, "count", "");
    report.metric(
        "journal.bytes_written",
        jp.bytes_written as f64,
        "bytes",
        "",
    );
    report.metric(
        "journal.snapshot_bytes",
        jp.snapshot_bytes as f64,
        "bytes",
        "",
    );
    report.metric(
        "journal.write_amp",
        (jp.bytes_written + jp.snapshot_bytes) as f64 / input.csv.len() as f64,
        "ratio",
        "(journal + snapshot bytes) / input csv bytes",
    );

    // --- server: the same spec as one job at a time in a fresh server ---
    let server = JobServer::start(ServerConfig::new(dir.join("server")))
        .map_err(|e| format!("server start: {e}"))?;
    let mut result = Ok(());
    for i in 0..repeats {
        let id = format!("probe-{i}");
        let submitted = tr.span("server.submit", || server.submit(&id, job.clone()));
        let waited = submitted
            .map_err(|e| format!("submit: {e}"))
            .map(|_| tr.span("server.job", || server.wait(&id, Duration::from_secs(600))));
        result = match waited {
            Ok(Some(r)) if r.state == JobState::Done => {
                let got = tr.span("server.result_csv", || server.result_csv(&id));
                check_job(got.as_deref(), &plain_csv)
            }
            Ok(r) => Err(format!("probe job ended {:?}", r.map(|r| r.state))),
            Err(e) => Err(e),
        };
        if result.is_err() {
            break;
        }
    }
    server.shutdown(ShutdownMode::Drain);
    result?;
    let job_s = med(tr, "server.submit") + med(tr, "server.job");
    report.metric("server.submit_ms", med(tr, "server.submit") * 1e3, "ms", "");
    report.metric(
        "server.overhead_ms",
        (job_s - journaled_s) * 1e3,
        "ms",
        "submit-to-done wall - direct journaled cycle",
    );
    report.metric(
        "server.result_ms",
        med(tr, "server.result_csv") * 1e3,
        "ms",
        "",
    );

    // --- programs and vadalog, on at most probe_engine_rows rows ---
    let small = head(&db, spec.sizes.probe_engine_rows)?;
    let mut facts = None;
    for _ in 0..REPEATS {
        facts = Some(
            tr.span("programs.facts", || microdata_to_facts(&small, &dict))
                .map_err(|e| format!("microdata_to_facts: {e}"))?,
        );
    }
    let facts = facts.expect("REPEATS > 0");
    report.metric(
        "programs.facts_ms",
        med(tr, "programs.facts") * 1e3,
        "ms",
        "",
    );
    let source = risk_source();
    let mut program = None;
    for _ in 0..REPEATS {
        program = Some(
            tr.span("vadalog.parse", || parse_program(&source))
                .map_err(|e| format!("parse: {e}"))?,
        );
    }
    let program = program.expect("REPEATS > 0");
    let mut full = None;
    for _ in 0..3 {
        let input = tr.span("vadalog.facts_clone", || facts.clone());
        full = Some(
            tr.span("vadalog.run", || Engine::new().run(&program, input))
                .map_err(|e| format!("engine run: {e}"))?,
        );
    }
    let full = full.expect("runs > 0");
    if risk_rows(&full.db).len() != small.len() {
        return Err("full scoring did not score every row".into());
    }
    let qis = dict
        .quasi_identifiers(&small.name)
        .map_err(|e| e.to_string())?;
    let (group_of, members) = qi_groups(&small, &qis);
    let mut answered = 0usize;
    let mut derived = 0u64;
    let mut pruned = 0u64;
    for r in spread(spec.seed, small.len(), GOALS) {
        let goals = group_goals(&members[group_of[r]]);
        let input = tr.span("vadalog.facts_clone", || facts.clone());
        let run = tr
            .span("vadalog.goal_run", || {
                Engine::new().run_with_goals(
                    &program,
                    input,
                    &goals,
                    MagicOptions {
                        closed_groups: true,
                    },
                )
            })
            .map_err(|e| format!("goal run: {e}"))?;
        if !run.magic.applied {
            return Err(format!(
                "magic rewrite did not apply: {:?}",
                run.magic.fallback
            ));
        }
        let got = answers(&run.result.db, &goals);
        check_goal(&got, &answers(&full.db, &goals))?;
        answered += got.len();
        derived += run.result.profile.facts_derived;
        pruned = run.result.profile.magic_pruned_rules;
    }
    let p = &full.profile;
    report.metric("vadalog.parse_ms", med(tr, "vadalog.parse") * 1e3, "ms", "");
    report.metric("vadalog.run_s", med(tr, "vadalog.run"), "s", "");
    report.metric(
        "vadalog.goal_run_ms",
        med(tr, "vadalog.goal_run") * 1e3,
        "ms",
        "",
    );
    report.metric(
        "vadalog.facts_clone_ms",
        med(tr, "vadalog.facts_clone") * 1e3,
        "ms",
        "",
    );
    report.metric(
        "vadalog.iterations",
        p.iterations as f64,
        "count",
        "full scoring",
    );
    report.metric(
        "vadalog.facts_derived",
        p.facts_derived as f64,
        "count",
        "full scoring",
    );
    report.metric(
        "vadalog.index_probes",
        p.index_probes as f64,
        "count",
        "full scoring",
    );
    report.metric(
        "vadalog.magic_pruned_rules",
        pruned as f64,
        "count",
        "goal query",
    );
    report.metric(
        "vadalog.goal_useful_ratio",
        answered as f64 / derived.max(1) as f64,
        "ratio",
        "goal answers / facts derived by the goal runs",
    );
    Ok(())
}
