//! `engine-risk-4k`: the declarative engine.
//!
//! The paper's Algorithm 2 + Algorithm 5 individual-risk program over a
//! 4k-row regime-U table. One client interleaves full scorings
//! (`Engine::run`) with per-respondent group queries
//! (`Engine::run_with_goals`, `closed_groups`), so a change that helps
//! the whole fixpoint but costs the pruned slice (or the reverse) shows.

use crate::checks::{check_goal, check_release, risky_rows};
use crate::probes::ProbeInput;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{process_cpu_s, timed_setup, traced_op, Clock, RunSpec, Window, K};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;
use vadalog::{
    goal_slice, parse_program, Atom, Database, Engine, MagicOptions, Program, Term, Value,
};
use vadasa_core::io::write_csv;
use vadasa_core::pipeline::Vadasa;
use vadasa_core::prelude::{MetadataDictionary, MicrodataDb};
use vadasa_core::programs::{microdata_to_facts, ALG2_TUPLE_REIFICATION, ALG5_INDIVIDUAL_RISK};
use vadasa_datagen::{generate, DatasetSpec, Regime};
use vadasa_server::{JobSpec, MeasureSpec};

/// The Algorithm 2 + Algorithm 5 program text.
pub(crate) fn risk_source() -> String {
    format!("{ALG2_TUPLE_REIFICATION}{ALG5_INDIVIDUAL_RISK}")
}

/// `riskOutput` rows sorted by respondent.
pub(crate) fn risk_rows(db: &Database) -> Vec<Vec<Value>> {
    let mut rows = db.rows("riskOutput");
    rows.sort();
    rows
}

/// Rows grouped by their quasi-identifier values: the group of every row
/// and the members of every group (the `tuple` relation's VSet classes).
pub(crate) fn qi_groups(db: &MicrodataDb, qis: &[String]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut ids: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut group_of = Vec::with_capacity(db.len());
    for i in 0..db.len() {
        let key: Vec<Value> = qis
            .iter()
            .map(|q| db.value(i, q).expect("quasi-identifier exists").clone())
            .collect();
        let g = *ids.entry(key).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[g].push(i);
        group_of.push(g);
    }
    (group_of, members)
}

/// `count` respondents spread over `n` rows: one seeded pick per stratum.
pub(crate) fn spread(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E_0A1);
    let count = count.min(n).max(1);
    (0..count)
        .map(|s| {
            let (lo, hi) = (s * n / count, (s + 1) * n / count);
            rng.gen_range(lo..hi.max(lo + 1))
        })
        .collect()
}

/// Goals for one respondent: `riskOutput(I, R)` for every member of its
/// quasi-identifier group, so the goal set is closed under group equality
/// (what `closed_groups` requires).
pub(crate) fn group_goals(members: &[usize]) -> Vec<Atom> {
    members
        .iter()
        .map(|&i| {
            Atom::new(
                "riskOutput",
                vec![Term::Const(Value::Int(i as i64)), Term::Var("R".into())],
            )
        })
        .collect()
}

/// The goal answers of `goals` in `db`.
pub(crate) fn answers(db: &Database, goals: &[Atom]) -> Vec<Vec<Value>> {
    goals.iter().flat_map(|g| goal_slice(db, g)).collect()
}

/// Check the reference scoring against Algorithm 5 computed directly:
/// risk = group frequency / group weight sum.
fn check_reference(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    reference: &[Vec<Value>],
) -> Result<(), String> {
    let qis = dict
        .quasi_identifiers(&db.name)
        .map_err(|e| e.to_string())?;
    let wattr = dict.weight_attr(&db.name).map_err(|e| e.to_string())?;
    let weights = db.numeric_column(&wattr).map_err(|e| e.to_string())?;
    let (group_of, members) = qi_groups(db, &qis);
    if reference.len() != db.len() {
        return Err(format!("{} risks for {} rows", reference.len(), db.len()));
    }
    for row in reference {
        let (Some(Value::Int(i)), Some(r)) = (row.first(), row.get(1).and_then(Value::as_f64))
        else {
            return Err(format!("malformed riskOutput row {row:?}"));
        };
        let g = &members[group_of[*i as usize]];
        let want = g.len() as f64 / g.iter().map(|&m| weights[m]).sum::<f64>();
        if (r - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!("row {i}: engine risk {r}, expected {want}"));
        }
    }
    Ok(())
}

struct Setup {
    db: MicrodataDb,
    dict: MetadataDictionary,
    facts: Database,
}

pub(crate) fn run(
    spec: &RunSpec,
    tr: &Tracer,
    report: &mut Report,
    probe: &mut Option<ProbeInput>,
) -> Result<(f64, Window), String> {
    let sz = &spec.sizes;
    let (setup_s, setup) = timed_setup(|_| {
        let (db, dict) = generate(&DatasetSpec::new(sz.engine_rows, 4, Regime::U), spec.seed);
        let facts = microdata_to_facts(&db, &dict).map_err(|e| e.to_string())?;
        Ok::<_, String>(Setup { db, dict, facts })
    });
    let Setup { db, dict, facts } = setup?;
    let program: Program = parse_program(&risk_source()).map_err(|e| e.to_string())?;
    let reference = Engine::new()
        .run(&program, facts.clone())
        .map_err(|e| format!("reference scoring: {e}"))?
        .db;
    let reference_rows = risk_rows(&reference);
    check_reference(&db, &dict, &reference_rows)?;

    let qis = dict
        .quasi_identifiers(&db.name)
        .map_err(|e| e.to_string())?;
    let (group_of, members) = qi_groups(&db, &qis);
    let respondents = spread(spec.seed, db.len(), 4 * sz.goals_per_full);
    let goal_sets: Vec<(Vec<Atom>, Vec<Vec<Value>>)> = respondents
        .iter()
        .map(|&r| {
            let goals = group_goals(&members[group_of[r]]);
            let want = answers(&reference, &goals);
            (goals, want)
        })
        .collect();

    // Information loss of releasing this table, and more of its regime,
    // at k = 2 with the facade defaults (untimed; the engine ops do not
    // anonymize). Several tables, so the ratio does not hinge on one seed.
    let qi_refs: Vec<&str> = qis.iter().map(String::as_str).collect();
    let (mut nulls, mut risky) = (0, 0);
    for t in 0..sz.engine_loss_tables {
        let table = if t == 0 {
            db.clone()
        } else {
            let seed = spec.seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
            generate(&DatasetSpec::new(sz.engine_rows, 4, Regime::U), seed).0
        };
        let release = Vadasa::new()
            .k_anonymity(K)
            .with_dictionary(dict.clone())
            .run(&table)
            .map_err(|e| format!("release: {e}"))?;
        let csv = write_csv(&table);
        nulls += check_release(&csv, &write_csv(&release.outcome.db), &qi_refs, K)?;
        risky += risky_rows(&csv, &qi_refs, K)?;
    }

    let mut w = Window {
        cells_suppressed: nulls as f64,
        risky_rows: risky as f64,
        ..Window::default()
    };
    let mut goal_secs: Vec<f64> = Vec::new();
    let (mut busy, mut busy_cpu) = (0.0, 0.0);
    let options = MagicOptions {
        closed_groups: true,
    };
    let mut clock = Clock::new(spec);
    let mut n = 0u64;
    let mut next_goal = 0usize;
    while clock.more(spec, n) {
        // a full scoring ...
        let timed = clock.timed(n);
        let traced = timed.is_some_and(|op| traced_op(spec, op));
        tr.set_on(traced);
        tr.set_op(n);
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let run = tr.span("vadalog.facts_clone", || facts.clone());
        let run = tr.span("vadalog.run", || Engine::new().run(&program, run));
        let secs = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - c0;
        let result = match run {
            Ok(r) => tr.span("check", || {
                if risk_rows(&r.db) == reference_rows {
                    Ok(())
                } else {
                    Err("full scoring differs from the reference".to_string())
                }
            }),
            Err(e) => Err(format!("full scoring: {e}")),
        };
        if result.is_ok() && timed.is_some() {
            w.op_secs.push(secs);
            w.op_traced.push(traced);
            w.op_cpu.push(cpu);
            busy += secs;
            busy_cpu += cpu;
        }
        report.record(result);
        // ... then the goal queries
        for _ in 0..sz.goals_per_full {
            let (goals, want) = &goal_sets[next_goal % goal_sets.len()];
            next_goal += 1;
            let (t0, c0) = (Instant::now(), process_cpu_s());
            let run = tr.span("vadalog.facts_clone", || facts.clone());
            let run = tr.span("vadalog.goal_run", || {
                Engine::new().run_with_goals(&program, run, goals, options)
            });
            let secs = t0.elapsed().as_secs_f64();
            let cpu = process_cpu_s() - c0;
            let result = match run {
                Ok(r) if !r.magic.applied => Err(format!(
                    "magic rewrite did not apply: {:?}",
                    r.magic.fallback
                )),
                Ok(r) => tr.span("check", || check_goal(&answers(&r.result.db, goals), want)),
                Err(e) => Err(format!("goal query: {e}")),
            };
            if result.is_ok() && timed.is_some() {
                goal_secs.push(secs);
                busy += secs;
                busy_cpu += cpu;
            }
            report.record(result);
        }
        tr.set_on(false);
        n += 1;
    }
    let ops = (w.op_secs.len() + goal_secs.len()) as f64;
    w.ops_per_s = ops / busy;
    w.ops_per_cpu_s = ops / busy_cpu;

    report.extra("full_score_s.p50", median(&w.op_secs), "s", "= op_s.p50");
    report.extra(
        "goal_query_ms.p50",
        median(&goal_secs) * 1e3,
        "ms",
        format!("n={}", goal_secs.len()),
    );
    if let Some(t) = tail(&goal_secs) {
        report.extra(
            "goal_query_ms.tail",
            t.value * 1e3,
            "ms",
            format!("p{} of n={}", t.pct, t.samples),
        );
    }

    if spec.trace {
        let job = JobSpec::new(&db, &dict, MeasureSpec::KAnonymity(K))
            .map_err(|e| format!("job spec: {e}"))?;
        let cfg = vadasa_core::cycle::CycleConfig::default();
        *probe = Some(ProbeInput::new(write_csv(&db), job, &cfg));
    }
    Ok((setup_s, w))
}
