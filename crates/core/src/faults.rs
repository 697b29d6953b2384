//! Deterministic fault injection for the anonymization cycle.
//!
//! Robustness claims are cheap; this module makes them testable. It wraps
//! real plug-ins ([`FaultyRisk`], [`FaultyAnonymizer`]) so that a seeded
//! [`FaultPlan`] can make them panic at a chosen call ordinal, flip a
//! [`CancelToken`] mid-run, or pair with budget/deadline configuration —
//! always at the *same* point for the same seed, so a failing scenario
//! reproduces exactly.
//!
//! The harness lives in the library (not the test tree) so integration
//! tests, benches and downstream consumers can all drive the same
//! scenarios. Its deliberate panics carry `gate-allow` markers: they are
//! the faults under test, not accidental partiality.

use crate::anonymize::{AnonymizationAction, AnonymizeError, Anonymizer};
use crate::dictionary::MetadataDictionary;
use crate::journal::io::{FileJournalIo, IoMode, JournalIo};
use crate::journal::IoFactory;
use crate::model::MicrodataDb;
use crate::risk::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vadalog::backend::{ArtifactIo, RealArtifactIo};
use vadalog::CancelToken;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Configure the cycle with this iteration cap so it trips before
    /// convergence (a budget fault, not a plug-in fault).
    IterationCap(usize),
    /// Configure the cycle with a zero wall-clock deadline: the very
    /// first deadline check trips.
    ImmediateDeadline,
    /// The risk measure panics on its `n`-th `evaluate` call (1-based).
    PanicInRisk {
        /// Which evaluate call panics, counting from 1.
        at_eval: usize,
    },
    /// The anonymizer panics on its `n`-th step (1-based).
    PanicInAnonymizer {
        /// Which step call panics, counting from 1.
        at_step: usize,
    },
    /// A [`CancelToken`] is flipped after `n` risk evaluations, as if an
    /// operator pressed Ctrl-C mid-cycle.
    CancelAfterEvals(usize),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::IterationCap(n) => write!(f, "iteration cap at {n}"),
            Fault::ImmediateDeadline => write!(f, "immediate deadline"),
            Fault::PanicInRisk { at_eval } => write!(f, "risk measure panics at eval #{at_eval}"),
            Fault::PanicInAnonymizer { at_step } => {
                write!(f, "anonymizer panics at step #{at_step}")
            }
            Fault::CancelAfterEvals(n) => write!(f, "cancelled after {n} evals"),
        }
    }
}

/// A named, reproducible fault scenario.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Human-readable scenario name (used in test output).
    pub name: String,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// The deterministic scenario matrix for `seed`: every fault kind,
    /// with call ordinals drawn from the seeded generator so different
    /// seeds probe different interleavings while any single seed
    /// reproduces exactly.
    pub fn scenarios(seed: u64) -> Vec<FaultPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        let eval_at = 1 + rng.gen_range(0..3usize);
        let step_at = 1 + rng.gen_range(0..5usize);
        let cancel_after = 1 + rng.gen_range(0..2usize);
        vec![
            FaultPlan {
                name: "budget:iteration-cap-0".into(),
                fault: Fault::IterationCap(0),
            },
            FaultPlan {
                name: "budget:iteration-cap-1".into(),
                fault: Fault::IterationCap(1),
            },
            FaultPlan {
                name: "budget:immediate-deadline".into(),
                fault: Fault::ImmediateDeadline,
            },
            FaultPlan {
                name: format!("panic:risk-eval-{eval_at}"),
                fault: Fault::PanicInRisk { at_eval: eval_at },
            },
            FaultPlan {
                name: "panic:risk-eval-1".into(),
                fault: Fault::PanicInRisk { at_eval: 1 },
            },
            FaultPlan {
                name: format!("panic:anonymizer-step-{step_at}"),
                fault: Fault::PanicInAnonymizer { at_step: step_at },
            },
            FaultPlan {
                name: format!("cancel:after-{cancel_after}-evals"),
                fault: Fault::CancelAfterEvals(cancel_after),
            },
        ]
    }
}

/// A risk measure that misbehaves on cue: panics on a chosen call ordinal
/// and/or flips a [`CancelToken`] after a number of evaluations, otherwise
/// delegating to the wrapped measure.
pub struct FaultyRisk<'a> {
    inner: &'a dyn RiskMeasure,
    panic_at: Option<usize>,
    cancel_after: Option<(usize, CancelToken)>,
    evals: AtomicUsize,
}

impl<'a> FaultyRisk<'a> {
    /// Wrap `inner` with no faults armed (a transparent pass-through).
    pub fn new(inner: &'a dyn RiskMeasure) -> Self {
        FaultyRisk {
            inner,
            panic_at: None,
            cancel_after: None,
            evals: AtomicUsize::new(0),
        }
    }

    /// Panic on the `n`-th `evaluate` call (1-based).
    pub fn panic_at(mut self, n: usize) -> Self {
        self.panic_at = Some(n);
        self
    }

    /// Flip `token` after `n` `evaluate` calls (1-based).
    pub fn cancel_after(mut self, n: usize, token: CancelToken) -> Self {
        self.cancel_after = Some((n, token));
        self
    }

    /// How many `evaluate` calls the wrapper has seen.
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }
}

impl RiskMeasure for FaultyRisk<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let call = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_at == Some(call) {
            panic!("injected risk fault at eval #{call}"); // gate-allow: the fault under test
        }
        if let Some((after, token)) = &self.cancel_after {
            if call >= *after {
                token.cancel();
            }
        }
        self.inner.evaluate(view)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        self.inner.evaluate_tuple(view, row)
    }
}

/// An anonymizer that panics on a chosen step ordinal, otherwise
/// delegating to the wrapped anonymizer. Every step counts once, whether it
/// came through `anonymize_step_on` or the view-building `anonymize_step`.
pub struct FaultyAnonymizer<'a> {
    inner: &'a dyn Anonymizer,
    panic_at: Option<usize>,
    steps: AtomicUsize,
}

impl<'a> FaultyAnonymizer<'a> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: &'a dyn Anonymizer) -> Self {
        FaultyAnonymizer {
            inner,
            panic_at: None,
            steps: AtomicUsize::new(0),
        }
    }

    /// Panic on the `n`-th step (1-based).
    pub fn panic_at(mut self, n: usize) -> Self {
        self.panic_at = Some(n);
        self
    }

    /// How many steps the wrapper has seen.
    pub fn steps(&self) -> usize {
        self.steps.load(Ordering::Relaxed)
    }
}

impl Anonymizer for FaultyAnonymizer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn anonymize_step_on(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let call = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_at == Some(call) {
            panic!("injected anonymizer fault at step #{call}"); // gate-allow: the fault under test
        }
        self.inner.anonymize_step_on(db, dict, view, row)
    }
}

/// One injectable journal-I/O fault, applied by [`FaultyJournalIo`] at a
/// chosen operation ordinal. Ordinals count `append` calls (for write
/// faults) or `sync` calls (for sync faults) across the whole run,
/// 1-based, journal and snapshot streams together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFault {
    /// The `n`-th append persists only the first `k` bytes of its buffer
    /// and then errors — a torn write, the canonical crash shape.
    ShortWriteThenError {
        /// Which append call tears, counting from 1.
        at_append: usize,
        /// How many bytes of that buffer still land on disk.
        keep_bytes: usize,
    },
    /// The `n`-th append fails outright, persisting nothing.
    WriteError {
        /// Which append call fails, counting from 1.
        at_append: usize,
    },
    /// The `n`-th fsync fails (data may or may not be durable — the
    /// recovery contract must hold either way).
    SyncError {
        /// Which sync call fails, counting from 1.
        at_sync: usize,
    },
    /// Every append from the `n`-th on fails with `ENOSPC`-like errors,
    /// as a full disk does.
    FullDisk {
        /// First failing append call, counting from 1.
        from_append: usize,
    },
    /// Every byte up to the `k`-th is persisted normally; at the `k`-th
    /// byte the process "crashes": the write stops there and every later
    /// operation fails. Sweeping `k` over a reference journal's length
    /// yields a kill point at every record boundary and mid-record.
    CrashAfterBytes {
        /// Total journal bytes persisted before the crash.
        bytes: usize,
    },
    /// The first `failing` appends fail transiently (persisting
    /// nothing); every later append succeeds. Because the factory's
    /// ordinal counter is shared across every sink it opens — including
    /// across *retry attempts* that reuse the same factory — this models
    /// a fault that heals by the time a supervisor retries the job: the
    /// canonical transient-then-ok shape the server's retry/backoff path
    /// must absorb.
    TransientAppends {
        /// How many leading appends fail, counting from 1.
        failing: usize,
    },
}

impl fmt::Display for JournalFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalFault::ShortWriteThenError {
                at_append,
                keep_bytes,
            } => write!(
                f,
                "short write at append #{at_append} (keeps {keep_bytes}B)"
            ),
            JournalFault::WriteError { at_append } => {
                write!(f, "write error at append #{at_append}")
            }
            JournalFault::SyncError { at_sync } => write!(f, "fsync failure at sync #{at_sync}"),
            JournalFault::FullDisk { from_append } => {
                write!(f, "disk full from append #{from_append}")
            }
            JournalFault::CrashAfterBytes { bytes } => write!(f, "crash after {bytes} bytes"),
            JournalFault::TransientAppends { failing } => {
                write!(f, "first {failing} append(s) fail transiently")
            }
        }
    }
}

/// Shared fault state so one [`JournalFault`] spans every sink a run
/// opens (the journal file and each snapshot temp file).
struct JournalFaultState {
    fault: JournalFault,
    appends: AtomicUsize,
    syncs: AtomicUsize,
    bytes: AtomicUsize,
}

/// A [`JournalIo`] wrapper that injects the planned fault and otherwise
/// delegates to a real file sink.
pub struct FaultyJournalIo {
    inner: FileJournalIo,
    state: Arc<JournalFaultState>,
}

impl JournalIo for FaultyJournalIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let call = self.state.appends.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.fault {
            JournalFault::ShortWriteThenError {
                at_append,
                keep_bytes,
            } if call == at_append => {
                let keep = keep_bytes.min(buf.len());
                self.inner.append(&buf[..keep])?;
                let _ = self.inner.sync(); // the torn prefix really lands
                Err(io::Error::other("injected short write"))
            }
            JournalFault::WriteError { at_append } if call == at_append => {
                Err(io::Error::other("injected write error"))
            }
            JournalFault::TransientAppends { failing } if call <= failing => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient append failure",
            )),
            JournalFault::FullDisk { from_append } if call >= from_append => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk full",
            )),
            JournalFault::CrashAfterBytes { bytes } => {
                let written = self.state.bytes.load(Ordering::Relaxed);
                if written >= bytes {
                    return Err(io::Error::other("injected crash"));
                }
                let keep = (bytes - written).min(buf.len());
                self.inner.append(&buf[..keep])?;
                let _ = self.inner.sync();
                self.state.bytes.fetch_add(keep, Ordering::Relaxed);
                if keep < buf.len() {
                    Err(io::Error::other("injected crash"))
                } else {
                    Ok(())
                }
            }
            _ => {
                self.state.bytes.fetch_add(buf.len(), Ordering::Relaxed);
                self.inner.append(buf)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let call = self.state.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.fault {
            JournalFault::SyncError { at_sync } if call == at_sync => {
                Err(io::Error::other("injected fsync failure"))
            }
            JournalFault::CrashAfterBytes { bytes }
                if self.state.bytes.load(Ordering::Relaxed) >= bytes =>
            {
                Err(io::Error::other("injected crash"))
            }
            _ => self.inner.sync(),
        }
    }
}

/// Build a [`JournalConfig::io_factory`](crate::journal::JournalConfig)
/// that injects `fault` into every sink the run opens. Ordinals are
/// counted across all sinks, so one plan covers journal appends and
/// snapshot writes alike.
pub fn faulty_io_factory(fault: JournalFault) -> IoFactory {
    let state = Arc::new(JournalFaultState {
        fault,
        appends: AtomicUsize::new(0),
        syncs: AtomicUsize::new(0),
        bytes: AtomicUsize::new(0),
    });
    Arc::new(move |path: &Path, mode: IoMode| {
        let inner = match mode {
            IoMode::Journal => FileJournalIo::append_create(path)?,
            IoMode::Snapshot => FileJournalIo::create(path)?,
        };
        Ok(Box::new(FaultyJournalIo {
            inner,
            state: state.clone(),
        }) as Box<dyn JournalIo>)
    })
}

/// One injectable artifact-storage fault, applied by the [`ArtifactIo`]
/// built with [`faulty_artifact_io`] and slotted under a
/// [`FileBackend`](vadalog::backend::FileBackend). Write ordinals are
/// 1-based and shared across every artifact the backend touches, so one
/// plan covers a whole run's persistence traffic.
///
/// The matrix contract (see `tests/storage_matrix.rs`): every one of
/// these, injected at any point, must surface as a **structured
/// [`StorageError`](vadalog::backend::StorageError)** or a **documented
/// cold fallback** — never a panic, never silent divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The `n`-th write persists only the first `k` bytes of its buffer
    /// and then errors — a torn artifact write. The atomic-replace
    /// protocol (tmp + rename) must keep the previous artifact visible.
    TornWrite {
        /// Which write call tears, counting from 1.
        at_write: usize,
        /// How many bytes of that buffer still land on disk.
        keep_bytes: usize,
    },
    /// Every write from the `n`-th on fails with an `ENOSPC`-like error.
    FullDisk {
        /// First failing write call, counting from 1.
        from_write: usize,
    },
    /// Every byte up to the `k`-th (cumulative across writes) persists;
    /// then the process "crashes" — the write stops and all later writes
    /// fail. Sweeping `k` over a reference artifact's length gives a
    /// kill point at every byte.
    CrashAfterBytes {
        /// Total artifact bytes persisted before the crash.
        bytes: usize,
    },
    /// Reads succeed but return a corrupt page: the byte at
    /// `flip_byte % len` comes back bit-flipped.
    CorruptOnRead {
        /// Which byte of the artifact is flipped (wrapped into range).
        flip_byte: usize,
    },
    /// Every read is denied (`EACCES`-like) — the reopen-denied shape a
    /// permissions change or stale NFS handle produces.
    ReopenDenied,
    /// Reads return an alien file: the artifact magic is replaced.
    AlienMagic,
    /// Reads return the artifact with its format version bumped to
    /// `u32::MAX`, as a file written by a much newer build would carry.
    FutureVersion,
}

impl fmt::Display for StorageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageFault::TornWrite {
                at_write,
                keep_bytes,
            } => write!(f, "torn write at write #{at_write} (keeps {keep_bytes}B)"),
            StorageFault::FullDisk { from_write } => {
                write!(f, "disk full from write #{from_write}")
            }
            StorageFault::CrashAfterBytes { bytes } => {
                write!(f, "crash after {bytes} artifact bytes")
            }
            StorageFault::CorruptOnRead { flip_byte } => {
                write!(f, "corrupt page: byte {flip_byte} flipped on read")
            }
            StorageFault::ReopenDenied => write!(f, "artifact reopen denied"),
            StorageFault::AlienMagic => write!(f, "alien magic on read"),
            StorageFault::FutureVersion => write!(f, "future format version on read"),
        }
    }
}

impl StorageFault {
    /// The canonical storage fault matrix: one representative of every
    /// fault family, with fixed early ordinals so each fault actually
    /// fires on small workloads. Tests extend this with swept ordinals
    /// (`CrashAfterBytes` over a reference artifact's length).
    pub fn matrix() -> Vec<StorageFault> {
        vec![
            StorageFault::TornWrite {
                at_write: 1,
                keep_bytes: 7,
            },
            StorageFault::TornWrite {
                at_write: 2,
                keep_bytes: 0,
            },
            StorageFault::FullDisk { from_write: 1 },
            StorageFault::FullDisk { from_write: 2 },
            StorageFault::CrashAfterBytes { bytes: 0 },
            StorageFault::CrashAfterBytes { bytes: 13 },
            StorageFault::CorruptOnRead { flip_byte: 3 },
            StorageFault::CorruptOnRead { flip_byte: 40 },
            StorageFault::ReopenDenied,
            StorageFault::AlienMagic,
            StorageFault::FutureVersion,
        ]
    }
}

/// Shared fault state so one [`StorageFault`]'s ordinals span every
/// artifact a backend touches.
struct StorageFaultState {
    fault: StorageFault,
    writes: AtomicUsize,
    bytes: AtomicUsize,
}

/// An [`ArtifactIo`] that injects the planned [`StorageFault`] and
/// otherwise performs real file I/O.
pub struct FaultyArtifactIo {
    inner: RealArtifactIo,
    state: Arc<StorageFaultState>,
}

impl ArtifactIo for FaultyArtifactIo {
    fn write(&self, path: &Path, buf: &[u8]) -> io::Result<()> {
        let call = self.state.writes.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.fault {
            StorageFault::TornWrite {
                at_write,
                keep_bytes,
            } if call == at_write => {
                let keep = keep_bytes.min(buf.len());
                self.inner.write(path, &buf[..keep])?;
                Err(io::Error::other("injected torn artifact write"))
            }
            StorageFault::FullDisk { from_write } if call >= from_write => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk full",
            )),
            StorageFault::CrashAfterBytes { bytes } => {
                let written = self.state.bytes.load(Ordering::Relaxed);
                if written >= bytes {
                    return Err(io::Error::other("injected crash"));
                }
                let keep = (bytes - written).min(buf.len());
                self.inner.write(path, &buf[..keep])?;
                self.state.bytes.fetch_add(keep, Ordering::Relaxed);
                if keep < buf.len() {
                    Err(io::Error::other("injected crash"))
                } else {
                    Ok(())
                }
            }
            _ => self.inner.write(path, buf),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.state.fault {
            StorageFault::ReopenDenied => Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "injected reopen denial",
            )),
            StorageFault::CorruptOnRead { flip_byte } => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let i = flip_byte % bytes.len();
                    bytes[i] ^= 0x40;
                }
                Ok(bytes)
            }
            StorageFault::AlienMagic => {
                let mut bytes = self.inner.read(path)?;
                for (i, b) in bytes.iter_mut().take(8).enumerate() {
                    *b = b"NOTAVADA"[i];
                }
                Ok(bytes)
            }
            StorageFault::FutureVersion => {
                let mut bytes = self.inner.read(path)?;
                if bytes.len() >= 12 {
                    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
                }
                Ok(bytes)
            }
            _ => self.inner.read(path),
        }
    }
}

/// Build an [`ArtifactIo`] injecting `fault`, for
/// [`FileBackend::with_io`](vadalog::backend::FileBackend::with_io).
pub fn faulty_artifact_io(fault: StorageFault) -> Arc<dyn ArtifactIo> {
    Arc::new(FaultyArtifactIo {
        inner: RealArtifactIo,
        state: Arc::new(StorageFaultState {
            fault,
            writes: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }),
    })
}

/// Server-level fault injection: what a *job* submitted to the
/// `vadasa-server` supervisor should do wrong, and when. Unlike the
/// plug-in wrappers above (which a caller wires manually), a
/// `ServerFault` rides on the job specification and the server's worker
/// arms the corresponding machinery itself — so the retry/backoff,
/// panic-isolation and delayed-admission paths are all deterministically
/// testable from the outside.
///
/// Faults are an in-memory testing surface only: they are **not**
/// persisted into the job manifest, so a recovered job restarts clean
/// (exactly what a real transient fault looks like across a restart).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFault {
    /// Panic in the worker thread itself — outside the cycle's plug-in
    /// guard — when it begins the given attempt (1-based). Exercises the
    /// supervisor's `catch_unwind` isolation: the job must end `Failed`
    /// with a structured error while the worker pool keeps serving.
    pub panic_on_attempt: Option<u32>,
    /// Arm a [`FaultyRisk`] wrapper that panics on the `n`-th risk
    /// evaluation (1-based) — the in-cycle plug-in-panic path, handled
    /// by the cycle's own isolation per its fallback policy.
    pub risk_panic_at_eval: Option<usize>,
    /// Arm a [`JournalFault::TransientAppends`] I/O factory: the first
    /// `n` journal appends fail, later ones succeed. With the default
    /// fail-fast I/O policy the first attempt dies with a transient
    /// journal error and the retry converges — the retry/backoff path.
    pub transient_appends: Option<usize>,
    /// Sleep this long in the worker before the job actually starts —
    /// holds a worker slot deterministically so admission-control and
    /// cancellation windows can be pinned in tests.
    pub delay_start: Option<std::time::Duration>,
}

impl ServerFault {
    /// No faults armed (what `Default` also gives you).
    pub fn none() -> Self {
        ServerFault::default()
    }

    /// Is any fault armed?
    pub fn is_armed(&self) -> bool {
        *self != ServerFault::default()
    }

    /// Panic in the worker at the start of `attempt` (1-based).
    pub fn panic_on_attempt(mut self, attempt: u32) -> Self {
        self.panic_on_attempt = Some(attempt);
        self
    }

    /// Panic inside the risk measure at evaluation `n` (1-based).
    pub fn risk_panic_at_eval(mut self, n: usize) -> Self {
        self.risk_panic_at_eval = Some(n);
        self
    }

    /// Fail the first `n` journal appends, then heal.
    pub fn transient_appends(mut self, n: usize) -> Self {
        self.transient_appends = Some(n);
        self
    }

    /// Delay the job's start by `d`.
    pub fn delay_start(mut self, d: std::time::Duration) -> Self {
        self.delay_start = Some(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let a = FaultPlan::scenarios(42);
        let b = FaultPlan::scenarios(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.fault, y.fault);
        }
    }

    #[test]
    fn different_seeds_vary_ordinals() {
        // Not guaranteed for any two seeds, but these two differ — and
        // more importantly every kind of fault is present in both.
        let kinds = |plans: &[FaultPlan]| {
            plans
                .iter()
                .map(|p| std::mem::discriminant(&p.fault))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            kinds(&FaultPlan::scenarios(1)),
            kinds(&FaultPlan::scenarios(2))
        );
    }

    #[test]
    fn transient_appends_heal_across_reopened_sinks() {
        let dir = std::env::temp_dir().join(format!("vadasa-transient-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let factory = faulty_io_factory(JournalFault::TransientAppends { failing: 2 });
        // First sink: both appends fail (ordinals 1 and 2)...
        let mut a = factory(&dir.join("a.wal"), IoMode::Journal).unwrap();
        assert!(a.append(b"x").is_err());
        assert!(a.append(b"y").is_err());
        // ...and a *new* sink from the same factory — a retry attempt —
        // continues the shared count, so its appends succeed.
        let mut b = factory(&dir.join("b.wal"), IoMode::Journal).unwrap();
        b.append(b"z").unwrap();
        b.sync().unwrap();
        assert_eq!(std::fs::read(dir.join("b.wal")).unwrap(), b"z");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_fault_builders_compose() {
        let f = ServerFault::none()
            .panic_on_attempt(1)
            .transient_appends(3)
            .delay_start(std::time::Duration::from_millis(5));
        assert!(f.is_armed());
        assert_eq!(f.panic_on_attempt, Some(1));
        assert_eq!(f.transient_appends, Some(3));
        assert!(!ServerFault::none().is_armed());
    }
}
