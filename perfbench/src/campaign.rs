//! The three campaign workloads: `figure_campaign`, `oracle_direct` and
//! `sweep_journal`.
//!
//! Each has two passes over the same inputs:
//!
//! * the **untraced** pass calls the public `dls-repro` entry point
//!   (`run_figure_resilient`, `run_direct_campaign_resilient`,
//!   `run_sweep_resilient`) and writes the CSV through `write_artifact`,
//!   exactly as the CLI does;
//! * the **traced** pass re-drives the same seeds through the public
//!   runner (`run_campaign_resilient_batched`) with this package's own
//!   per-run closure, which times every call into the layers' public
//!   functions (`Workload::generate_into`, `simulate_with_setup_metered`,
//!   `BatchDirectSimulator::run_batch`, `Journal::record`, ...).
//!
//! The traced closures mirror the entry points' closures step for step, so
//! both passes must produce byte-identical CSVs; every traced run checks
//! that they do.

use crate::layers::{Layer, LayerClock};
use crate::THREADS;
use dls_chaos::{HostFile, HostIo, RetryPolicy};
use dls_core::{drain_round_robin, LoopSetup, SetupError, Technique};
use dls_hagerup::BatchDirectSimulator;
use dls_metrics::{discrepancy, relative_discrepancy_pct, OverheadModel, SummaryStats};
use dls_msgsim::{simulate_with_setup_metered, simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_repro::error::ReproError;
use dls_repro::hagerup_exp::{
    run_direct_campaign_resilient, run_figure_resilient, DirectCampaignConfig, DirectRow, FigPair,
    HagerupConfig, OracleMode, WastedRow,
};
use dls_repro::journal::{run_key, write_artifact, Journal, JournalMeta};
use dls_repro::report::{format_csv, wasted_rows};
use dls_repro::runner::{batch_width_for, cell_seed, run_campaign_resilient_batched, ExecContext};
use dls_repro::sweep::{run_sweep_resilient, table_rows, SweepConfig, SweepRow, SweepRunObs};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::{TaskTimes, Workload};
use serde::Serialize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runs per (technique, p) cell of the `figure_campaign` grid.
pub const FIGURE_RUNS: u32 = 64;
/// Runs per PE count of the `oracle_direct` campaigns.
pub const ORACLE_RUNS: u32 = 24;
/// Loop size of the `oracle_direct` campaigns (Fig 7's `n`).
pub const ORACLE_N: u64 = 65_536;
/// Runs per cell of the `sweep_journal` grid. At n = 4,096 the batched
/// runner claims 32 runs per block, so the default 20 runs are one block
/// and only one of the two worker threads works; a single thread's pass
/// time followed the host's per-CPU speed phases (up to 1.6× between
/// phases of a few seconds), and two busy threads average two CPUs' phases.
/// 64 runs are two blocks per cell.
pub const SWEEP_RUNS: u32 = 64;
/// The paper's PE counts.
pub const PAPER_PES: [usize; 5] = [2, 8, 64, 256, 1024];

/// The seed salt `hagerup_exp` separates the oracle's realizations with in
/// `OracleMode::IndependentSeeds`. The traced figure pass must use the
/// same value; if the program changes it, the traced-vs-untraced output
/// check fails and says so.
const ORACLE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// `run_figure_resilient` on the Fig 6 grid.
    Figure,
    /// `run_direct_campaign_resilient` at n = 65,536, once per paper `p`.
    Oracle,
    /// `run_sweep_resilient` on the default sweep grid, journaled, then
    /// replayed from the complete journal.
    Sweep,
}

/// The inputs one campaign workload's entry point takes, derived from the
/// benchmark seed through `runner::cell_seed`.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Figure grid configuration.
    Figure(HagerupConfig),
    /// One direct-campaign configuration per PE count.
    Oracle(Vec<DirectCampaignConfig>),
    /// Sweep configuration plus the journal identity it checkpoints under.
    Sweep(SweepConfig, JournalMeta),
}

/// What one pass of a campaign produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Entry-point call to CSV on disk, seconds.
    pub wall_s: f64,
    /// The CSV bytes as written.
    pub csv: String,
    /// Every reported statistic at full precision (`f64` bits), so that
    /// two passes can be compared beyond the CSV's rounding.
    pub exact: String,
    /// Simulation runs the pass executed.
    pub runs: u64,
    /// Quarantined runs, described.
    pub quarantined: Vec<String>,
    /// `sweep_journal` only: journal reopen plus replay to CSV, seconds.
    pub resume_s: Option<f64>,
    /// `sweep_journal` only: the reopen's `Journal::open_with_io`, seconds.
    pub journal_open_s: Option<f64>,
    /// `sweep_journal` only: the replay's CSV.
    pub replay_csv: Option<String>,
    /// `sweep_journal` only: runs the replay had to re-execute (must be 0).
    pub replay_recorded: u64,
}

impl Campaign {
    /// Index of this workload in the benchmark's seed derivation.
    fn seed_index(self) -> u64 {
        match self {
            Campaign::Figure => 0,
            Campaign::Oracle => 1,
            Campaign::Sweep => 2,
        }
    }

    /// Builds the entry point's inputs for benchmark seed `seed`. Builds the
    /// journal identity too, which asks git for the revision; that process
    /// is the program's, and stays outside the timed set-up.
    pub fn inputs(self, seed: u64) -> Inputs {
        let campaign_seed = cell_seed(seed, self.seed_index());
        match self {
            Campaign::Figure => {
                let mut cfg = HagerupConfig::paper(8_192, FIGURE_RUNS);
                cfg.seed = campaign_seed;
                cfg.threads = THREADS;
                Inputs::Figure(cfg)
            }
            Campaign::Oracle => Inputs::Oracle(
                PAPER_PES
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let mut cfg = DirectCampaignConfig::new(ORACLE_N, p, ORACLE_RUNS);
                        cfg.seed = cell_seed(campaign_seed, i as u64);
                        cfg.threads = THREADS;
                        cfg
                    })
                    .collect(),
            ),
            Campaign::Sweep => {
                let cfg = SweepConfig {
                    seed: campaign_seed,
                    runs: SWEEP_RUNS,
                    threads: THREADS,
                    ..SweepConfig::default()
                };
                let families: Vec<&str> = cfg.families.iter().map(|f| f.name.as_str()).collect();
                let fingerprint = format!(
                    "ns={:?} pes={:?} families={:?} techniques={:?} runs={} h={} seed={:#x}",
                    cfg.ns, cfg.pes, families, cfg.techniques, cfg.runs, cfg.h, cfg.seed
                );
                let meta = JournalMeta::new("sweep", fingerprint, cfg.seed);
                Inputs::Sweep(cfg, meta)
            }
        }
    }
}

impl Inputs {
    /// Worker threads the campaign runs on.
    pub fn threads(&self) -> usize {
        match self {
            Inputs::Figure(cfg) => cfg.threads,
            Inputs::Oracle(cfgs) => cfgs.iter().map(|c| c.threads).max().unwrap_or(1),
            Inputs::Sweep(cfg, _) => cfg.threads,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every cell of the campaign's grid, built and validated the way the
/// entry point does before its first run: the technique, its loop set-up, and the
/// cell's run count.
fn cells(inputs: &Inputs) -> Result<Vec<(Technique, LoopSetup, u32)>, String> {
    let mut cells = Vec::new();
    let mut add = |technique: Technique, setup: LoopSetup, runs: u32| -> Result<(), String> {
        setup.validate().map_err(err)?;
        technique.build(&setup).map_err(err)?;
        cells.push((technique, setup, runs));
        Ok(())
    };
    let spec_setup = |technique: Technique, workload: &Workload, platform: &Platform, h: f64| {
        SimSpec::new(technique, workload.clone(), platform.clone())
            .with_overhead(OverheadModel::PostHocTotal { h })
            .loop_setup()
    };
    match inputs {
        Inputs::Figure(cfg) => {
            let workload = Workload::exponential(cfg.n, cfg.mean).map_err(err)?;
            for &p in &cfg.pes {
                let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
                for &technique in &cfg.techniques {
                    add(technique, spec_setup(technique, &workload, &platform, cfg.h), cfg.runs)?;
                }
            }
        }
        Inputs::Oracle(cfgs) => {
            for cfg in cfgs {
                Workload::exponential(cfg.n, cfg.mean).map_err(err)?;
                for &technique in &cfg.techniques {
                    add(technique, direct_setup(cfg), cfg.runs)?;
                }
            }
        }
        Inputs::Sweep(cfg, _) => {
            for &n in &cfg.ns {
                for &p in &cfg.pes {
                    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
                    for family in &cfg.families {
                        let workload = Workload::new(n, family.model.clone()).map_err(err)?;
                        for &technique in &cfg.techniques {
                            let setup = spec_setup(technique, &workload, &platform, cfg.h);
                            add(technique, setup, cfg.runs)?;
                        }
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// The set-up the entry point needs before its first run: build and validate
/// every cell's inputs, and for `sweep_journal` open a fresh journal in
/// `dir`. Returns the open journal, if any.
pub fn setup(inputs: &Inputs, dir: &Path) -> Result<Option<Journal>, String> {
    cells(inputs)?;
    match inputs {
        Inputs::Sweep(_, meta) => open_journal(dir, meta).map(Some),
        _ => Ok(None),
    }
}

/// The host I/O of the journal in `sweep_journal` and of the result cache
/// in `serve_mixed`, plugged into the program's `HostIo` seam: plain
/// `std::fs`, except that nothing is fsynced and a rename first removes
/// the file it would replace. Every flush still serializes every record,
/// writes the whole file and renames it into place; what goes is the
/// storage device, which is the host's and not the program's. A pass makes
/// 120 journal flushes; with fsyncs, and with each rename over the last
/// journal (which makes ext4 write the new file out at once), every flush
/// reached the device, and on the shared host the bounds were set on the
/// device's latency and the write-back it left behind swung `campaign_s`
/// by a third between runs of the same code.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnsyncedIo;

struct UnsyncedFile(std::fs::File);

impl HostFile for UnsyncedFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(&mut self.0, buf)
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl HostIo for UnsyncedIo {
    fn create<'a>(&'a self, path: &Path) -> std::io::Result<Box<dyn HostFile + 'a>> {
        Ok(Box::new(UnsyncedFile(std::fs::File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match std::fs::remove_file(to) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => std::fs::rename(from, to),
        }
    }

    fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// `Journal::open` over [`UnsyncedIo`] with the standard retry policy.
pub fn open_journal(dir: &Path, meta: &JournalMeta) -> Result<Journal, String> {
    Journal::open_with_io(dir, meta, Arc::new(UnsyncedIo), RetryPolicy::standard()).map_err(err)
}

fn direct_setup(cfg: &DirectCampaignConfig) -> LoopSetup {
    LoopSetup::new(cfg.n, cfg.p).with_moments(cfg.mean, cfg.mean).with_overhead(cfg.h)
}

/// One pass through the public entry point, CSV written to `dir`.
pub fn untraced_pass(inputs: &Inputs, dir: &Path) -> Result<PassOutput, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    match inputs {
        Inputs::Figure(cfg) => {
            let ctx = ExecContext::transient();
            let start = Instant::now();
            let rows = run_figure_resilient(cfg, &Telemetry::disabled(), &ctx).map_err(err)?;
            let csv = figure_csv(&rows);
            write_artifact(&dir.join("figure.csv"), csv.as_bytes()).map_err(err)?;
            Ok(PassOutput {
                wall_s: start.elapsed().as_secs_f64(),
                exact: figure_exact(&rows),
                csv,
                runs: u64::from(cfg.runs) * cfg.pes.len() as u64,
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            })
        }
        Inputs::Oracle(cfgs) => {
            let ctx = ExecContext::transient();
            let start = Instant::now();
            let mut rows = Vec::with_capacity(cfgs.len());
            for cfg in cfgs {
                let cell = run_direct_campaign_resilient(cfg, &Telemetry::disabled(), &ctx)
                    .map_err(err)?;
                rows.push((cfg.p, cell));
            }
            let csv = oracle_csv(&rows);
            write_artifact(&dir.join("oracle.csv"), csv.as_bytes()).map_err(err)?;
            Ok(PassOutput {
                wall_s: start.elapsed().as_secs_f64(),
                exact: oracle_exact(&rows),
                csv,
                runs: cfgs.iter().map(|c| u64::from(c.runs)).sum(),
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            })
        }
        Inputs::Sweep(cfg, meta) => {
            let journal_dir = fresh_dir(&dir.join("journal"))?;
            let journal = open_journal(&journal_dir, meta)?;
            let ctx = ExecContext::with_journal(journal);
            let start = Instant::now();
            let rows = run_sweep_resilient(cfg, &Telemetry::disabled(), &ctx).map_err(err)?;
            let csv = sweep_csv(&rows);
            write_artifact(&dir.join("sweep.csv"), csv.as_bytes()).map_err(err)?;
            let wall_s = start.elapsed().as_secs_f64();
            let mut out = PassOutput {
                wall_s,
                exact: sweep_exact(&rows),
                csv,
                runs: sweep_runs(cfg),
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            };
            drop(ctx);
            replay_sweep(cfg, meta, &journal_dir, dir, &mut out)?;
            Ok(out)
        }
    }
}

/// Reopens the complete journal in `journal_dir` and reruns the sweep from
/// it, filling the pass's `resume_s`, `journal_open_s`, `replay_csv` and
/// `replay_recorded`.
fn replay_sweep(
    cfg: &SweepConfig,
    meta: &JournalMeta,
    journal_dir: &Path,
    dir: &Path,
    out: &mut PassOutput,
) -> Result<(), String> {
    let start = Instant::now();
    let journal = open_journal(journal_dir, meta)?;
    out.journal_open_s = Some(start.elapsed().as_secs_f64());
    let ctx = ExecContext::with_journal(journal);
    let rows = run_sweep_resilient(cfg, &Telemetry::disabled(), &ctx).map_err(err)?;
    let csv = sweep_csv(&rows);
    write_artifact(&dir.join("sweep-replay.csv"), csv.as_bytes()).map_err(err)?;
    out.resume_s = Some(start.elapsed().as_secs_f64());
    out.replay_csv = Some(csv);
    out.replay_recorded = ctx.journal().map_or(0, |j| j.stats().recorded);
    out.quarantined.extend(quarantined(&ctx));
    Ok(())
}

/// Per-pass counters of the traced journal path that `LayerClock` does not
/// hold: flushes seen, and the journal bytes those flushes wrote (the file
/// size stat-ed after each flush; every flush rewrites the whole file).
#[derive(Debug, Default)]
pub struct JournalCounters {
    /// Flushes observed through `Journal::stats`.
    pub flushes: AtomicU64,
    /// Bytes written by those flushes (computed from file sizes).
    pub bytes_written: AtomicU64,
}

impl JournalCounters {
    /// Notes any flushes `journal` did since the last call.
    fn observe(&self, journal: &Journal) {
        let flushes = journal.stats().flushes;
        let seen = self.flushes.fetch_max(flushes, Ordering::Relaxed);
        if flushes > seen {
            let size = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
            self.bytes_written.fetch_add(size * (flushes - seen), Ordering::Relaxed);
        }
    }
}

/// One traced pass, CSV written to `dir`.
pub fn traced_pass(
    inputs: &Inputs,
    dir: &Path,
    clock: &LayerClock,
    journal_counters: &JournalCounters,
) -> Result<PassOutput, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    match inputs {
        Inputs::Figure(cfg) => {
            let ctx = ExecContext::transient();
            let start = Instant::now();
            let rows = traced_figure(cfg, clock, &ctx).map_err(err)?;
            let csv = figure_csv(&rows);
            let path = dir.join("figure.csv");
            clock.time(Layer::Artifacts, || write_artifact(&path, csv.as_bytes())).map_err(err)?;
            Ok(PassOutput {
                wall_s: start.elapsed().as_secs_f64(),
                exact: figure_exact(&rows),
                csv,
                runs: u64::from(cfg.runs) * cfg.pes.len() as u64,
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            })
        }
        Inputs::Oracle(cfgs) => {
            let ctx = ExecContext::transient();
            let start = Instant::now();
            let mut rows = Vec::with_capacity(cfgs.len());
            for cfg in cfgs {
                rows.push((cfg.p, traced_direct(cfg, clock, &ctx).map_err(err)?));
            }
            let csv = oracle_csv(&rows);
            let path = dir.join("oracle.csv");
            clock.time(Layer::Artifacts, || write_artifact(&path, csv.as_bytes())).map_err(err)?;
            Ok(PassOutput {
                wall_s: start.elapsed().as_secs_f64(),
                exact: oracle_exact(&rows),
                csv,
                runs: cfgs.iter().map(|c| u64::from(c.runs)).sum(),
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            })
        }
        Inputs::Sweep(cfg, meta) => {
            let journal_dir = fresh_dir(&dir.join("journal"))?;
            let journal = open_journal(&journal_dir, meta)?;
            let ctx = ExecContext::transient();
            let start = Instant::now();
            let rows = traced_sweep(cfg, clock, &journal, journal_counters, &ctx).map_err(err)?;
            let csv = sweep_csv(&rows);
            let path = dir.join("sweep.csv");
            clock.time(Layer::Artifacts, || write_artifact(&path, csv.as_bytes())).map_err(err)?;
            let mut out = PassOutput {
                wall_s: start.elapsed().as_secs_f64(),
                exact: sweep_exact(&rows),
                csv,
                runs: sweep_runs(cfg),
                quarantined: quarantined(&ctx),
                ..PassOutput::default()
            };
            drop(journal);
            replay_sweep(cfg, meta, &journal_dir, dir, &mut out)?;
            Ok(out)
        }
    }
}

/// Per-thread scratch of the traced figure pass: one realization slot per
/// batch lane, as `hagerup_exp`'s figure campaign keeps.
#[derive(Default)]
struct FigScratch {
    tasks: Vec<Option<TaskTimes>>,
    oracle: Vec<Option<TaskTimes>>,
}

/// `run_figure_resilient`, re-driven with every layer call timed.
pub fn traced_figure(
    cfg: &HagerupConfig,
    clock: &LayerClock,
    ctx: &ExecContext,
) -> Result<Vec<WastedRow>, ReproError> {
    let techniques = &cfg.techniques;
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let workload = Workload::exponential(cfg.n, cfg.mean)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))?;
    let mut rows = Vec::new();
    for (pi, &p) in cfg.pes.iter().enumerate() {
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let sim = BatchDirectSimulator::new(p, overhead);
        let mut prepared = Vec::with_capacity(techniques.len());
        for &technique in techniques {
            let spec =
                SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
            let setup = spec.loop_setup();
            setup.validate()?;
            technique.build(&setup)?;
            prepared.push((spec, setup));
        }
        let per_run: Vec<Option<Vec<FigPair>>> = run_campaign_resilient_batched(
            cfg.runs,
            cell_seed(cfg.seed, pi as u64),
            cfg.threads,
            cfg.batch_width.max(1),
            &Telemetry::disabled(),
            ctx,
            &format!("n={} p={}", cfg.n, p),
            FigScratch::default,
            |items, scratch: &mut FigScratch| {
                let b = items.len();
                if scratch.tasks.len() < b {
                    scratch.tasks.resize_with(b, || None);
                    scratch.oracle.resize_with(b, || None);
                }
                for (lane, &(_, run_seed)) in items.iter().enumerate() {
                    let slot = &mut scratch.tasks[lane];
                    clock.time(Layer::Workload, || workload.generate_into(run_seed, slot));
                    clock.add_items(Layer::Workload, cfg.n);
                    if cfg.oracle == OracleMode::IndependentSeeds {
                        let slot = &mut scratch.oracle[lane];
                        clock.time(Layer::Workload, || {
                            workload.generate_into(run_seed ^ ORACLE_SALT, slot)
                        });
                        clock.add_items(Layer::Workload, cfg.n);
                    }
                }
                let mut pairs: Vec<Vec<FigPair>> =
                    vec![vec![FigPair { msgsim: 0.0, replica: 0.0 }; techniques.len()]; b];
                for (lane, lane_pairs) in pairs.iter_mut().enumerate() {
                    let tasks = scratch.tasks[lane].as_ref().expect("generate_into fills slots");
                    for (ti, (spec, setup)) in prepared.iter().enumerate() {
                        let out = clock
                            .time(Layer::Msgsim, || {
                                simulate_with_setup_metered(
                                    spec,
                                    tasks,
                                    setup,
                                    &Tracer::disabled(),
                                    &Telemetry::disabled(),
                                )
                            })
                            .expect("validated spec cannot fail");
                        clock.add_items(Layer::Msgsim, out.events);
                        lane_pairs[ti].msgsim = out.average_wasted();
                    }
                }
                let oracle_batch: Vec<TaskTimes> = (0..b)
                    .map(|lane| match cfg.oracle {
                        OracleMode::SharedRealizations => scratch.tasks[lane].clone(),
                        OracleMode::IndependentSeeds => scratch.oracle[lane].clone(),
                    })
                    .map(|slot| slot.expect("generate_into fills slots"))
                    .collect();
                for ((ti, &technique), (_, setup)) in techniques.iter().enumerate().zip(&prepared) {
                    let outcomes = clock
                        .time(Layer::Hagerup, || sim.run_batch(technique, setup, &oracle_batch))
                        .expect("validated setup cannot fail");
                    clock.add_items(Layer::Hagerup, outcomes.iter().map(|o| o.chunks).sum());
                    for (lane, outcome) in outcomes.iter().enumerate() {
                        pairs[lane][ti].replica = outcome.average_wasted(overhead);
                    }
                }
                pairs
            },
        )?;
        for (ti, &technique) in techniques.iter().enumerate() {
            let mut msg_stats = SummaryStats::new();
            let mut rep_stats = SummaryStats::new();
            for pair in per_run.iter().flatten() {
                msg_stats.push(pair[ti].msgsim);
                rep_stats.push(pair[ti].replica);
            }
            let (m, r) = (msg_stats.mean(), rep_stats.mean());
            rows.push(WastedRow {
                technique: technique.name().to_string(),
                p,
                msgsim: m,
                replica: r,
                discrepancy: discrepancy(m, r),
                relative_pct: if r != 0.0 { relative_discrepancy_pct(m, r) } else { 0.0 },
                msgsim_stats: msg_stats,
                replica_stats: rep_stats,
            });
        }
    }
    Ok(rows)
}

/// `run_direct_campaign_resilient`, re-driven with every layer call timed.
pub fn traced_direct(
    cfg: &DirectCampaignConfig,
    clock: &LayerClock,
    ctx: &ExecContext,
) -> Result<Vec<DirectRow>, ReproError> {
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let workload = Workload::exponential(cfg.n, cfg.mean)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))?;
    let sim = BatchDirectSimulator::new(cfg.p, overhead);
    let mut setups = Vec::with_capacity(cfg.techniques.len());
    for &technique in &cfg.techniques {
        let setup = direct_setup(cfg);
        setup.validate()?;
        technique.build(&setup)?;
        setups.push(setup);
    }
    let per_run: Vec<Option<Vec<f64>>> = run_campaign_resilient_batched(
        cfg.runs,
        cfg.seed,
        cfg.threads,
        cfg.batch_width.max(1),
        &Telemetry::disabled(),
        ctx,
        &format!("direct n={} p={}", cfg.n, cfg.p),
        Vec::<Option<TaskTimes>>::new,
        |items, scratch: &mut Vec<Option<TaskTimes>>| {
            let b = items.len();
            if scratch.len() < b {
                scratch.resize_with(b, || None);
            }
            for (lane, &(_, run_seed)) in items.iter().enumerate() {
                let slot = &mut scratch[lane];
                clock.time(Layer::Workload, || workload.generate_into(run_seed, slot));
                clock.add_items(Layer::Workload, cfg.n);
            }
            let batch: Vec<TaskTimes> = scratch[..b]
                .iter()
                .map(|slot| slot.clone().expect("generate_into fills slots"))
                .collect();
            let mut wasted = vec![vec![0.0f64; cfg.techniques.len()]; b];
            for ((ti, &technique), setup) in cfg.techniques.iter().enumerate().zip(&setups) {
                let outcomes = clock
                    .time(Layer::Hagerup, || sim.run_batch(technique, setup, &batch))
                    .expect("validated setup cannot fail");
                clock.add_items(Layer::Hagerup, outcomes.iter().map(|o| o.chunks).sum());
                for (lane, outcome) in outcomes.iter().enumerate() {
                    wasted[lane][ti] = outcome.average_wasted(overhead);
                }
            }
            wasted
        },
    )?;
    Ok(cfg
        .techniques
        .iter()
        .enumerate()
        .map(|(ti, &technique)| {
            let mut stats = SummaryStats::new();
            for run in per_run.iter().flatten() {
                stats.push(run[ti]);
            }
            DirectRow { technique: technique.name().to_string(), mean_wasted: stats.mean(), stats }
        })
        .collect())
}

/// `run_sweep_resilient` under a journal, re-driven with every layer call
/// timed. The runner gets a transient context and this closure records
/// each completed run into `journal` itself, so that `Journal::record`
/// (with its automatic flush and lock wait) can be timed; like the runner,
/// it flushes the journal when each cell's campaign ends.
pub fn traced_sweep(
    cfg: &SweepConfig,
    clock: &LayerClock,
    journal: &Journal,
    counters: &JournalCounters,
    ctx: &ExecContext,
) -> Result<Vec<SweepRow>, ReproError> {
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let mut rows = Vec::new();
    let mut cell = 0u64;
    for &n in &cfg.ns {
        for &p in &cfg.pes {
            let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
            for family in &cfg.families {
                let workload = Workload::new(n, family.model.clone())
                    .map_err(|_| SetupError::BadParam("invalid sweep workload"))?;
                for &technique in &cfg.techniques {
                    let spec = SimSpec::new(technique, workload.clone(), platform.clone())
                        .with_overhead(overhead);
                    let setup = spec.loop_setup();
                    setup.validate()?;
                    technique.build(&setup)?;
                    let seed = cell_seed(cfg.seed, cell);
                    cell += 1;
                    let label = format!("n={n} p={p} {} {}", family.name, technique.name());
                    let per_run: Vec<Option<SweepRunObs>> = run_campaign_resilient_batched(
                        cfg.runs,
                        seed,
                        cfg.threads,
                        batch_width_for(n),
                        &Telemetry::disabled(),
                        ctx,
                        &label,
                        || (),
                        |items, _: &mut ()| {
                            items
                                .iter()
                                .map(|&(i, run_seed)| {
                                    let tasks = clock
                                        .time(Layer::Workload, || spec.workload.generate(run_seed));
                                    clock.add_items(Layer::Workload, n);
                                    let out = clock
                                        .time(Layer::Msgsim, || simulate_with_tasks(&spec, &tasks))
                                        .expect("validated spec cannot fail");
                                    clock.add_items(Layer::Msgsim, out.events);
                                    let obs = SweepRunObs {
                                        wasted: out.average_wasted(),
                                        speedup: out.speedup(),
                                        chunks: out.chunks,
                                    };
                                    let key = run_key(&label, seed, i);
                                    clock.time(Layer::Journal, || {
                                        journal.record(key, obs.to_value())
                                    });
                                    clock.add_items(Layer::Journal, 1);
                                    counters.observe(journal);
                                    obs
                                })
                                .collect()
                        },
                    )?;
                    clock.time(Layer::Journal, || journal.flush())?;
                    counters.observe(journal);
                    let mut wasted = SummaryStats::new();
                    let mut speedup = SummaryStats::new();
                    let mut chunks = 0u64;
                    let mut completed = 0u64;
                    for obs in per_run.iter().flatten() {
                        wasted.push(obs.wasted);
                        speedup.push(obs.speedup);
                        chunks += obs.chunks;
                        completed += 1;
                    }
                    rows.push(SweepRow {
                        n,
                        p,
                        workload: family.name.clone(),
                        technique: technique.name().to_string(),
                        wasted,
                        speedup,
                        chunks_mean: chunks as f64 / completed.max(1) as f64,
                    });
                }
            }
        }
    }
    Ok(rows)
}

/// The `core` layer, timed outside the simulators: for every cell and
/// every run, `Technique::build` plus a `drain_round_robin` replay of the
/// cell's chunk stream. The untraced passes do not do this work; it is
/// timed in a phase of its own so it never counts as tracing overhead.
pub fn core_replay(inputs: &Inputs, clock: &LayerClock) -> Result<(), String> {
    let cells = cells(inputs)?;
    for (technique, setup, runs) in &cells {
        for _ in 0..*runs {
            let chunks = clock.time(Layer::Core, || {
                technique.build(setup).map(|mut sched| drain_round_robin(sched.as_mut(), setup.p))
            });
            let chunks = chunks.map_err(err)?;
            clock.add_items(Layer::Core, chunks.len() as u64);
        }
    }
    Ok(())
}

fn quarantined(ctx: &ExecContext) -> Vec<String> {
    ctx.quarantined()
        .iter()
        .map(|q| format!("quarantined run {} of cell `{}`: {}", q.run, q.cell, q.panic_message))
        .collect()
}

/// An empty directory at `path` (any previous contents removed).
pub fn fresh_dir(path: &Path) -> Result<std::path::PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(err)?;
    }
    std::fs::create_dir_all(path).map_err(err)?;
    Ok(path.to_path_buf())
}

fn sweep_runs(cfg: &SweepConfig) -> u64 {
    (cfg.ns.len() * cfg.pes.len() * cfg.families.len() * cfg.techniques.len()) as u64
        * u64::from(cfg.runs)
}

/// The figure CSV exactly as `repro fig6 --csv` writes it.
pub fn figure_csv(rows: &[WastedRow]) -> String {
    let (headers, body) = wasted_rows(rows);
    format_csv(&headers, &body)
}

fn figure_exact(rows: &[WastedRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{} {} {:016x} {:016x} {:016x} {:016x}\n",
                r.technique,
                r.p,
                r.msgsim.to_bits(),
                r.replica.to_bits(),
                r.msgsim_stats.std_dev().to_bits(),
                r.replica_stats.std_dev().to_bits()
            )
        })
        .collect()
}

/// The oracle CSV: one row per (p, technique), the mean at full precision.
fn oracle_csv(rows: &[(usize, Vec<DirectRow>)]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|(p, cell)| {
            cell.iter().map(move |r| {
                vec![
                    p.to_string(),
                    r.technique.clone(),
                    format!("{}", r.mean_wasted),
                    r.stats.count().to_string(),
                ]
            })
        })
        .collect();
    format_csv(&["p", "technique", "mean_wasted[s]", "runs"], &body)
}

fn oracle_exact(rows: &[(usize, Vec<DirectRow>)]) -> String {
    rows.iter()
        .flat_map(|(p, cell)| {
            cell.iter().map(move |r| {
                format!(
                    "{p} {} {:016x} {:016x}\n",
                    r.technique,
                    r.mean_wasted.to_bits(),
                    r.stats.std_dev().to_bits()
                )
            })
        })
        .collect()
}

/// The sweep CSV exactly as `repro sweep --csv` writes it.
fn sweep_csv(rows: &[SweepRow]) -> String {
    let (headers, body) = table_rows(rows);
    format_csv(&headers, &body)
}

fn sweep_exact(rows: &[SweepRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{} {} {} {} {:016x} {:016x} {:016x} {:016x}\n",
                r.n,
                r.p,
                r.workload,
                r.technique,
                r.wasted.mean().to_bits(),
                r.wasted.std_dev().to_bits(),
                r.speedup.mean().to_bits(),
                r.chunks_mean.to_bits()
            )
        })
        .collect()
}
