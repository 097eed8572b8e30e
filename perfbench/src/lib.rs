//! The repository benchmark: four workloads driven from one process
//! through the public entry points of `dls-repro`.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics and checks
//! every output. A traced run (`--trace 1`) re-drives the same seeds
//! through each layer's public functions, timing every call from this
//! package's code, and reports the per-layer metrics. See `README.md` for
//! the layer → metric → end-to-end metric → workload map.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod layers;
pub mod report;
pub mod serve;

use campaign::{Campaign, JournalCounters, PassOutput};
use layers::{Layer, LayerClock, LayerTotals};
use report::{digest, median, Metric, Report};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Worker threads of the figure and oracle campaigns (the benchmark host
/// has 2 CPUs).
pub const THREADS: usize = 2;
/// Timed set-up samples before the first pass; one more precedes every
/// pass, and `setup_s` is the median of them all.
pub const SETUP_SAMPLES: usize = 5;
/// Minimum duration of one `setup_s` sample, seconds.
pub const SETUP_SAMPLE_S: f64 = 0.005;
/// Passes a run makes at least, however long they take.
pub const MIN_PASSES: usize = 3;
/// The seed whose outputs have recorded digests; every run first makes
/// one untimed pass at this seed (the canary, also the warm-up) and
/// checks its CSV against the digest.
pub const CANARY_SEED: u64 = 0;

/// End-to-end metrics of an untraced run, in result-line order.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("campaign_s", "s")];

/// Per-layer metrics of a traced run, in result-line order. A workload
/// that does not reach a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workload.generate_s", "s"),
    ("workload.tasks", "count"),
    ("workload.ns_per_task", "ns"),
    ("core.schedule_s", "s"),
    ("core.chunks", "count"),
    ("core.ns_per_chunk", "ns"),
    ("msgsim.simulate_s", "s"),
    ("msgsim.calls", "count"),
    ("msgsim.events", "count"),
    ("msgsim.ns_per_event", "ns"),
    ("hagerup.run_batch_s", "s"),
    ("hagerup.calls", "count"),
    ("hagerup.chunks", "count"),
    ("hagerup.ns_per_chunk", "ns"),
    ("runner.busy_share", "ratio"),
    ("runner.unattributed_s", "s"),
    ("runner.unattributed_share", "ratio"),
    ("journal.record_s", "s"),
    ("journal.records", "count"),
    ("journal.flushes", "count"),
    ("journal.bytes_written", "bytes"),
    ("journal.open_s", "s"),
    ("artifacts.write_s", "s"),
    ("cache.open_s", "s"),
    ("cache.entries", "count"),
    ("cache.hit_ratio", "ratio"),
    ("server.parse_s", "s"),
    ("server.cache_lookup_s.hit", "s"),
    ("server.cache_lookup_s.miss", "s"),
    ("server.serialize_s.hit", "s"),
    ("server.serialize_s.miss", "s"),
    ("server.admission_wait_s", "s"),
    ("server.compute_s", "s"),
    ("http.accept_wait_ms.hit", "ms"),
    ("http.accept_wait_ms.miss", "ms"),
    ("resume_s", "s"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_cold_p90_ms", "ms"),
    ("serve_warm_p50_ms", "ms"),
    ("serve_warm_p90_ms", "ms"),
    ("serve_cold_samples", "count"),
    ("serve_warm_samples", "count"),
    ("serve_rps", "1/s"),
    ("error_rate", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 6 campaign: msgsim plus the batched oracle.
    FigureCampaign,
    /// Direct-oracle campaigns at n = 65,536: generation plus the oracle.
    OracleDirect,
    /// The journaled sweep and its replay.
    SweepJournal,
    /// `repro serve` under a closed loop of cold and warm requests.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FigureCampaign,
        Workload::OracleDirect,
        Workload::SweepJournal,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigureCampaign => "figure_campaign",
            Workload::OracleDirect => "oracle_direct",
            Workload::SweepJournal => "sweep_journal",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn campaign(self) -> Option<Campaign> {
        match self {
            Workload::FigureCampaign => Some(Campaign::Figure),
            Workload::OracleDirect => Some(Campaign::Oracle),
            Workload::SweepJournal => Some(Campaign::Sweep),
            Workload::ServeMixed => None,
        }
    }

    /// How the workload loads the host, for the result file.
    pub fn load(self) -> String {
        match self {
            Workload::ServeMixed => format!(
                "closed loop: {} clients, one connection each, next request after the previous reply",
                serve::CLIENTS
            ),
            _ => format!("one process, {THREADS} campaign worker threads"),
        }
    }

    /// FNV-1a digest of the canary pass's CSV (seed [`CANARY_SEED`]).
    pub fn canary_digest(self) -> &'static str {
        match self {
            Workload::FigureCampaign => "b35a20176d2b1ac3",
            Workload::OracleDirect => "25d3d5b92f6c3f77",
            Workload::SweepJournal => "21fb8d3b72ba4ead",
            Workload::ServeMixed => serve::CANARY_DIGEST,
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Benchmark seed; every input derives from it via `runner::cell_seed`.
    pub seed: u64,
    /// How long the timed passes run, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for CSVs, journals and the serve cache.
    pub dir: PathBuf,
}

/// Runs `workload` and returns its report, with `metrics` holding exactly
/// the end-to-end (untraced) or per-layer (traced) metrics.
pub fn run(workload: Workload, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let outcome = match workload.campaign() {
        Some(c) => run_campaign(workload, c, opts, &mut report),
        None => serve::run(opts, &mut report),
    };
    if let Err(e) = outcome {
        report.fail(format!("run aborted: {e}"));
    }
    report.extra("peak_rss_mb", report::peak_rss_mb(), "MB");
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.extra("error_rate", error_rate, "ratio");
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    report.metrics = wanted
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.into(),
            value: report.get(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    if !opts.trace {
        for (name, _) in END_TO_END {
            if !report.get(name).is_some_and(|v| v > 0.0) {
                report.fail(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    report
}

/// Per-pass layer sums of a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSums {
    /// Totals per layer, in [`Layer::ALL`] order.
    pub layers: [LayerTotals; 6],
    /// Journal flushes the pass made.
    pub journal_flushes: u64,
    /// Journal bytes those flushes wrote (computed from file sizes).
    pub journal_bytes: u64,
    /// `Journal::open_with_io` over the complete journal, seconds.
    pub journal_open_s: f64,
}

impl TraceSums {
    /// Snapshot of `clock`.
    pub fn from_clock(clock: &LayerClock) -> TraceSums {
        TraceSums { layers: Layer::ALL.map(|layer| clock.totals(layer)), ..TraceSums::default() }
    }

    fn get(&self, layer: Layer) -> LayerTotals {
        self.layers[Layer::ALL.iter().position(|&l| l == layer).expect("every layer listed")]
    }
}

/// Per-layer metrics of one traced pass of `wall_s` seconds on `threads`
/// worker threads.
pub fn layer_metrics(sums: &TraceSums, wall_s: f64, threads: usize) -> Vec<Metric> {
    let per = |busy: f64, items: u64| if items == 0 { 0.0 } else { busy * 1e9 / items as f64 };
    let m = |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
    let (w, c, s, h, j, a) = (
        sums.get(Layer::Workload),
        sums.get(Layer::Core),
        sums.get(Layer::Msgsim),
        sums.get(Layer::Hagerup),
        sums.get(Layer::Journal),
        sums.get(Layer::Artifacts),
    );
    let busy = w.busy_s + s.busy_s + h.busy_s + j.busy_s + a.busy_s;
    let unattributed = (wall_s - busy / threads as f64).max(0.0);
    vec![
        m("workload.generate_s", w.busy_s, "s"),
        m("workload.tasks", w.items as f64, "count"),
        m("workload.ns_per_task", per(w.busy_s, w.items), "ns"),
        m("core.schedule_s", c.busy_s, "s"),
        m("core.chunks", c.items as f64, "count"),
        m("core.ns_per_chunk", per(c.busy_s, c.items), "ns"),
        m("msgsim.simulate_s", s.busy_s, "s"),
        m("msgsim.calls", s.calls as f64, "count"),
        m("msgsim.events", s.items as f64, "count"),
        m("msgsim.ns_per_event", per(s.busy_s, s.items), "ns"),
        m("hagerup.run_batch_s", h.busy_s, "s"),
        m("hagerup.calls", h.calls as f64, "count"),
        m("hagerup.chunks", h.items as f64, "count"),
        m("hagerup.ns_per_chunk", per(h.busy_s, h.items), "ns"),
        m("runner.busy_share", busy / (wall_s * threads as f64), "ratio"),
        m("runner.unattributed_s", unattributed, "s"),
        m("runner.unattributed_share", unattributed / wall_s, "ratio"),
        m("journal.record_s", j.busy_s, "s"),
        m("journal.records", j.items as f64, "count"),
        m("journal.flushes", sums.journal_flushes as f64, "count"),
        m("journal.bytes_written", sums.journal_bytes as f64, "bytes"),
        m("journal.open_s", sums.journal_open_s, "s"),
        m("artifacts.write_s", a.busy_s, "s"),
    ]
}

/// Median of each metric over `passes` (all passes list the same names).
fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            name: m.name.clone(),
            value: median(&passes.iter().map(|p| p[i].value).collect::<Vec<_>>()),
            unit: m.unit,
        })
        .collect()
}

/// Checks a pass's outputs against `reference` (the first pass of the run,
/// or the untraced pass it is paired with) and counts its operations.
fn check_pass(report: &mut Report, pass: &PassOutput, reference: &PassOutput, what: &str) {
    report.ok(pass.runs);
    for q in &pass.quarantined {
        report.fail(q.clone());
    }
    report.check(pass.csv == reference.csv, format!("{what}: CSV equals the reference pass's"));
    report.check(
        pass.exact == reference.exact,
        format!("{what}: every statistic is bit-identical to the reference pass's"),
    );
    if let Some(replay) = &pass.replay_csv {
        report
            .check(*replay == pass.csv, format!("{what}: journal replay CSV equals the fresh CSV"));
        report.check(
            pass.replay_recorded == 0,
            format!("{what}: replay re-executed {} run(s) (must be 0)", pass.replay_recorded),
        );
    }
}

/// Times `reps` back-to-back set-ups, each with its own fresh journal
/// directory under `dir`; returns seconds per set-up.
fn time_setups(inputs: &campaign::Inputs, dir: &Path, reps: usize) -> Result<f64, String> {
    let dirs: Vec<PathBuf> = (0..reps).map(|k| dir.join(format!("journal-{k}"))).collect();
    let mut journals = Vec::with_capacity(reps);
    let start = Instant::now();
    for d in &dirs {
        journals.push(campaign::setup(inputs, d)?);
    }
    let per_setup = start.elapsed().as_secs_f64() / reps as f64;
    drop(journals);
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    Ok(per_setup)
}

fn run_campaign(
    workload: Workload,
    c: Campaign,
    opts: &RunOpts,
    report: &mut Report,
) -> Result<(), String> {
    let dir = campaign::fresh_dir(&opts.dir.join(workload.name()))?;
    let inputs = c.inputs(opts.seed);

    // Set-up: building and validating the entry point's inputs (plus
    // `Journal::open_with_io` on a fresh journal). One set-up takes microseconds to
    // a millisecond, so each sample times a batch of set-ups lasting at
    // least `SETUP_SAMPLE_S` and reports the time per set-up.
    // The first set-up pays one-time costs; calibrate on the second.
    time_setups(&inputs, &dir.join("setup"), 1)?;
    let once = time_setups(&inputs, &dir.join("setup"), 1)?;
    let reps = ((SETUP_SAMPLE_S / once.max(1e-7)).ceil() as usize).clamp(1, 5_000);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        setup_s.push(time_setups(&inputs, &dir.join("setup"), reps)?);
    }

    // Canary and warm-up: one untimed pass at the seed with a recorded digest.
    let canary_inputs = c.inputs(CANARY_SEED);
    let canary = campaign::untraced_pass(&canary_inputs, &dir.join("canary"))?;
    check_pass(report, &canary, &canary, "canary pass");
    report.check(
        digest(canary.csv.as_bytes()) == workload.canary_digest(),
        format!(
            "canary CSV digest {} equals the recorded {}",
            digest(canary.csv.as_bytes()),
            workload.canary_digest()
        ),
    );

    let start = Instant::now();
    let mut untraced: Vec<PassOutput> = Vec::new();
    let mut traced: Vec<PassOutput> = Vec::new();
    let mut traced_layers: Vec<Vec<Metric>> = Vec::new();
    while untraced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        setup_s.push(time_setups(&inputs, &dir.join("setup"), reps)?);
        let pass = campaign::untraced_pass(&inputs, &dir.join("untraced"))?;
        let reference = untraced.first().unwrap_or(&pass).clone();
        check_pass(report, &pass, &reference, "untraced pass");
        if opts.trace {
            let clock = LayerClock::default();
            let counters = JournalCounters::default();
            let t = campaign::traced_pass(&inputs, &dir.join("traced"), &clock, &counters)?;
            check_pass(report, &t, &pass, "traced pass");
            let mut sums = TraceSums::from_clock(&clock);
            sums.journal_flushes = counters.flushes.load(Ordering::Relaxed);
            sums.journal_bytes = counters.bytes_written.load(Ordering::Relaxed);
            sums.journal_open_s = t.journal_open_s.unwrap_or(0.0);
            traced_layers.push(layer_metrics(&sums, t.wall_s, inputs.threads()));
            traced.push(t);
        }
        untraced.push(pass);
    }

    report.extra("setup_s", median(&setup_s), "s");
    report.series("setup_s", &setup_s);
    report.extra("setup_batch", reps as f64, "count");
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    report.extra("campaign_s", median(&walls), "s");
    report.series("campaign_s", &walls);
    let resumes: Vec<f64> = untraced.iter().filter_map(|p| p.resume_s).collect();
    if !resumes.is_empty() {
        report.extra("resume_s", median(&resumes), "s");
        report.series("resume_s", &resumes);
    }

    if opts.trace {
        for m in median_metrics(&traced_layers) {
            report.extras.push(m);
        }
        report.samples("per-layer medians (traced passes)", traced.len());
        // The core replay: timed in a phase of its own, never inside a
        // traced pass, so it does not count as tracing overhead.
        let core = LayerClock::default();
        campaign::core_replay(&inputs, &core)?;
        for m in layer_metrics(&TraceSums::from_clock(&core), 1.0, inputs.threads()) {
            if m.name.starts_with("core.") {
                report.extras.retain(|e| e.name != m.name);
                report.extras.push(m);
            }
        }
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        report.extra("trace.untraced_wall_s", median(&walls), "s");
        report.extra("trace.traced_wall_s", median(&traced_walls), "s");
        report.extra(
            "trace_overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
            "%",
        );
    }
    Ok(())
}
