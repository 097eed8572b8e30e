//! Attribution self-test: the traced pass doubles its own time in one
//! layer (every timed call into that layer is followed by a busy wait as
//! long as the call took), and only that layer's time, plus the campaign
//! wall it maps to, may move. Counts and outputs must not move at all.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! `artifacts` is left out: one CSV write per pass takes well under a
//! millisecond, mostly `fsync`, whose run-to-run noise on a virtual disk
//! is larger than the doubling.

use perfbench::campaign::{self, Campaign, Inputs, JournalCounters, PassOutput};
use perfbench::layers::{Layer, LayerClock, LayerTotals};
use perfbench::report::median;

/// Reduced, single-threaded inputs of `campaign`, so that each traced pass
/// takes a fraction of a second and thread scheduling adds no noise.
fn small_inputs(campaign: Campaign) -> Inputs {
    match campaign.inputs(7) {
        Inputs::Figure(mut cfg) => {
            cfg.runs = 16;
            cfg.pes = vec![2, 8];
            cfg.threads = 1;
            Inputs::Figure(cfg)
        }
        Inputs::Oracle(mut cfgs) => {
            cfgs.truncate(2);
            for cfg in &mut cfgs {
                cfg.runs = 16;
                cfg.threads = 1;
            }
            Inputs::Oracle(cfgs)
        }
        Inputs::Sweep(mut cfg, meta) => {
            cfg.runs = 4;
            cfg.pes = vec![4];
            cfg.threads = 1;
            Inputs::Sweep(cfg, meta)
        }
    }
}

/// Per-layer totals, campaign wall and output of one traced pass.
struct Traced {
    layers: Vec<LayerTotals>,
    wall_s: f64,
    output: PassOutput,
}

fn traced(inputs: &Inputs, slow: Option<Layer>, tag: &str) -> Traced {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("attribution-{tag}"));
    let clock = LayerClock::new(slow);
    let output = campaign::traced_pass(inputs, &dir, &clock, &JournalCounters::default())
        .expect("traced pass");
    // The replay of these small inputs takes a few milliseconds; repeat it
    // so the `core` time stands clear of timer and page-fault noise.
    for _ in 0..CORE_REPEATS {
        campaign::core_replay(inputs, &clock).expect("core replay");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Traced {
        layers: Layer::ALL.iter().map(|&l| clock.totals(l)).collect(),
        wall_s: output.wall_s,
        output,
    }
}

/// Core replays per traced pass.
const CORE_REPEATS: usize = 8;

/// Passes per side; the two sides alternate, so host noise hits both alike.
const PASSES: usize = 7;

/// Median over the back-to-back pairs of `slowed / base` for `time`.
/// Pairing cancels the host's slow drifts; the median drops the odd pair
/// that one stall hit.
fn paired_ratio(base: &[Traced], slowed: &[Traced], time: impl Fn(&Traced) -> f64) -> f64 {
    let ratios: Vec<f64> = base.iter().zip(slowed).map(|(b, s)| time(s) / time(b)).collect();
    median(&ratios)
}

/// The tests time things, so they take turns rather than share the CPUs.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_doubling(campaign: Campaign, slow: Layer) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = small_inputs(campaign);
    let tag = slow.name();
    let mut base = Vec::new();
    let mut slowed = Vec::new();
    for i in 0..PASSES {
        base.push(traced(&inputs, None, &format!("{tag}-base{i}")));
        slowed.push(traced(&inputs, Some(slow), &format!("{tag}-slow{i}")));
    }
    let at = |layer: Layer| Layer::ALL.iter().position(|&l| l == layer).expect("listed");
    for (b, s) in base.iter().zip(&slowed) {
        assert_eq!(b.output.csv, s.output.csv, "a slowed layer must not change outputs");
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(b.layers[i].calls, s.layers[i].calls, "{} call count moved", layer.name());
            assert_eq!(b.layers[i].items, s.layers[i].items, "{} item count moved", layer.name());
        }
    }

    let i = at(slow);
    let base_busy = |j: usize| median(&base.iter().map(|p| p.layers[j].busy_s).collect::<Vec<_>>());
    assert!(base_busy(i) > 0.0, "{} is not reached by this workload", slow.name());
    let ratio = paired_ratio(&base, &slowed, |p| p.layers[i].busy_s);
    assert!((1.6..=3.0).contains(&ratio), "{} time moved by {ratio:.2}x, expected 2x", slow.name());
    for (j, layer) in Layer::ALL.iter().enumerate() {
        if j == i || base_busy(j) < 0.005 {
            continue;
        }
        let r = paired_ratio(&base, &slowed, |p| p.layers[j].busy_s);
        assert!(
            (0.6..=1.4).contains(&r),
            "{} was not slowed but its time moved by {r:.2}x when {} was",
            layer.name(),
            slow.name()
        );
    }
    // The campaign wall (single-threaded) grows by about the added time;
    // the core replay runs outside the campaign, so the wall stays put.
    let base_wall = median(&base.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let share = base_busy(i) / base_wall;
    let wall = paired_ratio(&base, &slowed, |p| p.wall_s);
    if slow == Layer::Core {
        assert!((0.8..=1.25).contains(&wall), "campaign wall moved {wall:.2}x with core slowed");
    } else if share >= 0.1 {
        assert!(
            wall >= 1.0 + 0.5 * share,
            "campaign wall moved {wall:.2}x when {} ({:.0}% of it) doubled",
            slow.name(),
            share * 100.0
        );
    }
}

#[test]
fn slowing_msgsim_moves_only_msgsim() {
    check_doubling(Campaign::Figure, Layer::Msgsim);
}

#[test]
fn slowing_the_oracle_moves_only_hagerup() {
    check_doubling(Campaign::Oracle, Layer::Hagerup);
}

#[test]
fn slowing_generation_moves_only_workload() {
    check_doubling(Campaign::Oracle, Layer::Workload);
}

#[test]
fn slowing_journal_records_moves_only_journal() {
    check_doubling(Campaign::Sweep, Layer::Journal);
}

#[test]
fn slowing_chunk_calculation_moves_only_core() {
    check_doubling(Campaign::Oracle, Layer::Core);
}
