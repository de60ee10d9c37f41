//! The `paper_repro` workload: the paper-reproduction harness as users
//! run it. One closed-loop client: each step is a Monte-Carlo sweep
//! (`MonteCarloCer::estimate` of each of the paper's five level designs
//! over the Figure-8 time grid, on one worker thread) followed by a
//! Figure-16 matrix (`pcm_sim::simulate` of every design point on every
//! workload). No device or store layer runs.
//!
//! The timed estimates use one worker: with two, a sweep's CPU time
//! grew more under hypervisor steal (see README.md). The set-up check
//! runs the estimator on `THREADS` workers, so the parallel split is
//! still checked against the reference.

use crate::clock::Stamp;
use crate::spans::SpanLog;
use crate::{
    overhead_pct, print_latency, stats, Args, EndToEnd, Gates, Layers, SETUP_REPEATS, SPAN_DIR,
    THREADS,
};
use pcm_core::cer::{McCerReport, MonteCarloCer};
use pcm_core::level::LevelDesign;
use pcm_core::optimize::{self, MappingOptimizer};
use pcm_core::params::figure_time_grid;
use pcm_core::rng::stream_seed;
use pcm_sim::{simulate, DesignPoint, EnergyModel, SimParams, SimResult, WorkloadProfile};
use std::time::{Duration, Instant};

/// Cells one timed sweep draws per design (split evenly over the
/// design's states, so every design costs about the same).
const MC_CELLS_PER_DESIGN: u64 = 60_000;
/// Cells drawn per state when `estimate` is checked against
/// `estimate_reference` during set-up.
const GATE_SAMPLES: u64 = 500;
/// Instructions each cell of a timed Figure-16 matrix simulates.
const SIM_INSTRUCTIONS: u64 = 60_000;
/// Distinct input seeds a run cycles through; repeats check determinism.
const SEED_PHASES: usize = 16;
/// First seed stream of the simulations (the estimates use the ones
/// below it).
const SIM_STREAMS: u64 = 1 << 20;

/// What the harness needs before it can run: the five level designs
/// (two of them optimized from scratch) and the Figure-16 matrix.
struct Harness {
    designs: Vec<LevelDesign>,
    times: Vec<f64>,
    matrix: Vec<(DesignPoint, WorkloadProfile)>,
    params: SimParams,
    energy: EnergyModel,
    mc_cells_per_design: u64,
    sim_instructions: u64,
}

fn setup(tiny: bool) -> Harness {
    let opt = MappingOptimizer::default();
    let designs = vec![
        LevelDesign::four_level_naive(),
        LevelDesign::four_level_smart(),
        opt.optimize(&LevelDesign::four_level_smart(), "4LCo")
            .design,
        LevelDesign::three_level_naive(),
        opt.optimize(&LevelDesign::three_level_naive(), "3LCo")
            .design,
    ];
    let matrix = WorkloadProfile::figure16_suite()
        .into_iter()
        .flat_map(|w| DesignPoint::ALL.into_iter().map(move |d| (d, w)))
        .collect();
    Harness {
        designs,
        times: figure_time_grid(),
        matrix,
        params: SimParams::default(),
        energy: EnergyModel::default(),
        mc_cells_per_design: if tiny { 600 } else { MC_CELLS_PER_DESIGN },
        sim_instructions: if tiny { 2_000 } else { SIM_INSTRUCTIONS },
    }
}

/// Set-up checks, outside any timing: the optimized designs equal the
/// library's cached ones, and the batched estimator equals its
/// per-sample reference on every design.
fn check_setup(h: &Harness, seed: u64, gates: &mut Gates) {
    gates.check(
        h.designs == optimize::canonical_designs(),
        "set-up designs equal optimize::canonical_designs()",
    );
    for (i, d) in h.designs.iter().enumerate() {
        let mc =
            MonteCarloCer::new(GATE_SAMPLES, stream_seed(seed, i as u64)).with_threads(THREADS);
        let fast = mc.estimate(d, &h.times);
        let reference = mc.estimate_reference(d, &h.times);
        gates.check(
            same_report(&fast, &reference),
            format_args!(
                "MonteCarloCer::estimate equals estimate_reference on {}",
                d.name
            ),
        );
    }
}

fn same_report(a: &McCerReport, b: &McCerReport) -> bool {
    a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            p.per_state == q.per_state && p.weighted_cer.to_bits() == q.weighted_cer.to_bits()
        })
}

fn same_sim(a: &SimResult, b: &SimResult) -> bool {
    a.exec_time_ns.to_bits() == b.exec_time_ns.to_bits()
        && a.reads == b.reads
        && a.writes == b.writes
        && a.refreshes == b.refreshes
        && a.total_energy_nj().to_bits() == b.total_energy_nj().to_bits()
}

/// Everything one window measured. Per-call times are CPU time of the
/// whole process (the estimate's worker threads included); only this
/// client runs while a window is measured.
#[derive(Default)]
struct Window {
    /// Wall-clock latency of each sweep and each matrix, ns.
    mc_wall: Vec<u64>,
    sim_wall: Vec<u64>,
    /// CPU time of each sweep and each matrix, ns.
    mc_cpu: Vec<u64>,
    sim_cpu: Vec<u64>,
    mc_cells: u64,
    sim_instructions: u64,
}

impl Window {
    /// Calls per CPU second over the first `steps` steps.
    fn cpu_rate(&self, steps: usize) -> f64 {
        let ns: u64 = self.mc_cpu[..steps]
            .iter()
            .chain(&self.sim_cpu[..steps])
            .sum();
        stats::ratio(2.0 * steps as f64, ns as f64 / 1e9)
    }
}

/// How long a window runs.
#[derive(Clone, Copy)]
enum Budget {
    Measure(Duration),
    Steps(usize),
}

/// One closed-loop client alternating a Monte-Carlo sweep and a
/// Figure-16 matrix until `budget` is spent. Step `k` draws its seeds
/// from phase `k % SEED_PHASES`, so a run averages over many inputs, and
/// every repeat of a phase must reproduce that phase's first results.
fn run_window(
    h: &Harness,
    seed: u64,
    budget: Budget,
    mut log: Option<&mut SpanLog>,
    gates: &mut Gates,
) -> Window {
    let mut w = Window::default();
    let mut first: Vec<Option<(Vec<McCerReport>, Vec<SimResult>)>> = vec![None; SEED_PHASES];
    let mut same = true;
    let start = Instant::now();
    loop {
        let k = w.mc_cpu.len();
        let phase = k % SEED_PHASES;
        let estimators: Vec<MonteCarloCer> = h
            .designs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let samples = h.mc_cells_per_design / d.n_levels() as u64;
                let s = stream_seed(seed, (phase * h.designs.len() + i) as u64);
                MonteCarloCer::new(samples, s).with_threads(1)
            })
            .collect();
        let t0 = Stamp::process();
        let reports: Vec<McCerReport> = estimators
            .iter()
            .zip(&h.designs)
            .map(|(mc, d)| mc.estimate(d, &h.times))
            .collect();
        let t1 = Stamp::process();
        let sims: Vec<SimResult> = h
            .matrix
            .iter()
            .enumerate()
            .map(|(i, &(dp, profile))| {
                let s = stream_seed(seed, SIM_STREAMS + (phase * h.matrix.len() + i) as u64);
                simulate(&h.params, &h.energy, dp, profile, h.sim_instructions, s)
            })
            .collect();
        let t2 = Stamp::process();
        if let Some(l) = log.as_deref_mut() {
            l.record("cer.estimate_sweep", t0.wall, t1.wall, 0, 2 * k as u64 + 1);
            l.record("sim.figure16_matrix", t1.wall, t2.wall, 0, 2 * k as u64 + 2);
        }
        let (mc_wall, mc_cpu) = t0.to(t1);
        let (sim_wall, sim_cpu) = t1.to(t2);
        w.mc_wall.push(mc_wall);
        w.mc_cpu.push(mc_cpu);
        w.sim_wall.push(sim_wall);
        w.sim_cpu.push(sim_cpu);
        w.mc_cells += estimators
            .iter()
            .zip(&h.designs)
            .map(|(mc, d)| mc.samples_per_state * d.n_levels() as u64)
            .sum::<u64>();
        w.sim_instructions += sims.iter().map(|r| r.instructions).sum::<u64>();
        same &= sims
            .iter()
            .all(|r| r.instructions == h.sim_instructions && r.exec_time_ns.is_finite());
        match &first[phase] {
            Some((m, s)) => {
                same &= m.iter().zip(&reports).all(|(a, b)| same_report(a, b))
                    && s.iter().zip(&sims).all(|(a, b)| same_sim(a, b));
            }
            None => first[phase] = Some((reports, sims)),
        }
        let done = match budget {
            Budget::Measure(d) => start.elapsed() >= d,
            Budget::Steps(n) => w.mc_cpu.len() >= n,
        };
        if done {
            break;
        }
    }
    gates.ops(2 * w.mc_cpu.len() as u64, 0);
    gates.check(
        same,
        "every repeated phase reproduces its first estimates and simulations",
    );
    w
}

fn print_window(w: &Window) {
    let secs = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "  window: {} steps | mc_cells_per_s {:.0} wall, {:.0} CPU | sim_instr_per_s {:.0} wall, {:.0} CPU",
        w.mc_cpu.len(),
        stats::ratio(w.mc_cells as f64, secs(&w.mc_wall)),
        stats::ratio(w.mc_cells as f64, secs(&w.mc_cpu)),
        stats::ratio(w.sim_instructions as f64, secs(&w.sim_wall)),
        stats::ratio(w.sim_instructions as f64, secs(&w.sim_cpu))
    );
    print_latency("Monte-Carlo sweep, wall", &w.mc_wall);
    print_latency("Monte-Carlo sweep, CPU", &w.mc_cpu);
    print_latency("Figure-16 matrix, wall", &w.sim_wall);
    print_latency("Figure-16 matrix, CPU", &w.sim_cpu);
}

/// `--trace 0`: median of `SETUP_REPEATS` set-ups, the set-up checks,
/// then one window of `--seconds`.
pub fn end_to_end(args: &Args, gates: &mut Gates) -> EndToEnd {
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut harness = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Stamp::process();
        harness = Some(setup(args.tiny));
        let (wall_ns, cpu_ns) = t0.to(Stamp::process());
        setup_wall_s.push(wall_ns as f64 / 1e9);
        setup_cpu_s.push(cpu_ns as f64 / 1e9);
    }
    let h = harness.expect("at least one setup");
    println!("  setup: wall {setup_wall_s:?} s | CPU {setup_cpu_s:?} s");
    check_setup(&h, args.seed, gates);
    let budget = Budget::Measure(Duration::from_secs_f64(args.seconds));
    let w = run_window(&h, args.seed, budget, None, gates);
    print_window(&w);
    EndToEnd {
        ops_per_cpu_s: w.cpu_rate(w.mc_cpu.len()),
        op1_cpu_ns: w.mc_cpu,
        op2_cpu_ns: w.sim_cpu,
        setup_s: stats::median(&setup_cpu_s),
    }
}

/// `--trace 1`: an untraced window of half `--seconds`, then the same
/// steps with a span around every call.
pub fn per_layer(args: &Args, gates: &mut Gates) -> Layers {
    let h = setup(args.tiny);
    check_setup(&h, args.seed, gates);
    let budget = Budget::Measure(Duration::from_secs_f64(args.seconds / 2.0));
    let plain = run_window(&h, args.seed, budget, None, gates);
    let steps = plain.mc_cpu.len();
    let mut log = SpanLog::new(Instant::now(), 1);
    let traced = run_window(&h, args.seed, Budget::Steps(steps), Some(&mut log), gates);
    print_window(&traced);
    let l = Layers {
        trace_overhead_pct: overhead_pct(plain.cpu_rate(steps), traced.cpu_rate(steps)),
        cer_mc_ns_per_cell: stats::ratio(
            traced.mc_cpu.iter().sum::<u64>() as f64,
            traced.mc_cells as f64,
        ),
        sim_ns_per_instr: stats::ratio(
            traced.sim_cpu.iter().sum::<u64>() as f64,
            traced.sim_instructions as f64,
        ),
        ..Layers::default()
    };
    let path = std::path::Path::new(SPAN_DIR)
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match crate::spans::write_jsonl(&path, &mut log.spans) {
        Ok(()) => println!("  wrote {} ({} spans)", path.display(), log.spans.len()),
        Err(e) => gates.check(false, format_args!("write {}: {e}", path.display())),
    }
    l
}
