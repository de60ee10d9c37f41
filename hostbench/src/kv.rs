//! The KV workloads. hostbench generates each actor's op stream itself
//! (seeded `Xoshiro256pp::split` streams, the library's `Zipfian`
//! sampler) and times every `PcmStore` get and put; it never calls
//! `pcm_store::workload::run`, whose reports are model time.
//!
//! Load is closed loop: `THREADS` client threads, each owning a fixed
//! set of actors and issuing one op at a time. The run proceeds in
//! rounds (every actor issues `ops_per_round` ops); between rounds one
//! coordinator advances model time and scrubs when the workload asks for
//! it, while the clients wait. Round boundaries make the op stream, and
//! so the op totals after any round, a pure function of the seed.

use crate::clock::Stamp;
use crate::spans::{Span, SpanLog};
use crate::{
    overhead_pct, print_latency, replay, stats, Args, EndToEnd, Gates, Layers, SETUP_REPEATS,
    SPAN_DIR, THREADS,
};
use pcm_core::rng::Xoshiro256pp;
use pcm_device::{
    ctx_stream, jsonl, pack_ctx, CtxClass, DeviceBuilder, ShardedScrubber, TraceConfig,
};
use pcm_sim::profile::RequestProfile;
use pcm_store::workload::{value_for, Zipfian};
use pcm_store::{
    pages_for_value, PcmStore, StoreConfig, StoreSession, WorkloadConfig, PAGE_PAYLOAD_BYTES,
};
use pcm_trace::OpKind;
use pcm_wearout::fault::EnduranceModel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Untimed rounds before the measured window (caches warm, every
/// allocation path taken once).
const WARMUP_ROUNDS: u64 = 1;

/// In-program trace ring per bank, events. Sized for
/// `KvSpec::traced_rounds` of either workload plus format and preload,
/// so the ring never wraps (the run checks that it did not).
const TRACE_EVENTS_PER_BANK: usize = 1 << 17;

/// Span-id prefix of round spans, whose ids the clients must know in
/// advance (their op spans are children of the round).
const ROUND_PREFIX: u64 = 0xFE;
/// Span-id prefix of the coordinator's other spans.
const COORD_PREFIX: u64 = 0xFF;

/// Background scrub between rounds.
#[derive(Debug, Clone, Copy)]
pub struct ScrubSpec {
    /// Model seconds for one full-device scrub pass.
    interval_secs: f64,
    /// Model seconds the clock advances after each round.
    advance_secs: f64,
}

/// One KV workload's shape.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Percent of ops that are gets (the rest are puts).
    read_pct: u64,
    /// Value size, bytes.
    value_bytes: usize,
    /// Logical clients with disjoint keyspaces.
    actors: usize,
    /// Keys per actor, all preloaded.
    keys_per_actor: u64,
    /// Zipfian skew of key popularity within an actor.
    zipf_theta: f64,
    /// Hash-directory buckets.
    dir_buckets: u32,
    /// Directory stripe locks.
    stripes: usize,
    /// Device banks.
    banks: usize,
    /// Ops each actor issues per round.
    ops_per_round: u64,
    /// Most rounds the traced run makes (bounds the trace ring).
    traced_rounds: u64,
    /// Pages replayed layer by layer in the traced run.
    replay_pages: usize,
    /// Scrub between rounds, if any.
    scrub: Option<ScrubSpec>,
}

/// The workload named on the command line.
pub fn spec(args: &Args) -> KvSpec {
    let mut s = if args.workload == "kv_update" {
        // YCSB-A over small values: the write path (cell program loop)
        // dominates, and ~16 keys per bucket make 6-page directory
        // chains that load the index and allocator too.
        KvSpec {
            read_pct: 50,
            value_bytes: 100,
            actors: 8,
            keys_per_actor: 128,
            zipf_theta: 0.99,
            dir_buckets: 64,
            stripes: 16,
            banks: 8,
            ops_per_round: 32,
            traced_rounds: 48,
            replay_pages: 512,
            scrub: None,
        }
    } else {
        // YCSB-B over 17-page values with scrub between rounds: demand
        // reads stress sense and decode, scrub pushes the same read and
        // write layers through refresh. Each round's clock advance makes
        // an eighth of the device due for scrub.
        KvSpec {
            read_pct: 95,
            value_bytes: 17 * PAGE_PAYLOAD_BYTES,
            actors: 8,
            keys_per_actor: 64,
            zipf_theta: 0.99,
            dir_buckets: 64,
            stripes: 16,
            banks: 8,
            ops_per_round: 64,
            traced_rounds: 12,
            replay_pages: 512,
            scrub: Some(ScrubSpec {
                interval_secs: 64.0,
                advance_secs: 8.0,
            }),
        }
    };
    if args.tiny {
        s.keys_per_actor = 8;
        s.ops_per_round = 4;
        s.traced_rounds = 4;
        s.replay_pages = 16;
    }
    s
}

/// Summed op outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    gets: u64,
    puts: u64,
    /// Gets that returned exactly the value written.
    hits: u64,
    /// Gets that found no value for a preloaded key.
    misses: u64,
    /// Gets that returned other bytes.
    mismatches: u64,
    /// Calls that returned a store error.
    errors: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.gets += o.gets;
        self.puts += o.puts;
        self.hits += o.hits;
        self.misses += o.misses;
        self.mismatches += o.mismatches;
        self.errors += o.errors;
    }

    fn ops(&self) -> u64 {
        self.gets + self.puts
    }

    fn failures(&self) -> u64 {
        self.misses + self.mismatches + self.errors
    }
}

/// The next op of an actor's stream: `(key rank, is a get)`.
fn next_op(rng: &mut Xoshiro256pp, zipf: &Zipfian, read_pct: u64) -> (u64, bool) {
    let rank = zipf.sample(rng.next_f64());
    (rank, rng.next_bounded(100) < read_pct)
}

fn zipf(spec: &KvSpec) -> Zipfian {
    Zipfian::new(spec.keys_per_actor, spec.zipf_theta).expect("workload skew lies in [0, 1)")
}

/// Gets and puts of the first `rounds` rounds, regenerated from the
/// seed alone — what every run of this seed must have issued.
fn expected_totals(spec: &KvSpec, seed: u64, rounds: u64) -> (u64, u64) {
    let z = zipf(spec);
    let (mut gets, mut puts) = (0, 0);
    for actor in 0..spec.actors {
        let mut rng = Xoshiro256pp::split(seed, actor as u64);
        for _ in 0..rounds * spec.ops_per_round {
            if next_op(&mut rng, &z, spec.read_pct).1 {
                gets += 1;
            } else {
                puts += 1;
            }
        }
    }
    (gets, puts)
}

fn base_key(spec: &KvSpec, actor: usize) -> u64 {
    actor as u64 * spec.keys_per_actor
}

/// Format a fresh store and preload every key from `THREADS` threads.
fn build(spec: &KvSpec, seed: u64, traced: bool, gates: &mut Gates) -> PcmStore {
    let cfg = StoreConfig {
        dir_buckets: spec.dir_buckets,
        stripes: spec.stripes,
    };
    let sizing = WorkloadConfig {
        actors: spec.actors,
        keys_per_actor: spec.keys_per_actor,
        value_bytes: spec.value_bytes,
        ..WorkloadConfig::default()
    };
    let blocks = sizing.required_blocks(&cfg).div_ceil(spec.banks) * spec.banks;
    // At the paper's MLC endurance (1e5 cycles) the store's most-written
    // metadata pages wear out within seconds of this load and puts fail
    // with `WearoutExhausted`; the benchmark measures speed, so its
    // devices get 1e8-cycle cells and no op fails.
    let mut builder = DeviceBuilder::new()
        .blocks(blocks)
        .banks(spec.banks)
        .seed(seed)
        .endurance(EnduranceModel::slc());
    if traced {
        builder = builder.trace(TraceConfig::new(TRACE_EVENTS_PER_BANK));
    }
    let dev = builder
        .build_sharded()
        .expect("device geometry is a whole number of banks");
    let store = PcmStore::format(dev, cfg).expect("store fits the device it was sized for");
    let failed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    let mut failed = 0;
                    for actor in (t..spec.actors).step_by(THREADS) {
                        for k in 0..spec.keys_per_actor {
                            let key = base_key(spec, actor) + k;
                            failed += u64::from(
                                store.put(key, &value_for(key, spec.value_bytes)).is_err(),
                            );
                        }
                    }
                    failed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .sum()
    });
    gates.ops(spec.actors as u64 * spec.keys_per_actor, failed);
    store
}

/// One logical client: its op stream and its store session.
struct Actor<'s> {
    base: u64,
    stream: u64,
    seq: u32,
    rng: Xoshiro256pp,
    zipf: Zipfian,
    session: StoreSession<'s>,
    /// `value_for` of every key, by rank (computed outside the timing).
    values: Vec<Vec<u8>>,
}

impl<'s> Actor<'s> {
    fn new(store: &'s PcmStore, spec: &KvSpec, seed: u64, actor: usize) -> Actor<'s> {
        let base = base_key(spec, actor);
        // Session streams 1..=actors; stream 0 is left to hand-driven
        // sessions and preload uses the store's anonymous stream.
        let stream = actor as u64 + 1;
        Actor {
            base,
            stream,
            seq: 0,
            rng: Xoshiro256pp::split(seed, actor as u64),
            zipf: zipf(spec),
            session: store.session(stream),
            values: (0..spec.keys_per_actor)
                .map(|r| value_for(base + r, spec.value_bytes))
                .collect(),
        }
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    round: u64,
    /// Wall-clock latency, ns.
    wall_ns: u64,
    /// CPU time the client thread spent in the call, ns.
    cpu_ns: u64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    totals: Totals,
    /// Cumulative totals after each round.
    by_round: Vec<Totals>,
    /// Measured gets and puts.
    gets: Vec<Sample>,
    puts: Vec<Sample>,
    spans: Vec<Span>,
}

fn one_op(
    a: &mut Actor<'_>,
    read_pct: u64,
    round: u64,
    log: &mut Option<SpanLog>,
    out: &mut ClientOut,
) {
    let measured = round >= WARMUP_ROUNDS;
    let (rank, is_get) = next_op(&mut a.rng, &a.zipf, read_pct);
    let key = a.base + rank;
    let value = &a.values[rank as usize];
    // The store session allocates the same (stream, seq) correlation id
    // when tracing is on, so these spans join the in-program trace.
    let request = pack_ctx(CtxClass::Kv, a.stream, a.seq);
    a.seq = a.seq.wrapping_add(1);
    let t0 = Stamp::thread();
    if is_get {
        let r = a.session.get(key);
        let t1 = Stamp::thread();
        out.totals.gets += 1;
        match r {
            Ok(Some(v)) if v == *value => out.totals.hits += 1,
            Ok(Some(_)) => out.totals.mismatches += 1,
            Ok(None) => out.totals.misses += 1,
            Err(e) => {
                out.totals.errors += 1;
                eprintln!("hostbench: get {key}: {e}");
            }
        }
        if measured {
            out.gets.push(sample(round, t0, t1));
        }
        if let Some(l) = log.as_mut() {
            l.record("store.get", t0.wall, t1.wall, round_span_id(round), request);
        }
    } else {
        let r = a.session.put(key, value);
        let t1 = Stamp::thread();
        out.totals.puts += 1;
        if let Err(e) = r {
            out.totals.errors += 1;
            eprintln!("hostbench: put {key}: {e}");
        }
        if measured {
            out.puts.push(sample(round, t0, t1));
        }
        if let Some(l) = log.as_mut() {
            l.record("store.put", t0.wall, t1.wall, round_span_id(round), request);
        }
    }
}

fn sample(round: u64, t0: Stamp, t1: Stamp) -> Sample {
    let (wall_ns, cpu_ns) = t0.to(t1);
    Sample {
        round,
        wall_ns,
        cpu_ns,
    }
}

fn round_span_id(round: u64) -> u64 {
    (ROUND_PREFIX << 40) | (round + 1)
}

/// How long a window runs.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Measured rounds until this much host time has passed.
    Measure(Duration),
    /// Exactly this many rounds, warm-up included.
    Rounds(u64),
}

/// The coordinator's view: round timing and scrub between rounds.
struct Coord<'a> {
    store: &'a PcmStore,
    scrub: Option<(ShardedScrubber, f64)>,
    budget: Budget,
    round_start: Instant,
    window_start: Option<Instant>,
    log: Option<SpanLog>,
    /// Demand part of each round, ns.
    demand_ns: Vec<u64>,
    /// Scrub part of each round, ns.
    scrub_ns: Vec<u64>,
    /// CPU time of each round's scrub, ns.
    scrub_cpu_ns: Vec<u64>,
    scrub_blocks: u64,
    scrub_failures: u64,
    scrub_corrected: u64,
}

impl Coord<'_> {
    /// Close round `round`: scrub if due, and say whether to stop.
    fn end_round(&mut self, round: u64) -> bool {
        let demand_end = Instant::now();
        let (mut scrub_ns, mut scrub_cpu_ns) = (0, 0);
        if let Some((scrubber, advance)) = self.scrub.as_mut() {
            let dev = self.store.device();
            let before = dev.metrics().snapshot().total().corrected_symbols;
            dev.advance_time(*advance);
            let t0 = Stamp::thread();
            let rep = scrubber.run_until(dev, dev.now());
            let t1 = Stamp::thread();
            self.scrub_blocks += rep.blocks_refreshed;
            self.scrub_failures += rep.failures;
            self.scrub_corrected += dev.metrics().snapshot().total().corrected_symbols - before;
            (scrub_ns, scrub_cpu_ns) = t0.to(t1);
            if let Some(l) = self.log.as_mut() {
                l.record("scrub.run_until", t0.wall, t1.wall, round_span_id(round), 0);
            }
        }
        let end = Instant::now();
        self.demand_ns
            .push(demand_end.duration_since(self.round_start).as_nanos() as u64);
        self.scrub_ns.push(scrub_ns);
        self.scrub_cpu_ns.push(scrub_cpu_ns);
        if let Some(l) = self.log.as_mut() {
            l.record_with_id(
                "kv.round",
                self.round_start,
                end,
                round_span_id(round),
                0,
                0,
            );
        }
        if round + 1 == WARMUP_ROUNDS {
            self.window_start = Some(end);
        }
        let stop = match self.budget {
            Budget::Measure(d) => self
                .window_start
                .is_some_and(|w| round >= WARMUP_ROUNDS && end.duration_since(w) >= d),
            Budget::Rounds(n) => round + 1 >= n,
        };
        self.round_start = Instant::now();
        stop
    }
}

/// Everything one window measured.
struct Window {
    /// Rounds run, warm-up included.
    rounds: u64,
    /// Cumulative totals after each round, summed over clients.
    by_round: Vec<Totals>,
    demand_ns: Vec<u64>,
    scrub_ns: Vec<u64>,
    scrub_cpu_ns: Vec<u64>,
    scrub_blocks: u64,
    scrub_failures: u64,
    scrub_corrected: u64,
    /// Measured-round gets and puts, in round order.
    gets: Vec<Sample>,
    puts: Vec<Sample>,
    spans: Vec<Span>,
}

fn wall(v: &[Sample]) -> Vec<u64> {
    v.iter().map(|s| s.wall_ns).collect()
}

fn cpu(v: &[Sample]) -> Vec<u64> {
    v.iter().map(|s| s.cpu_ns).collect()
}

impl Window {
    fn totals(&self) -> Totals {
        self.by_round.last().copied().unwrap_or_default()
    }

    /// Ops per second over the measured rounds before `end`, charging
    /// each round the host time `ns` gives it.
    fn rate(&self, end: u64, ns: &[u64]) -> f64 {
        let w = WARMUP_ROUNDS as usize;
        let end = end as usize;
        let ops = self.by_round[end - 1].ops() - self.by_round[w - 1].ops();
        let ns: u64 = ns[w..end].iter().sum();
        stats::ratio(ops as f64, ns as f64 / 1e9)
    }

    /// Requests per CPU-second over the measured rounds before `end`:
    /// the client CPU time of every request plus the scrub's.
    fn cpu_rate(&self, end: u64) -> f64 {
        let w = WARMUP_ROUNDS as usize;
        let ops = self.by_round[end as usize - 1].ops() - self.by_round[w - 1].ops();
        let requests: u64 = self
            .gets
            .iter()
            .chain(&self.puts)
            .filter(|s| s.round < end)
            .map(|s| s.cpu_ns)
            .sum();
        let scrub: u64 = self.scrub_cpu_ns[w..end as usize].iter().sum();
        stats::ratio(ops as f64, (requests + scrub) as f64 / 1e9)
    }
}

/// One client thread: rounds of ops until the coordinator (the client
/// holding `coord`) says stop.
fn client(
    t: usize,
    mut actors: Vec<Actor<'_>>,
    mut coord: Option<&mut Coord<'_>>,
    spec: &KvSpec,
    barrier: &Barrier,
    stop: &AtomicBool,
    epoch: Option<Instant>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut log = epoch.map(|e| SpanLog::new(e, t as u64 + 1));
    let mut round = 0;
    loop {
        for _ in 0..spec.ops_per_round {
            for a in actors.iter_mut() {
                one_op(a, spec.read_pct, round, &mut log, &mut out);
            }
        }
        out.by_round.push(out.totals);
        barrier.wait();
        if let Some(c) = coord.as_deref_mut() {
            if c.end_round(round) {
                stop.store(true, Ordering::SeqCst);
            }
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        round += 1;
    }
    out.spans = log.map(|l| l.spans).unwrap_or_default();
    out
}

/// Run rounds against `store` until `budget` is spent. With `epoch`
/// set, every call is also recorded as a span.
fn run_window(
    store: &PcmStore,
    spec: &KvSpec,
    seed: u64,
    budget: Budget,
    epoch: Option<Instant>,
) -> Window {
    let mut actors: Vec<Vec<Actor<'_>>> = (0..THREADS).map(|_| Vec::new()).collect();
    for a in 0..spec.actors {
        actors[a % THREADS].push(Actor::new(store, spec, seed, a));
    }
    let mut coord = Coord {
        store,
        scrub: spec.scrub.map(|s| {
            (
                ShardedScrubber::new(store.device(), s.interval_secs),
                s.advance_secs,
            )
        }),
        budget,
        round_start: Instant::now(),
        window_start: None,
        log: epoch.map(|e| SpanLog::new(e, COORD_PREFIX)),
        demand_ns: Vec::new(),
        scrub_ns: Vec::new(),
        scrub_cpu_ns: Vec::new(),
        scrub_blocks: 0,
        scrub_failures: 0,
        scrub_corrected: 0,
    };
    let barrier = Barrier::new(THREADS);
    let stop = AtomicBool::new(false);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let mut coord_slot = Some(&mut coord);
        let handles: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(t, mine)| {
                let c = if t == 0 { coord_slot.take() } else { None };
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || client(t, mine, c, spec, barrier, stop, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rounds = coord.demand_ns.len() as u64;
    let mut by_round = vec![Totals::default(); rounds as usize];
    let (mut gets, mut puts, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for o in outs {
        for (sum, t) in by_round.iter_mut().zip(&o.by_round) {
            sum.add(t);
        }
        gets.extend(o.gets);
        puts.extend(o.puts);
        spans.extend(o.spans);
    }
    // Completion order at round granularity, for sliced statistics.
    gets.sort_by_key(|s: &Sample| s.round);
    puts.sort_by_key(|s: &Sample| s.round);
    spans.extend(coord.log.take().map(|l| l.spans).unwrap_or_default());
    Window {
        rounds,
        by_round,
        demand_ns: coord.demand_ns,
        scrub_ns: coord.scrub_ns,
        scrub_cpu_ns: coord.scrub_cpu_ns,
        scrub_blocks: coord.scrub_blocks,
        scrub_failures: coord.scrub_failures,
        scrub_corrected: coord.scrub_corrected,
        gets,
        puts,
        spans,
    }
}

/// Count a window's ops and scrubs into the gates and check its op
/// totals against the seed's regenerated stream.
fn check_window(w: &Window, spec: &KvSpec, seed: u64, label: &str, gates: &mut Gates) {
    let t = w.totals();
    gates.ops(t.ops(), t.failures());
    gates.ops(w.scrub_blocks + w.scrub_failures, w.scrub_failures);
    let (gets, puts) = expected_totals(spec, seed, w.rounds);
    gates.check(
        t.gets == gets && t.puts == puts && t.hits == gets,
        format_args!(
            "{label}: op totals {t:?} equal the seed's stream ({gets} gets, {puts} puts, all hits)"
        ),
    );
}

fn print_window(w: &Window, spec: &KvSpec, device_blocks: usize) {
    let n = w.rounds;
    let demand_s = w.demand_ns[WARMUP_ROUNDS as usize..].iter().sum::<u64>() as f64 / 1e9;
    let scrub_s = w.scrub_ns[WARMUP_ROUNDS as usize..].iter().sum::<u64>() as f64 / 1e9;
    println!(
        "  window: {} measured rounds | demand {:.3} s | scrub {:.3} s | totals {:?}",
        n - WARMUP_ROUNDS,
        demand_s,
        scrub_s,
        w.totals()
    );
    println!(
        "  kv_ops_per_s: {:.1} per wall second of demand | {:.1} per CPU second (scrub included)",
        w.rate(n, &w.demand_ns),
        w.cpu_rate(n)
    );
    print_latency("get, wall", &wall(&w.gets));
    print_latency("get, CPU", &cpu(&w.gets));
    print_latency("put, wall", &wall(&w.puts));
    print_latency("put, CPU", &cpu(&w.puts));
    if spec.scrub.is_some() {
        let per_s =
            |ns: &[u64]| stats::ratio(w.scrub_blocks as f64, ns.iter().sum::<u64>() as f64 / 1e9);
        println!(
            "  scrub_blocks_per_s: {:.1} per wall second | {:.1} per CPU second ({} blocks of {device_blocks}, {} failures)",
            per_s(&w.scrub_ns),
            per_s(&w.scrub_cpu_ns),
            w.scrub_blocks,
            w.scrub_failures
        );
    }
}

/// `--trace 0`: median of `SETUP_REPEATS` setups, then one untraced
/// window of `--seconds`.
pub fn end_to_end(spec: &KvSpec, args: &Args, gates: &mut Gates) -> EndToEnd {
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut free_pages = Vec::with_capacity(SETUP_REPEATS);
    let mut store = None;
    for _ in 0..SETUP_REPEATS {
        drop(store.take());
        let t0 = Stamp::process();
        let s = build(spec, args.seed, false, gates);
        let (wall_ns, cpu_ns) = t0.to(Stamp::process());
        setup_wall_s.push(wall_ns as f64 / 1e9);
        setup_cpu_s.push(cpu_ns as f64 / 1e9);
        free_pages.push(s.free_pages());
        store = Some(s);
    }
    let store = store.expect("at least one setup");
    gates.check(
        free_pages.iter().all(|&f| f == free_pages[0]),
        format_args!("every setup leaves the same free pages: {free_pages:?}"),
    );
    println!(
        "  setup: {} blocks | wall {setup_wall_s:?} s | CPU {setup_cpu_s:?} s",
        store.device().blocks()
    );
    let w = run_window(
        &store,
        spec,
        args.seed,
        Budget::Measure(Duration::from_secs_f64(args.seconds)),
        None,
    );
    check_window(&w, spec, args.seed, "untraced run", gates);
    print_window(&w, spec, store.device().blocks());
    EndToEnd {
        ops_per_cpu_s: w.cpu_rate(w.rounds),
        op1_cpu_ns: cpu(&w.gets),
        op2_cpu_ns: cpu(&w.puts),
        setup_s: stats::median(&setup_cpu_s),
    }
}

/// Device reads and writes one traced KV request issued.
struct PageCounts {
    reads: u64,
    index_reads: u64,
    writes: u64,
}

fn page_counts(r: &RequestProfile) -> PageCounts {
    let reads = r.children.iter().filter(|c| c.kind == OpKind::Read);
    PageCounts {
        reads: reads.clone().count() as u64,
        index_reads: reads.filter(|c| c.index).count() as u64,
        writes: r
            .children
            .iter()
            .filter(|c| c.kind == OpKind::Write)
            .count() as u64,
    }
}

/// Read every `step`-th block of the store's device: the workload's own
/// page images (superblock, directory, value and free-list pages).
fn sample_pages(store: &PcmStore, n: usize, gates: &mut Gates) -> Vec<Vec<u8>> {
    let dev = store.device();
    let step = (dev.blocks() / n.max(1)).max(1);
    (0..dev.blocks())
        .step_by(step)
        .take(n)
        .filter_map(|b| {
            let r = dev.read_block(b);
            gates.check(r.is_ok(), format_args!("sample page {b} reads back"));
            r.ok().map(|rep| rep.data)
        })
        .collect()
}

/// `--trace 1`: an untraced window of half `--seconds`, the same rounds
/// again with tracing on, then the layer replay.
pub fn per_layer(spec: &KvSpec, args: &Args, gates: &mut Gates) -> Layers {
    let seed = args.seed;
    let store = build(spec, seed, false, gates);
    let plain = run_window(
        &store,
        spec,
        seed,
        Budget::Measure(Duration::from_secs_f64(args.seconds / 2.0)),
        None,
    );
    check_window(&plain, spec, seed, "untraced run", gates);
    drop(store);

    let rounds = plain.rounds.min(spec.traced_rounds).max(WARMUP_ROUNDS + 1);
    let store = build(spec, seed, true, gates);
    let dev = store.device();
    let before = dev.metrics().snapshot().total();
    let epoch = Instant::now();
    let traced = run_window(&store, spec, seed, Budget::Rounds(rounds), Some(epoch));
    let after = dev.metrics().snapshot().total();
    check_window(&traced, spec, seed, "traced run", gates);
    if rounds <= plain.rounds {
        gates.check(
            traced.totals() == plain.by_round[rounds as usize - 1],
            format_args!("traced op totals equal the untraced run's after {rounds} rounds"),
        );
    }
    print_window(&traced, spec, dev.blocks());

    let mut l = Layers::default();
    let untraced_rate = plain.cpu_rate(rounds.min(plain.rounds));
    let traced_rate = traced.cpu_rate(rounds);
    l.trace_overhead_pct = overhead_pct(untraced_rate, traced_rate);

    // Model-time attribution and page counts from the in-program trace,
    // restricted to the measured sessions (preload used other streams).
    let trace = dev
        .tracer()
        .buffer()
        .expect("traced store records")
        .snapshot();
    let profile = pcm_sim::profile::build(&jsonl::export(&trace))
        .expect("the device's own trace export parses");
    gates.check(
        trace.total_dropped() == 0 && profile.orphan_events == 0,
        format_args!(
            "trace ring held the run ({} dropped, {} orphan events)",
            trace.total_dropped(),
            profile.orphan_events
        ),
    );
    let kv: Vec<&RequestProfile> = profile
        .requests
        .iter()
        .filter(|r| (1..=spec.actors as u64).contains(&ctx_stream(r.ctx)))
        .collect();
    let gets: Vec<PageCounts> = kv
        .iter()
        .filter(|r| r.kind == OpKind::KvGet)
        .map(|r| page_counts(r))
        .collect();
    let puts: Vec<PageCounts> = kv
        .iter()
        .filter(|r| r.kind == OpKind::KvPut)
        .map(|r| page_counts(r))
        .collect();
    let t = traced.totals();
    gates.check(
        gets.len() as u64 == t.gets && puts.len() as u64 == t.puts,
        format_args!(
            "trace holds every request ({} gets, {} puts)",
            gets.len(),
            puts.len()
        ),
    );
    let ppv = pages_for_value(spec.value_bytes) as u64;
    gates.check(
        gets.iter().all(|g| g.reads - g.index_reads == ppv),
        format_args!("every get reads {ppv} value pages beyond its index pages"),
    );
    let sum = |v: &[PageCounts], f: fn(&PageCounts) -> u64| v.iter().map(f).sum::<u64>() as f64;
    let (reads, writes) = (
        sum(&gets, |c| c.reads) + sum(&puts, |c| c.reads),
        sum(&gets, |c| c.writes) + sum(&puts, |c| c.writes),
    );
    gates.check(
        (after.reads - before.reads) as f64 == reads
            && (after.writes - before.writes) as f64 == writes,
        format_args!(
            "DeviceMetrics deltas ({} reads, {} writes) equal the traced requests' ({reads}, {writes})",
            after.reads - before.reads,
            after.writes - before.writes
        ),
    );
    let ng = gets.len() as f64;
    let np = puts.len() as f64;
    l.store_reads_per_get = stats::ratio(sum(&gets, |c| c.reads), ng);
    l.store_index_reads_per_get = stats::ratio(sum(&gets, |c| c.index_reads), ng);
    l.store_reads_per_put = stats::ratio(sum(&puts, |c| c.reads), np);
    l.store_writes_per_put = stats::ratio(sum(&puts, |c| c.writes), np);
    let nk = kv.len() as f64;
    let bucket = |f: fn(&RequestProfile) -> u64| {
        stats::ratio(kv.iter().map(|r| f(r)).sum::<u64>() as f64, nk)
    };
    l.model_media_ns_per_op = bucket(|r| r.buckets.media_ns);
    l.model_ecc_ns_per_op = bucket(|r| r.buckets.ecc_ns);
    l.model_alloc_index_ns_per_op = bucket(|r| r.buckets.alloc_index_ns);
    l.model_scrub_wait_ns_per_op = bucket(|r| r.buckets.scrub_wait_ns);
    l.ecc_corrected_bits_per_read = stats::ratio(
        (after.corrected_symbols - before.corrected_symbols - traced.scrub_corrected) as f64,
        (after.reads - before.reads) as f64,
    );

    if spec.scrub.is_some() {
        let scrub_ns: u64 = traced.scrub_cpu_ns.iter().sum();
        let passes = traced.scrub_blocks as f64 / dev.blocks() as f64;
        l.scrub_pass_ms = stats::ratio(scrub_ns as f64 / 1e6, passes);
        l.scrub_blocks_per_s = stats::ratio(traced.scrub_blocks as f64, scrub_ns as f64 / 1e9);
        l.scrub_corrected_bits_per_pass = stats::ratio(traced.scrub_corrected as f64, passes);
        l.scrub_failures = traced.scrub_failures as f64;
    }

    // Layer replay of the workload's own pages, at the model age the
    // traced run reached.
    let pages = sample_pages(&store, spec.replay_pages, gates);
    let mut log = SpanLog::new(epoch, 0xFD);
    let r = replay::run(&pages, seed, dev.now(), spec.banks, &mut log, gates);
    l.cell_program_ns_per_cell = r.program_ns_per_cell;
    l.cell_program_attempts_per_cell = r.program_attempts_per_cell;
    l.cell_sense_ns_per_cell = r.sense_ns_per_cell;
    l.codec_encode_ns_per_block = r.codec_encode_ns;
    l.codec_decode_ns_per_block = r.codec_decode_ns;
    l.ecc_encode_ns_per_block = r.ecc_encode_ns;
    l.ecc_decode_ns_per_block = r.ecc_decode_ns;
    l.block_write_us = r.block_write_us;
    l.block_read_us = r.block_read_us;
    l.bank_refresh_us = r.bank_refresh_us;
    l.device_write_us = r.device_write_us;
    l.device_read_us = r.device_read_us;
    l.device_overhead_us =
        ((r.device_write_us - r.block_write_us) + (r.device_read_us - r.block_read_us)) / 2.0;

    // A request's self time is its latency minus the device ops under
    // it: page counts times the replayed device-op times.
    let p50 = |v: &[u64]| {
        let mut sorted = v.to_vec();
        sorted.sort_unstable();
        stats::quantile(&sorted, 0.5).unwrap_or(0) as f64 / 1e3
    };
    l.store_get_cpu_p50_us = p50(&cpu(&traced.gets));
    l.store_put_cpu_p50_us = p50(&cpu(&traced.puts));
    let get_pages_us = l.store_reads_per_get * r.device_read_us;
    let put_pages_us =
        l.store_reads_per_put * r.device_read_us + l.store_writes_per_put * r.device_write_us;
    l.store_get_self_us = l.store_get_cpu_p50_us - get_pages_us;
    l.store_put_self_us = l.store_put_cpu_p50_us - put_pages_us;
    // Wall time of a request that its client spent off the CPU: waiting
    // for a stripe, allocator or bank lock, preempted, or stolen.
    let requests = || traced.gets.iter().chain(&traced.puts);
    let (wall_ns, cpu_ns) = requests().fold((0, 0), |(w, c), s| (w + s.wall_ns, c + s.cpu_ns));
    l.store_off_cpu_pct =
        stats::ratio((wall_ns - cpu_ns.min(wall_ns)) as f64, wall_ns as f64) * 100.0;
    println!(
        "  get p50 {:.1} us = {:.2} reads x {:.2} us device read + {:.1} us store self",
        l.store_get_cpu_p50_us, l.store_reads_per_get, r.device_read_us, l.store_get_self_us
    );
    println!(
        "  put p50 {:.1} us = {:.2} reads x {:.2} us + {:.2} writes x {:.2} us device + {:.1} us store self",
        l.store_put_cpu_p50_us,
        l.store_reads_per_put,
        r.device_read_us,
        l.store_writes_per_put,
        r.device_write_us,
        l.store_put_self_us
    );

    let mut spans = traced.spans;
    spans.extend(log.spans);
    let path =
        std::path::Path::new(SPAN_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, seed));
    match crate::spans::write_jsonl(&path, &mut spans) {
        Ok(()) => println!("  wrote {} ({} spans)", path.display(), spans.len()),
        Err(e) => gates.check(false, format_args!("write {}: {e}", path.display())),
    }
    l
}
