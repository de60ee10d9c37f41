//! `math_kernels` — perf baseline and equivalence gate for the hot math
//! paths: bit-sliced BCH batch decode, the batched Monte-Carlo CER
//! sampler, and the block datapath kernels (residue-table BCH encode,
//! block sense, batched normals).
//!
//! For BCH it decodes the same 64-codeword batches through the scalar
//! oracle (`Bch::decode` per lane) and the sliced path
//! (`Bch::decode_batch`), requiring **byte-identical** corrected data,
//! parity, and per-lane results before any timing is reported. For MC it
//! runs `estimate` (batched) and `estimate_reference` (pre-batching
//! oracle) on the same `(samples, seed)` and requires identical hit
//! counts. Any divergence exits nonzero — this binary is a CI gate
//! first and a benchmark second.
//!
//! For the datapath it encodes the same messages through
//! `Bch::encode` (residue table) and `Bch::encode_reference` (polynomial
//! long division) for BCH-1 over the 708-bit TEC message and BCH-10 over
//! 512 bits, and senses the same written 3LC blocks through
//! `CellArray::sense_block` and per-cell `CellArray::sense`, requiring
//! identical outputs. It draws the same normals from a bare
//! `Xoshiro256pp::next_normal` and from a `NormalStream`, requiring
//! identical values and an identical generator state after a final
//! `NormalStream::rng()`.
//!
//! Writes `BENCH_math.json`: codewords/sec for both decode paths (and
//! the speedup ratio CI thresholds on), samples/sec for both MC paths,
//! ns per message, cell or normal for both paths of each datapath kernel, and
//! the verification verdicts.
//!
//! ```text
//! math_kernels [--quick] [--out BENCH_math.json] [--inject-divergence]
//! ```
//!
//! `--inject-divergence` corrupts one sliced-decode lane after
//! verification starts, to prove the gate actually fails the run (the
//! negative CI test drives this).

use std::time::Instant;

use pcm_codec::tec::{TEC_CELLS, TEC_CHECK_BITS};
use pcm_core::cer::mc::MonteCarloCer;
use pcm_core::level::LevelDesign;
use pcm_core::rng::{NormalSource, NormalStream, Xoshiro256pp};
use pcm_device::block::THREE_LEVEL_BLOCK_CELLS;
use pcm_device::{CellArray, ThreeLevelBlock};
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;
use pcm_wearout::fault::EnduranceModel;

struct Args {
    quick: bool,
    inject_divergence: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        inject_divergence: false,
        out: String::from("BENCH_math.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--inject-divergence" => args.inject_divergence = true,
            "--out" => {
                i += 1;
                args.out = argv
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --out");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn pseudo_data(len: usize, seed: u64) -> BitVec {
    let mut v = BitVec::zeros(len);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 1 {
            v.set(i, true);
        }
    }
    v
}

/// One 64-lane noisy batch for the paper's BCH-10/512 code: lane `l`
/// carries `l % (t+1)` errors spread across parity, data, and the
/// boundary.
fn make_batch(bch: &Bch, data_bits: usize, batch_seed: u64) -> (Vec<BitVec>, Vec<BitVec>) {
    let used = bch.parity_bits() + data_bits;
    let t = bch.t();
    let mut data = Vec::with_capacity(64);
    let mut parity = Vec::with_capacity(64);
    for l in 0..64u64 {
        let d = pseudo_data(data_bits, batch_seed * 64 + l + 1);
        let p = bch.encode(&d);
        let (mut d, mut p) = (d, p);
        let errors = (l as usize) % (t + 1);
        for i in 0..errors {
            let e = (l as usize * 131 + i * (used / t.max(1)) + batch_seed as usize) % used;
            if e < bch.parity_bits() {
                p.toggle(e);
            } else {
                d.toggle(e - bch.parity_bits());
            }
        }
        data.push(d);
        parity.push(p);
    }
    (data, parity)
}

struct BchOutcome {
    scalar_cw_per_sec: f64,
    sliced_cw_per_sec: f64,
    speedup: f64,
    identical: bool,
}

/// Decoded batch: (data lanes, parity lanes, per-lane results).
type DecodedBatch = (
    Vec<BitVec>,
    Vec<BitVec>,
    Vec<Result<usize, pcm_ecc::BchError>>,
);

fn bench_bch(quick: bool, inject: bool) -> BchOutcome {
    let bch = Bch::new(10, 10);
    let data_bits = 512;
    let batches = if quick { 4 } else { 64 };
    let reps = if quick { 1 } else { 8 };

    let inputs: Vec<(Vec<BitVec>, Vec<BitVec>)> = (0..batches)
        .map(|b| make_batch(&bch, data_bits, b))
        .collect();

    // Scalar oracle pass (timed): per-lane decode on fresh copies.
    let mut scalar_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let t0 = Instant::now();
    for _ in 0..reps {
        scalar_out.clear();
        for (d, p) in &inputs {
            let (mut d, mut p) = (d.clone(), p.clone());
            let res: Vec<_> = d
                .iter_mut()
                .zip(p.iter_mut())
                .map(|(d, p)| bch.decode(d, p))
                .collect();
            scalar_out.push((d, p, res));
        }
    }
    let scalar_secs = t0.elapsed().as_secs_f64();

    // Sliced pass (timed): decode_batch on fresh copies of the same input.
    let mut sliced_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let t1 = Instant::now();
    for _ in 0..reps {
        sliced_out.clear();
        for (d, p) in &inputs {
            let (mut d, mut p) = (d.clone(), p.clone());
            let res = bch.decode_batch(&mut d, &mut p);
            sliced_out.push((d, p, res));
        }
    }
    let sliced_secs = t1.elapsed().as_secs_f64();

    if inject {
        // Prove the gate gates: flip one corrected bit in the sliced
        // output so the comparison below must fail.
        sliced_out[0].0[0].toggle(0);
    }

    let mut identical = true;
    for (b, (s, f)) in scalar_out.iter().zip(&sliced_out).enumerate() {
        for l in 0..64 {
            if s.0[l] != f.0[l] || s.1[l] != f.1[l] || s.2[l] != f.2[l] {
                eprintln!("BCH DIVERGENCE: batch {b} lane {l}: scalar and sliced decode disagree");
                identical = false;
            }
        }
    }

    let codewords = (batches * 64 * reps as u64) as f64;
    BchOutcome {
        scalar_cw_per_sec: codewords / scalar_secs,
        sliced_cw_per_sec: codewords / sliced_secs,
        speedup: scalar_secs / sliced_secs,
        identical,
    }
}

struct McOutcome {
    reference_samples_per_sec: f64,
    batched_samples_per_sec: f64,
    speedup: f64,
    identical: bool,
}

fn bench_mc(quick: bool) -> McOutcome {
    let design = LevelDesign::four_level_naive();
    let times = [32.0, 1024.0, 32_768.0, 1.0e6, 1.0e8];
    let samples: u64 = if quick { 20_000 } else { 400_000 };
    let est = MonteCarloCer::new(samples, 20_260_808).with_threads(2);

    let t0 = Instant::now();
    let reference = est.estimate_reference(&design, &times);
    let ref_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let batched = est.estimate(&design, &times);
    let batched_secs = t1.elapsed().as_secs_f64();

    let mut identical = true;
    for (pr, pb) in reference.points.iter().zip(&batched.points) {
        for (s, (a, b)) in pr.per_state.iter().zip(&pb.per_state).enumerate() {
            if a.hits != b.hits {
                eprintln!(
                    "MC DIVERGENCE: t={} state {s}: reference {} hits vs batched {}",
                    pr.t_secs, a.hits, b.hits
                );
                identical = false;
            }
        }
    }

    let drawn = (samples * design.n_levels() as u64) as f64;
    McOutcome {
        reference_samples_per_sec: drawn / ref_secs,
        batched_samples_per_sec: drawn / batched_secs,
        speedup: ref_secs / batched_secs,
        identical,
    }
}

/// One new-path-vs-oracle comparison of a datapath kernel.
struct Kernel {
    reference_ns: f64,
    fast_ns: f64,
    identical: bool,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.fast_ns
    }

    fn json(&self) -> String {
        format!(
            "{{\"reference_ns\":{:.2},\"fast_ns\":{:.2},\"speedup\":{:.3},\"identical\":{}}}",
            self.reference_ns,
            self.fast_ns,
            self.speedup(),
            self.identical
        )
    }
}

/// Residue-table `Bch::encode` against `Bch::encode_reference` on the
/// same `data_bits`-bit messages; times are ns per message.
fn bench_encode(t: usize, data_bits: usize, quick: bool) -> Kernel {
    let bch = Bch::new(10, t);
    let messages: Vec<BitVec> = (0..if quick { 64 } else { 512 })
        .map(|i| pseudo_data(data_bits, 1000 + i))
        .collect();
    let reps = if quick { 2 } else { 8 };
    let t0 = Instant::now();
    let mut reference = Vec::new();
    for _ in 0..reps {
        reference = messages.iter().map(|d| bch.encode_reference(d)).collect();
    }
    let ref_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut table = Vec::new();
    for _ in 0..reps {
        table = messages.iter().map(|d| bch.encode(d)).collect();
    }
    let fast_secs = t1.elapsed().as_secs_f64();
    let identical = reference == table;
    if !identical {
        eprintln!("DATAPATH DIVERGENCE: BCH-{t} table encode differs from long division");
    }
    let per = 1e9 / (messages.len() * reps) as f64;
    Kernel {
        reference_ns: ref_secs * per,
        fast_ns: fast_secs * per,
        identical,
    }
}

/// `CellArray::sense_block` against per-cell `CellArray::sense` over
/// written 3LC blocks (some cells worn out) a day after the write; times
/// are ns per cell.
fn bench_sense(quick: bool) -> Kernel {
    let blocks = if quick { 16 } else { 256 };
    let design = LevelDesign::three_level_naive();
    let slc = LevelDesign::two_level();
    let mut array = CellArray::new(blocks * THREE_LEVEL_BLOCK_CELLS, EnduranceModel::mlc(), 13);
    for c in (0..array.len()).step_by(97) {
        array.set_lifetime(c, 1);
    }
    for b in 0..blocks {
        let mut block = ThreeLevelBlock::new(design.clone(), b * THREE_LEVEL_BLOCK_CELLS);
        let payload: Vec<u8> = (0..64).map(|i| (i * 29 + b * 7) as u8).collect();
        // A block with more worn pairs than spares stays as written.
        let _ = block.write(&mut array, 0.0, &payload);
    }
    let now = 86_400.0;
    let reps = if quick { 2 } else { 16 };
    let regions = |b: usize| {
        let base = b * THREE_LEVEL_BLOCK_CELLS;
        [
            (base, TEC_CELLS, &design),
            (base + TEC_CELLS, TEC_CHECK_BITS, &slc),
        ]
    };
    let t0 = Instant::now();
    let mut per_cell = Vec::new();
    for _ in 0..reps {
        per_cell.clear();
        for b in 0..blocks {
            for (base, n, d) in regions(b) {
                per_cell.extend((base..base + n).map(|c| array.sense(c, d, now)));
            }
        }
    }
    let ref_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut block = vec![0usize; blocks * THREE_LEVEL_BLOCK_CELLS];
    for _ in 0..reps {
        for b in 0..blocks {
            for (base, n, d) in regions(b) {
                array.sense_block(base, d, now, &mut block[base..base + n]);
            }
        }
    }
    let fast_secs = t1.elapsed().as_secs_f64();
    let identical = per_cell == block;
    if !identical {
        eprintln!("DATAPATH DIVERGENCE: block sense differs from per-cell sense");
    }
    let per = 1e9 / (array.len() * reps) as f64;
    Kernel {
        reference_ns: ref_secs * per,
        fast_ns: fast_secs * per,
        identical,
    }
}

/// `NormalStream` against `Xoshiro256pp::next_normal` on the same seed;
/// times are ns per normal. Identical means every value has the same bits
/// and the generators agree after the stream's final `rng()`.
fn bench_normals(quick: bool) -> Kernel {
    let n = if quick { 1 << 16 } else { 1 << 22 };
    let seed = 20_130_817;
    let mut bare = Xoshiro256pp::seed_from_u64(seed);
    let mut reference = Vec::with_capacity(n);
    let t0 = Instant::now();
    for _ in 0..n {
        reference.push(bare.next_normal());
    }
    let ref_secs = t0.elapsed().as_secs_f64();
    let mut stream = NormalStream::new(Xoshiro256pp::seed_from_u64(seed));
    let mut batched = Vec::with_capacity(n);
    let t1 = Instant::now();
    for _ in 0..n {
        batched.push(stream.next_normal());
    }
    let fast_secs = t1.elapsed().as_secs_f64();
    let same_bits = reference
        .iter()
        .zip(&batched)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let identical = same_bits && *stream.rng() == bare;
    if !identical {
        eprintln!("DATAPATH DIVERGENCE: NormalStream differs from Xoshiro256pp::next_normal");
    }
    let per = 1e9 / n as f64;
    Kernel {
        reference_ns: ref_secs * per,
        fast_ns: fast_secs * per,
        identical,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "math_kernels: BCH-10/512 batch decode + MC CER sampler + datapath kernels ({} mode)",
        if args.quick { "quick" } else { "full" }
    );

    let bch = bench_bch(args.quick, args.inject_divergence);
    println!(
        "  bch: scalar {:.0} cw/s | sliced {:.0} cw/s | {:.2}x | identical: {}",
        bch.scalar_cw_per_sec, bch.sliced_cw_per_sec, bch.speedup, bch.identical
    );
    let mc = bench_mc(args.quick);
    println!(
        "  mc:  reference {:.0} samples/s | batched {:.0} samples/s | {:.2}x | identical: {}",
        mc.reference_samples_per_sec, mc.batched_samples_per_sec, mc.speedup, mc.identical
    );

    let bch1 = bench_encode(1, 708, args.quick);
    let bch10 = bench_encode(10, 512, args.quick);
    let sense = bench_sense(args.quick);
    let normals = bench_normals(args.quick);
    for (name, k, unit) in [
        ("bch1 encode", &bch1, "msg"),
        ("bch10 encode", &bch10, "msg"),
        ("sense", &sense, "cell"),
        ("normals", &normals, "normal"),
    ] {
        println!(
            "  {name}: reference {:.1} ns/{unit} | fast {:.1} ns/{unit} | {:.2}x | identical: {}",
            k.reference_ns,
            k.fast_ns,
            k.speedup(),
            k.identical
        );
    }

    let doc = format!(
        "{{\n  \"bench\": \"math_kernels\",\n  \"quick\": {},\n  \"bch\": {{\"scalar_codewords_per_sec\":{:.1},\
         \"sliced_codewords_per_sec\":{:.1},\"speedup\":{:.3},\"identical\":{}}},\n  \
         \"mc\": {{\"reference_samples_per_sec\":{:.1},\"batched_samples_per_sec\":{:.1},\
         \"speedup\":{:.3},\"identical\":{}}},\n  \
         \"datapath\": {{\"bch1_encode\":{},\"bch10_encode\":{},\"sense\":{},\"normals\":{}}}\n}}\n",
        args.quick,
        bch.scalar_cw_per_sec,
        bch.sliced_cw_per_sec,
        bch.speedup,
        bch.identical,
        mc.reference_samples_per_sec,
        mc.batched_samples_per_sec,
        mc.speedup,
        mc.identical,
        bch1.json(),
        bch10.json(),
        sense.json(),
        normals.json()
    );
    std::fs::write(&args.out, &doc).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);

    let datapath_identical =
        bch1.identical && bch10.identical && sense.identical && normals.identical;
    if !bch.identical || !mc.identical || !datapath_identical {
        eprintln!("RESULT DIVERGENCE: scalar and batched kernels disagree");
        std::process::exit(1);
    }
}
