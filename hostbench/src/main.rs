//! `hostbench` — how fast the mlc-pcm stack runs on the host.
//!
//! ```text
//! hostbench --workload kv_update|kv_read_scrub|paper_repro --seed N
//!           --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it repeats the workload with tracing on (the
//! benchmark's own spans plus the store's in-program trace), replays the
//! workload's pages layer by layer, and reports the per-layer metrics.
//! Human-readable lines go first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The exit status is nonzero when a correctness gate fails (after the
//! JSON line) or when the arguments are unusable (with no JSON line).
//! `--tiny` shrinks every size for the smoke test. See `README.md`.

mod clock;
mod kv;
mod replay;
mod repro;
mod spans;
mod stats;

use std::fmt::Display;

/// KV client threads, and Monte-Carlo workers in the set-up check: the
/// benchmark host has two cores, and thread counts are set here rather
/// than taken from the machine.
pub const THREADS: usize = 2;

/// Full setups timed per `--trace 0` run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Where the traced run writes its span JSONL, relative to the working
/// directory.
pub const SPAN_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, host seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
    })
}

/// One reported number.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Correctness bookkeeping: every operation and cross-check attempted,
/// and every one that failed.
#[derive(Default)]
pub struct Gates {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Store errors, read mismatches, scrub failures and failed checks.
    pub failed: u64,
}

impl Gates {
    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Count one cross-check; report it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: check failed: {what}");
        }
    }
}

/// The end-to-end metrics (`--trace 0`), untraced, in host CPU time
/// (see `clock`). Request kinds 1 and 2 are get and put on the KV
/// workloads, and a Monte-Carlo sweep and a Figure-16 matrix on
/// `paper_repro`.
pub struct EndToEnd {
    /// Requests completed per CPU second of the measured window.
    pub ops_per_cpu_s: f64,
    /// CPU time of each request of kind 1, in completion order, ns.
    pub op1_cpu_ns: Vec<u64>,
    /// CPU time of each request of kind 2, in completion order, ns.
    pub op2_cpu_ns: Vec<u64>,
    /// Median CPU time of a set-up, all threads, s.
    pub setup_s: f64,
}

impl EndToEnd {
    fn metrics(&self, gates: &mut Gates) -> Vec<Metric> {
        let us = |v: &[u64], q: f64| stats::sliced_quantile(v, q).unwrap_or(0.0) / 1e3;
        let rss = stats::peak_rss_mib();
        gates.check(rss.is_some(), "peak RSS readable from /proc/self/status");
        vec![
            Metric {
                name: "ops_per_cpu_s",
                value: self.ops_per_cpu_s,
                unit: "1/s",
            },
            Metric {
                name: "op1_cpu_p50_us",
                value: us(&self.op1_cpu_ns, 0.50),
                unit: "us",
            },
            Metric {
                name: "op1_cpu_p90_us",
                value: us(&self.op1_cpu_ns, 0.90),
                unit: "us",
            },
            Metric {
                name: "op2_cpu_p50_us",
                value: us(&self.op2_cpu_ns, 0.50),
                unit: "us",
            },
            Metric {
                name: "op2_cpu_p90_us",
                value: us(&self.op2_cpu_ns, 0.90),
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: rss.unwrap_or(0.0),
                unit: "MiB",
            },
        ]
    }
}

/// Print one latency population (completion order) with its sample
/// count: exact percentiles of the whole run, then the sliced ones (the
/// metrics report sliced p50 and p90).
pub fn print_latency(label: &str, in_order: &[u64]) {
    let mut sorted = in_order.to_vec();
    sorted.sort_unstable();
    let us = |q: f64| stats::quantile(&sorted, q).unwrap_or(0) as f64 / 1e3;
    let sliced = |q: f64| stats::sliced_quantile(in_order, q).unwrap_or(0.0) / 1e3;
    let note = if sorted.len() < 1000 {
        " (under 1000 samples: p99 has fewer than 10 beyond it)"
    } else {
        ""
    };
    println!(
        "  {label}: n={} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us | sliced p50={:.1}us p90={:.1}us p99={:.1}us{note}",
        sorted.len(),
        us(0.5),
        us(0.9),
        us(0.99),
        us(1.0),
        sliced(0.5),
        sliced(0.9),
        sliced(0.99)
    );
}

/// The per-layer metrics (`--trace 1`). Times are CPU time; a layer the
/// workload does not exercise reports 0.
#[derive(Default)]
pub struct Layers {
    pub cell_program_ns_per_cell: f64,
    pub cell_program_attempts_per_cell: f64,
    pub cell_sense_ns_per_cell: f64,
    pub codec_encode_ns_per_block: f64,
    pub codec_decode_ns_per_block: f64,
    pub ecc_encode_ns_per_block: f64,
    pub ecc_decode_ns_per_block: f64,
    pub ecc_corrected_bits_per_read: f64,
    pub block_write_us: f64,
    pub block_read_us: f64,
    pub bank_refresh_us: f64,
    pub device_write_us: f64,
    pub device_read_us: f64,
    pub device_overhead_us: f64,
    pub store_reads_per_get: f64,
    pub store_index_reads_per_get: f64,
    pub store_reads_per_put: f64,
    pub store_writes_per_put: f64,
    pub store_get_cpu_p50_us: f64,
    pub store_put_cpu_p50_us: f64,
    pub store_get_self_us: f64,
    pub store_put_self_us: f64,
    pub store_off_cpu_pct: f64,
    pub scrub_pass_ms: f64,
    pub scrub_blocks_per_s: f64,
    pub scrub_corrected_bits_per_pass: f64,
    pub scrub_failures: f64,
    pub cer_mc_ns_per_cell: f64,
    pub sim_ns_per_instr: f64,
    pub trace_overhead_pct: f64,
    pub model_media_ns_per_op: f64,
    pub model_ecc_ns_per_op: f64,
    pub model_alloc_index_ns_per_op: f64,
    pub model_scrub_wait_ns_per_op: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "cell.program_ns_per_cell",
                self.cell_program_ns_per_cell,
                "ns/cell",
            ),
            m(
                "cell.program_attempts_per_cell",
                self.cell_program_attempts_per_cell,
                "count",
            ),
            m(
                "cell.sense_ns_per_cell",
                self.cell_sense_ns_per_cell,
                "ns/cell",
            ),
            m(
                "codec.encode_ns_per_block",
                self.codec_encode_ns_per_block,
                "ns/block",
            ),
            m(
                "codec.decode_ns_per_block",
                self.codec_decode_ns_per_block,
                "ns/block",
            ),
            m(
                "ecc.encode_ns_per_block",
                self.ecc_encode_ns_per_block,
                "ns/block",
            ),
            m(
                "ecc.decode_ns_per_block",
                self.ecc_decode_ns_per_block,
                "ns/block",
            ),
            m(
                "ecc.corrected_bits_per_read",
                self.ecc_corrected_bits_per_read,
                "count",
            ),
            m("block.write_us", self.block_write_us, "us"),
            m("block.read_us", self.block_read_us, "us"),
            m("bank.refresh_us", self.bank_refresh_us, "us"),
            m("device.write_us", self.device_write_us, "us"),
            m("device.read_us", self.device_read_us, "us"),
            m("device.overhead_us", self.device_overhead_us, "us"),
            m("store.reads_per_get", self.store_reads_per_get, "count"),
            m(
                "store.index_reads_per_get",
                self.store_index_reads_per_get,
                "count",
            ),
            m("store.reads_per_put", self.store_reads_per_put, "count"),
            m("store.writes_per_put", self.store_writes_per_put, "count"),
            m("store.get_cpu_p50_us", self.store_get_cpu_p50_us, "us"),
            m("store.put_cpu_p50_us", self.store_put_cpu_p50_us, "us"),
            m("store.get_self_us", self.store_get_self_us, "us"),
            m("store.put_self_us", self.store_put_self_us, "us"),
            m("store.off_cpu_pct", self.store_off_cpu_pct, "%"),
            m("scrub.pass_ms", self.scrub_pass_ms, "ms"),
            m("scrub.blocks_per_s", self.scrub_blocks_per_s, "1/s"),
            m(
                "scrub.corrected_bits_per_pass",
                self.scrub_corrected_bits_per_pass,
                "count",
            ),
            m("scrub.failures", self.scrub_failures, "count"),
            m("cer.mc_ns_per_cell", self.cer_mc_ns_per_cell, "ns/cell"),
            m("sim.ns_per_instr", self.sim_ns_per_instr, "ns/instr"),
            m("trace.overhead_pct", self.trace_overhead_pct, "%"),
            m(
                "model.media_ns_per_op",
                self.model_media_ns_per_op,
                "model_ns",
            ),
            m("model.ecc_ns_per_op", self.model_ecc_ns_per_op, "model_ns"),
            m(
                "model.alloc_index_ns_per_op",
                self.model_alloc_index_ns_per_op,
                "model_ns",
            ),
            m(
                "model.scrub_wait_ns_per_op",
                self.model_scrub_wait_ns_per_op,
                "model_ns",
            ),
        ]
    }
}

/// Percent by which the traced rate falls short of the untraced one.
pub fn overhead_pct(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    stats::ratio(untraced_per_s - traced_per_s, untraced_per_s) * 100.0
}

fn json_line(gates: &Gates, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gates.failed == 0,
        gates.attempted.max(1),
        gates.failed,
        body.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        eprintln!(
            "usage: hostbench --workload kv_update|kv_read_scrub|paper_repro \
             --seed N --seconds S --trace 0|1 [--tiny]"
        );
        std::process::exit(2);
    });
    println!(
        "hostbench: workload {} | seed {} | {} s | trace {} | {} threads (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut gates = Gates::default();
    let ticks_before = stats::cpu_ticks();
    let metrics = match (args.workload.as_str(), args.trace) {
        ("kv_update" | "kv_read_scrub", false) => {
            kv::end_to_end(&kv::spec(&args), &args, &mut gates).metrics(&mut gates)
        }
        ("kv_update" | "kv_read_scrub", true) => {
            kv::per_layer(&kv::spec(&args), &args, &mut gates).metrics()
        }
        ("paper_repro", false) => repro::end_to_end(&args, &mut gates).metrics(&mut gates),
        ("paper_repro", true) => repro::per_layer(&args, &mut gates).metrics(),
        (other, _) => {
            eprintln!(
                "hostbench: unknown workload {other} (kv_update, kv_read_scrub, paper_repro)"
            );
            std::process::exit(2);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, stats::cpu_ticks()) {
        println!(
            "  host steal: {:.1}% of CPU time during this run (in the wall-clock figures, not the CPU ones)",
            stats::ratio((s1 - s0) as f64, (t1 - t0) as f64) * 100.0
        );
    }
    for m in &metrics {
        gates.check(m.value.is_finite(), format_args!("{} is finite", m.name));
    }
    println!(
        "  failed_op_ratio: {} of {} ({})",
        gates.failed,
        gates.attempted,
        stats::ratio(gates.failed as f64, gates.attempted as f64)
    );
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!("{}", json_line(&gates, &metrics));
    if gates.failed > 0 {
        std::process::exit(1);
    }
}
