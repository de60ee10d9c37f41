//! Gate-level prefix-OR networks (Figure 13).
//!
//! Mark-and-spare's correction stages derive their MUX select signals from
//! a chain of ORs over the INV flags (Figure 12). A naive chain is
//! `O(n)` gate levels deep — 177 levels for a 64B block's 171 data + 6
//! spare pairs — so the paper applies parallel-prefix structures from
//! adder design: Sklansky \[30\] (minimum depth, `ceil(log2 n)`) and
//! Kogge–Stone \[20\] (minimum depth *and* fanout, at more gates).
//!
//! The networks here are real gate lists, evaluated and depth-analyzed by
//! a small combinational simulator, so the Figure 13 comparison (delay and
//! gate count) is measured, not asserted.

/// One 2-input OR gate; inputs refer to earlier nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// First input node.
    pub a: usize,
    /// Second input node.
    pub b: usize,
}

/// A combinational prefix-OR network over `n` inputs.
///
/// Node numbering: nodes `0..n` are the primary inputs; node `n + g` is
/// the output of gate `g`. `outputs[i]` is the node computing
/// `a_0 | a_1 | … | a_i`.
#[derive(Debug, Clone)]
pub struct PrefixOrNetwork {
    /// Number of primary inputs.
    pub n: usize,
    /// Gate list in topological order.
    pub gates: Vec<Gate>,
    /// Node index of each prefix output.
    pub outputs: Vec<usize>,
    /// Human-readable topology name.
    pub name: &'static str,
}

impl PrefixOrNetwork {
    /// The naive ripple chain of Figure 13(a): `S_k = S_{k-1} | a_k`.
    pub fn ripple(n: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: an OR chain needs at least one cell
        assert!(n >= 1);
        let mut gates = Vec::with_capacity(n.saturating_sub(1));
        let mut outputs = Vec::with_capacity(n);
        outputs.push(0);
        for k in 1..n {
            let prev = outputs[k - 1];
            gates.push(Gate { a: prev, b: k });
            outputs.push(n + gates.len() - 1);
        }
        Self {
            n,
            gates,
            outputs,
            name: "ripple",
        }
    }

    /// Sklansky's divide-and-conquer prefix tree, Figure 13(b): minimal
    /// depth `ceil(log2 n)`, gate count `Σ_d (n / 2^d) * 2^(d-1)`-ish, but
    /// with high fanout on the spine nodes.
    pub fn sklansky(n: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: an OR chain needs at least one cell
        assert!(n >= 1);
        let mut gates = Vec::new();
        // prefix[i] = node currently holding OR of a block ending at i.
        let mut prefix: Vec<usize> = (0..n).collect();
        let mut span = 1usize;
        while span < n {
            // Merge pairs of adjacent spans: for each block whose low half
            // is complete, OR the low half's top prefix into every
            // position of the high half.
            let mut i = 0;
            while i < n {
                let low_top = i + span - 1;
                if low_top >= n {
                    break;
                }
                let carry = prefix[low_top];
                let hi_end = (i + 2 * span).min(n);
                for p in prefix[(i + span)..hi_end].iter_mut() {
                    gates.push(Gate { a: carry, b: *p });
                    *p = n + gates.len() - 1;
                }
                i += 2 * span;
            }
            span *= 2;
        }
        Self {
            n,
            gates,
            outputs: prefix,
            name: "sklansky",
        }
    }

    /// Kogge–Stone: `log2 n` levels, distance-doubling ORs, bounded
    /// fanout, `n·log2(n) − n + 1`-ish gates.
    pub fn kogge_stone(n: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: an OR chain needs at least one cell
        assert!(n >= 1);
        let mut gates = Vec::new();
        let mut prefix: Vec<usize> = (0..n).collect();
        let mut dist = 1usize;
        while dist < n {
            let snapshot = prefix.clone();
            for j in dist..n {
                gates.push(Gate {
                    a: snapshot[j - dist],
                    b: snapshot[j],
                });
                prefix[j] = n + gates.len() - 1;
            }
            dist *= 2;
        }
        Self {
            n,
            gates,
            outputs: prefix,
            name: "kogge-stone",
        }
    }

    /// Evaluate the network on concrete inputs; returns all prefix ORs.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        // pcm-lint: allow(no-panic-lib) — shape contract: one input per network lane
        assert_eq!(inputs.len(), self.n);
        let mut values = Vec::with_capacity(self.n + self.gates.len());
        values.extend_from_slice(inputs);
        for g in &self.gates {
            let v = values[g.a] | values[g.b];
            values.push(v);
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }

    /// Critical-path depth in gate levels (0 for pass-through outputs).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.n + self.gates.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            depth[self.n + gi] = 1 + depth[g.a].max(depth[g.b]);
        }
        self.outputs.iter().map(|&o| depth[o]).max().unwrap_or(0)
    }

    /// Total OR2 gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Maximum fanout over all nodes (inputs and gate outputs).
    pub fn max_fanout(&self) -> usize {
        let mut fanout = vec![0usize; self.n + self.gates.len()];
        for g in &self.gates {
            fanout[g.a] += 1;
            fanout[g.b] += 1;
        }
        fanout.into_iter().max().unwrap_or(0)
    }
}

/// Figure 13's block size: INV flags for 171 data pairs + 6 spare pairs.
pub const BLOCK_FLAGS: usize = 177;

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_prefix(inputs: &[bool]) -> Vec<bool> {
        let mut acc = false;
        inputs
            .iter()
            .map(|&b| {
                acc |= b;
                acc
            })
            .collect()
    }

    fn pseudo_inputs(n: usize, seed: u64) -> Vec<bool> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 3 == 0
            })
            .collect()
    }

    #[test]
    fn all_topologies_compute_prefix_or() {
        for n in [1usize, 2, 3, 7, 16, 64, 177] {
            let inputs = pseudo_inputs(n, n as u64);
            let expect = reference_prefix(&inputs);
            for net in [
                PrefixOrNetwork::ripple(n),
                PrefixOrNetwork::sklansky(n),
                PrefixOrNetwork::kogge_stone(n),
            ] {
                assert_eq!(net.evaluate(&inputs), expect, "{} n={n}", net.name);
            }
        }
    }

    #[test]
    fn figure13_depths() {
        // Ripple: n−1 levels ("the OR-gate chain length can be 177 gates");
        // Sklansky / Kogge–Stone: ceil(log2 n) = 8 for n = 177.
        assert_eq!(PrefixOrNetwork::ripple(BLOCK_FLAGS).depth(), 176);
        assert_eq!(PrefixOrNetwork::sklansky(BLOCK_FLAGS).depth(), 8);
        assert_eq!(PrefixOrNetwork::kogge_stone(BLOCK_FLAGS).depth(), 8);
    }

    #[test]
    fn figure13b_16_input_example() {
        // The paper's drawn example: a 16-input Sklansky tree, 4 levels.
        let net = PrefixOrNetwork::sklansky(16);
        assert_eq!(net.depth(), 4);
        assert_eq!(net.gate_count(), 32); // 16/2 * log2(16)
        let ks = PrefixOrNetwork::kogge_stone(16);
        assert_eq!(ks.depth(), 4);
        assert_eq!(ks.gate_count(), 49); // n·log2 n − n + 1
    }

    #[test]
    fn gate_count_ordering() {
        // ripple < sklansky < kogge-stone in gates; the reverse in depth.
        let n = BLOCK_FLAGS;
        let r = PrefixOrNetwork::ripple(n);
        let s = PrefixOrNetwork::sklansky(n);
        let k = PrefixOrNetwork::kogge_stone(n);
        assert!(r.gate_count() < s.gate_count());
        assert!(s.gate_count() < k.gate_count());
        assert!(r.depth() > s.depth());
    }

    #[test]
    fn kogge_stone_fanout_bounded() {
        // Kogge–Stone bounds fanout to 2 per level (≤ log2 n total over
        // all levels); Sklansky's spine nodes fan out to O(n) in a single
        // level.
        let s = PrefixOrNetwork::sklansky(128);
        let k = PrefixOrNetwork::kogge_stone(128);
        assert!(k.max_fanout() <= 8, "KS fanout {}", k.max_fanout());
        assert!(
            s.max_fanout() >= 32,
            "Sklansky spine fanout {}",
            s.max_fanout()
        );
    }

    #[test]
    fn single_input_degenerate() {
        let net = PrefixOrNetwork::sklansky(1);
        assert_eq!(net.depth(), 0);
        assert_eq!(net.gate_count(), 0);
        assert_eq!(net.evaluate(&[true]), vec![true]);
    }
}
