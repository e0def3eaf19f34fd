//! `verify_bench` — scalar replay vs. bit-parallel batch simulation
//! throughput on the reversible arithmetic blocks, i.e. the two engines
//! behind `qda_rev::equiv::verify_computes`.
//!
//! Each workload replays the same random input set through the same
//! circuit with both engines (folding every line's final value — results
//! and ancillae included — into a checksum that must agree bit-exactly)
//! and reports states/sec and gates·states/sec.
//! Results go to `BENCH_verify.json`: one row per (block, engine) with
//! the usual cost fields plus `states_per_sec`.
//!
//! Default sweep: three blocks × 2^16 states; `--quick` shrinks to one
//! block × 2^13 (CI smoke), `--full` extends to five blocks × 2^19.

use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, splitmix};
use qda_core::report::Table;
use qda_rev::batchsim::{BatchState, CompiledCascade, BATCH_STATES};
use qda_rev::blocks::{cuccaro_add, less_than, multiply_add};
use qda_rev::circuit::Circuit;
use qda_rev::state::BitState;
use std::time::Instant;

/// One throughput workload: a circuit plus its input registers.
struct Workload {
    name: &'static str,
    n: usize,
    circuit: Circuit,
    regs: Vec<Vec<usize>>,
}

impl Workload {
    /// Every circuit line, chunked into ≤64-line read registers: the
    /// checksums cover result and ancilla lines too, not just the input
    /// registers, so any engine divergence is visible.
    fn checksum_regs(&self) -> Vec<Vec<usize>> {
        let all: Vec<usize> = (0..self.circuit.num_lines()).collect();
        all.chunks(64).map(<[usize]>::to_vec).collect()
    }
}

fn adder(w: usize) -> Workload {
    let a: Vec<usize> = (0..w).collect();
    let b: Vec<usize> = (w..2 * w).collect();
    let mut circuit = Circuit::new(2 * w + 2);
    cuccaro_add(&mut circuit, &a, &b, 2 * w, Some(2 * w + 1), None);
    Workload {
        name: "CUCCARO-ADD",
        n: w,
        circuit,
        regs: vec![a, b],
    }
}

fn comparator(w: usize) -> Workload {
    let a: Vec<usize> = (0..w).collect();
    let b: Vec<usize> = (w..2 * w).collect();
    let mut circuit = Circuit::new(2 * w + 2);
    less_than(&mut circuit, &a, &b, 2 * w, 2 * w + 1);
    Workload {
        name: "LESS-THAN",
        n: w,
        circuit,
        regs: vec![a, b],
    }
}

fn multiplier(w: usize) -> Workload {
    let a: Vec<usize> = (0..w).collect();
    let b: Vec<usize> = (w..2 * w).collect();
    let out: Vec<usize> = (2 * w..4 * w).collect();
    let mut circuit = Circuit::new(4 * w + 1);
    multiply_add(&mut circuit, &a, &b, &out, 4 * w);
    Workload {
        name: "MULT",
        n: w,
        circuit,
        regs: vec![a, b],
    }
}

/// Folds one state's register outputs into a running checksum (same
/// order for both engines, so the sums must agree bit-exactly).
fn fold(checksum: u64, value: u64) -> u64 {
    checksum.rotate_left(7) ^ value
}

/// Replays `inputs` (one value stream per register) one state and one
/// gate at a time. Returns (checksum, seconds).
fn run_scalar(w: &Workload, inputs: &[Vec<u64>]) -> (u64, f64) {
    let states = inputs[0].len();
    let out_regs = w.checksum_regs();
    let start = Instant::now();
    let mut checksum = 0u64;
    for k in 0..states {
        let mut s = BitState::zeros(w.circuit.num_lines());
        for (reg, vals) in w.regs.iter().zip(inputs) {
            s.write_register(reg, vals[k]);
        }
        w.circuit.apply(&mut s);
        for reg in &out_regs {
            checksum = fold(checksum, s.read_register(reg));
        }
    }
    (checksum, start.elapsed().as_secs_f64())
}

/// Replays the same inputs through the transposed bit-parallel engine in
/// [`BATCH_STATES`]-state batches, compiling the circuit once (inside the
/// timed region) as the verification sweeps do. Returns (checksum,
/// seconds).
fn run_batch(w: &Workload, inputs: &[Vec<u64>]) -> (u64, f64) {
    let states = inputs[0].len();
    let out_regs = w.checksum_regs();
    let start = Instant::now();
    let cascade = CompiledCascade::new(w.circuit.packed());
    let mut checksum = 0u64;
    let mut base = 0;
    while base < states {
        let end = (base + BATCH_STATES).min(states);
        let mut s = BatchState::zeros(w.circuit.num_lines(), end - base);
        for (reg, vals) in w.regs.iter().zip(inputs) {
            s.load_register(reg, &vals[base..end]);
        }
        cascade.apply(&mut s);
        let outs: Vec<Vec<u64>> = out_regs.iter().map(|reg| s.read_register(reg)).collect();
        for k in 0..end - base {
            for out in &outs {
                checksum = fold(checksum, out[k]);
            }
        }
        base = end;
    }
    (checksum, start.elapsed().as_secs_f64())
}

fn main() {
    let args = parse_args();
    let states = args.sweep(1 << 13, 1 << 16, 1 << 19) as u64;
    let mut workloads = vec![adder(24)];
    if !args.quick {
        workloads.push(comparator(24));
        workloads.push(multiplier(8));
    }
    if args.full {
        workloads.push(adder(48));
        workloads.push(multiplier(12));
    }

    let mut results = BenchResults::new("verify");
    let mut table = Table::new(
        "VERIFY BENCH — scalar replay vs bit-parallel batch simulation",
        vec![
            "block",
            "qubits",
            "gates",
            "states",
            "scalar states/s",
            "batch states/s",
            "speedup",
        ],
    );
    let mut seed = 0xC0FFEE;
    for w in &workloads {
        let inputs: Vec<Vec<u64>> = w
            .regs
            .iter()
            .map(|reg| {
                let mask = if reg.len() == 64 {
                    u64::MAX
                } else {
                    (1u64 << reg.len()) - 1
                };
                (0..states).map(|_| splitmix(&mut seed) & mask).collect()
            })
            .collect();
        let (scalar_sum, scalar_s) = run_scalar(w, &inputs);
        let (batch_sum, batch_s) = run_batch(w, &inputs);
        assert_eq!(
            scalar_sum, batch_sum,
            "{}({}): batch simulation diverged from scalar replay",
            w.name, w.n
        );
        let qubits = w.circuit.num_lines();
        let gates = w.circuit.num_gates();
        let scalar_rate = states as f64 / scalar_s.max(f64::EPSILON);
        let batch_rate = states as f64 / batch_s.max(f64::EPSILON);
        results.push(BenchRow::from_throughput(
            w.name,
            w.n,
            "scalar replay",
            qubits,
            gates,
            states,
            scalar_s,
        ));
        results.push(BenchRow::from_throughput(
            w.name,
            w.n,
            "batch (64-way)",
            qubits,
            gates,
            states,
            batch_s,
        ));
        table.add_row(vec![
            format!("{}({})", w.name, w.n),
            qubits.to_string(),
            gates.to_string(),
            states.to_string(),
            format!("{:.3e}", scalar_rate),
            format!("{:.3e}", batch_rate),
            format!("{:.1}x", batch_rate / scalar_rate),
        ]);
        eprintln!("done {}({})", w.name, w.n);
    }
    println!("{table}");
    emit_results(&results);
    println!("gates·states/sec = states/sec × gates; both engines fold identical checksums");
}
