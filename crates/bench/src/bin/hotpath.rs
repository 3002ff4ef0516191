//! Micro-timing of the attack's hot components (baseline tree).

use relock_bench::{prepare, Arch, Scale};
use relock_locking::{CountingOracle, Oracle};
use relock_tensor::rng::Prng;
use relock_tensor::{compute, GemmBackend};
use std::time::Instant;

fn main() {
    let p = prepare(Arch::Mlp, 16, Scale::Fast, 42);
    let g = p.model.white_box();
    let keys = p.model.true_key().to_assignment();
    let mut rng = Prng::seed_from_u64(7);

    // 1. forward+backward on a learning-size batch.
    let xb = rng.normal_tensor([64, g.input_size()]);
    let grad = rng.normal_tensor([64, g.output_size()]);
    let t = Instant::now();
    for _ in 0..2000 {
        let acts = g.forward(&xb, &keys);
        let grads = g.backward(&acts, &grad, &keys);
        std::hint::black_box(&grads);
    }
    println!(
        "fwd+bwd b=64      {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 2000.0
    );

    // 2. forward only, line-search-size batch.
    let xs = rng.normal_tensor([25, g.input_size()]);
    let t = Instant::now();
    for _ in 0..20000 {
        std::hint::black_box(g.logits_batch(&xs, &keys));
    }
    println!(
        "logits b=25       {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 20000.0
    );

    // 3. oracle query path (pool + clone in new tree).
    let oracle = CountingOracle::new(&p.model);
    let t = Instant::now();
    for _ in 0..20000 {
        std::hint::black_box(oracle.query_batch(&xs));
    }
    println!(
        "oracle b=25       {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 20000.0
    );

    // 4. single-sample logits (critical-point probes).
    let x1 = rng.normal_tensor([g.input_size()]);
    let t = Instant::now();
    for _ in 0..50000 {
        std::hint::black_box(g.logits(&x1, &keys));
    }
    println!(
        "logits b=1        {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 50000.0
    );

    // 5. planned paths with a reused workspace (what the loops run).
    let mut ws = relock_graph::Workspace::new();
    let t = Instant::now();
    for _ in 0..2000 {
        g.forward_into(&mut ws, &xb, &keys);
        let grads = g.backward_into(&mut ws, &grad, &keys, false);
        std::hint::black_box(&grads);
    }
    println!(
        "fwd+bwd_into k-only {:6.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 2000.0
    );
    let t = Instant::now();
    for _ in 0..2000 {
        g.forward_into(&mut ws, &xb, &keys);
        let grads = g.backward_into(&mut ws, &grad, &keys, true);
        std::hint::black_box(&grads);
    }
    println!(
        "fwd+bwd_into full {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 2000.0
    );
    let t = Instant::now();
    for _ in 0..20000 {
        std::hint::black_box(g.logits_batch_into(&mut ws, &xs, &keys));
    }
    println!(
        "logits_into b=25  {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 20000.0
    );
    let t = Instant::now();
    for _ in 0..50000 {
        std::hint::black_box(g.logits_batch_into(&mut ws, &x1, &keys));
    }
    println!(
        "logits_into b=1   {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 50000.0
    );

    // 5b. learning-step shapes: batch 24 forward / forward+backward.
    let xb24 = rng.normal_tensor([24, g.input_size()]);
    let grad24 = rng.normal_tensor([24, g.output_size()]);
    let t = Instant::now();
    for _ in 0..20000 {
        g.forward_into(&mut ws, &xb24, &keys);
        std::hint::black_box(ws.value(g.output_id()));
    }
    println!(
        "fwd_into b=24     {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 20000.0
    );
    let t = Instant::now();
    for _ in 0..20000 {
        g.forward_into(&mut ws, &xb24, &keys);
        let grads = g.backward_into(&mut ws, &grad24, &keys, false);
        std::hint::black_box(&grads);
    }
    println!(
        "fwd+bwd b=24 k-o  {:8.2} us/iter",
        t.elapsed().as_secs_f64() * 1e6 / 20000.0
    );

    // 6. raw gemm kernels at the attack's layer shapes — one row per
    // (form, shape), one column per (backend, precision). The columns call
    // each backend directly, so the table shows every backend the machine
    // can run, not only the one dispatch selects. Every form's A holds m·k
    // elements and its B k·n, so one operand pair serves all three.
    let backends = relock_tensor::backend::available_backends();
    let forms: [(&str, Gemm<f64>, Gemm<f32>); 3] = [
        (
            "nn",
            compute::gemm_nn_into_backend,
            compute::gemm_nn_f32_into_backend,
        ),
        (
            "nt",
            compute::gemm_nt_into_backend,
            compute::gemm_nt_f32_into_backend,
        ),
        (
            "tn",
            compute::gemm_tn_into_backend,
            compute::gemm_tn_f32_into_backend,
        ),
    ];
    print!("{:<18}", "gemm (madd/ns)");
    for be in &backends {
        print!("{:>16} {:>13}", format!("{} f64", be.name()), "f32");
    }
    println!();
    for (form, gemm64, gemm32) in forms {
        for shape @ (m, k, n) in [
            (25usize, 48usize, 32usize),
            (25, 32, 16),
            (25, 16, 10),
            (24, 48, 32),
        ] {
            let a = rng.normal_tensor([m, k]);
            let b = rng.normal_tensor([k, n]);
            let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
            print!("{:<18}", format!("{form} {m}x{k}x{n}"));
            for &be in &backends {
                let f64_rate = madd_per_ns(gemm64, be, a.as_slice(), b.as_slice(), shape);
                let f32_rate = madd_per_ns(gemm32, be, &a32, &b32, shape);
                print!("{f64_rate:>16.2} {f32_rate:>13.2}");
            }
            println!();
        }
    }
}

/// One `*_into_backend` gemm entry point of `relock_tensor::compute`.
type Gemm<T> = fn(&dyn GemmBackend, &[T], &[T], &mut [T], usize, usize, usize, usize);

/// Single-threaded throughput of `gemm` on `be` at `(m, k, n)`, in
/// multiply-adds per nanosecond over 100,000 calls.
fn madd_per_ns<T: Copy + Default>(
    gemm: Gemm<T>,
    be: &dyn GemmBackend,
    a: &[T],
    b: &[T],
    (m, k, n): (usize, usize, usize),
) -> f64 {
    const ITERS: usize = 100_000;
    let mut out = vec![T::default(); m * n];
    let t = Instant::now();
    for _ in 0..ITERS {
        gemm(be, a, b, &mut out, m, k, n, 1);
        std::hint::black_box(&out);
    }
    (m * k * n * ITERS) as f64 / t.elapsed().as_secs_f64() / 1e9
}
