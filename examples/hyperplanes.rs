//! Figure 2, in ASCII: the hyperplane geometry of a small ReLU network.
//!
//! ```text
//! cargo run --release --example hyperplanes
//! ```
//!
//! Trains a tiny 2-input network on the two-moons task, then renders the
//! input square, marking every point that sits next to a *bent hyperplane*
//! (a linear-region boundary). First-layer neurons induce straight lines;
//! second-layer neurons induce lines that bend where they cross first-layer
//! boundaries — exactly the geometry the attack exploits (paper §3.2).

use relock_data::two_moons;
use relock_graph::KeyAssignment;
use relock_locking::LockSpec;
use relock_nn::{build_mlp, MlpSpec, Trainer};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Prng::seed_from_u64(11);
    let task = two_moons(&mut rng, 400, 100, 0.08);
    let spec = MlpSpec {
        input: 2,
        hidden: vec![3, 3],
        classes: 2,
    };
    let mut model = build_mlp(&spec, LockSpec::none(), &mut rng)?;
    let summary = Trainer {
        lr: 1e-2,
        epochs: 60,
        batch_size: 16,
    }
    .fit(&mut model, &task, &mut rng);
    println!(
        "two-moons victim trained: accuracy {:.1}%\n",
        100.0 * summary.final_test_accuracy
    );

    let g = model.white_box();
    let keys = KeyAssignment::all_zero_bits(0);

    // Identify the pre-activation nodes of both hidden layers.
    let pre_nodes: Vec<_> = g
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.op, relock_graph::Op::Relu))
        .map(|(i, _)| g.node(relock_graph::NodeId(i)).inputs[0])
        .collect();

    // Raster the input square and label each cell by its activation
    // pattern; boundaries are where the pattern changes.
    let (w, h) = (72usize, 36usize);
    let (lo, hi) = (-2.0f64, 3.0f64);
    let mut pattern = vec![0u32; w * h];
    for iy in 0..h {
        for ix in 0..w {
            let x = lo + (hi - lo) * ix as f64 / (w - 1) as f64;
            let y = hi - (hi - lo) * iy as f64 / (h - 1) as f64;
            let acts = g.forward_partial(
                &Tensor::from_slice(&[x, y]),
                &keys,
                *pre_nodes.last().expect("two layers"),
            );
            let mut code = 0u32;
            let mut bit = 0;
            for &pn in &pre_nodes {
                for &z in acts.value(pn).row(0) {
                    if z > 0.0 {
                        code |= 1 << bit;
                    }
                    bit += 1;
                }
            }
            pattern[iy * w + ix] = code;
        }
    }

    // Count distinct linear regions in view and render boundaries.
    let mut regions: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for &c in &pattern {
        regions.insert(c);
    }
    println!(
        "activation patterns visible in [{lo},{hi}]²: {} linear regions",
        regions.len()
    );
    println!("(boundary cells '│' are the bent hyperplanes of paper Fig. 2b)\n");
    for iy in 0..h {
        let mut line = String::with_capacity(w);
        for ix in 0..w {
            let here = pattern[iy * w + ix];
            let right = if ix + 1 < w {
                pattern[iy * w + ix + 1]
            } else {
                here
            };
            let below = if iy + 1 < h {
                pattern[(iy + 1) * w + ix]
            } else {
                here
            };
            line.push(if here != right || here != below {
                '│'
            } else {
                // Shade by region parity so regions are visible.
                if here.count_ones() % 2 == 0 {
                    ' '
                } else {
                    '·'
                }
            });
        }
        println!("{line}");
    }
    Ok(())
}
