//! Reverse-mode (backward) evaluation of operators.
//!
//! The backward pass serves two callers: the trainer (parameter gradients)
//! and the paper's learning-based attack (§3.6), which needs gradients with
//! respect to the **continuous key multipliers** while every weight is
//! frozen. Key gradients are accumulated into a flat `&mut [f64]` indexed by
//! key slot.

use crate::forward::{
    effective_linear_weight, extract_head, scale_multiplier, scale_multiplier_grad, scatter_head,
};
use crate::key::KeyAssignment;
use crate::op::{Op, Saved};
use relock_tensor::im2col::{col2im, im2col};
use relock_tensor::Tensor;

/// Sums the rows of a `(B, n)` matrix into a length-`n` vector.
pub(crate) fn col_sum(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    let mut out = vec![0.0f64; cols];
    for r in 0..rows {
        for (o, &v) in out.iter_mut().zip(t.row(r)) {
            *o += v;
        }
    }
    Tensor::from_slice(&out)
}

impl Op {
    /// Back-propagates `grad_out` through the operator.
    ///
    /// Returns the gradients with respect to each input (same order as the
    /// node's inputs) and, for parameterized ops, the `(weight-like,
    /// bias-like)` parameter gradients. Key-multiplier gradients are
    /// accumulated into `key_grads`.
    ///
    /// With `want_params == false` the parameter gradients are skipped —
    /// `Linear` in particular never forms its `(out, in)` weight-gradient
    /// matrix, which is most of the reverse-pass FLOPs when only key
    /// gradients are wanted (the §3.6 learning attack). Key gradients are
    /// identical either way.
    ///
    /// With `want_dx == false` the input gradients are skipped as well
    /// (the keys-only reverse pass clears it for nodes with no moving
    /// input): `Linear`, `TokenLinear` and `Conv2d` skip their `dX`
    /// product and return no input gradients; other ops may still return
    /// them — the caller drops whatever comes back. A keys-only `Conv2d`
    /// forms neither its patches nor its kernel gradient.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent with the forward pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_batch(
        &self,
        inputs: &[&Tensor],
        saved: &Saved,
        grad_out: &Tensor,
        keys: &KeyAssignment,
        key_grads: &mut [f64],
        want_params: bool,
        want_dx: bool,
    ) -> (Vec<Tensor>, Option<(Tensor, Tensor)>) {
        match self {
            Op::Input { .. } => unreachable!("input nodes have no backward"),
            Op::Linear {
                w, weight_locks, ..
            } => {
                let x = inputs[0];
                if !want_params {
                    // Key gradients of §3.9(b) locks need single entries of
                    // the raw weight gradient dYᵀX; compute just those dot
                    // products (in the same batch order as `matmul_tn`, so
                    // the sums are bit-identical to the full-matrix path).
                    let batch = x.dims()[0];
                    for l in weight_locks {
                        let mut raw = 0.0;
                        for s in 0..batch {
                            raw += grad_out.get2(s, l.row) * x.get2(s, l.col);
                        }
                        key_grads[l.slot.index()] += w.get2(l.row, l.col) * raw;
                    }
                    if !want_dx {
                        return (Vec::new(), None);
                    }
                    let dx = grad_out.matmul(&effective_linear_weight(self, keys));
                    return (vec![dx], None);
                }
                let w_eff = effective_linear_weight(self, keys);
                let dx = grad_out.matmul(&w_eff);
                let mut dw = grad_out.matmul_tn(x); // (out, in) via dYᵀ X
                let db = col_sum(grad_out);
                // Key gradients and stored-weight gradient corrections for
                // §3.9(b) locks: stored w enters as w·m, so ∂L/∂m = w·∂L/∂(w·m)
                // and ∂L/∂w = m·∂L/∂(w·m).
                for l in weight_locks {
                    let raw = dw.get2(l.row, l.col);
                    key_grads[l.slot.index()] += w.get2(l.row, l.col) * raw;
                    dw.set2(l.row, l.col, raw * keys.multiplier(l.slot));
                }
                (vec![dx], Some((dw, db)))
            }
            Op::Conv2d { w, geom, .. } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                if !want_params && !want_dx {
                    return (Vec::new(), None);
                }
                let out_c = w.dims()[0];
                let pos = geom.out_positions();
                let plen = geom.patch_len();
                let in_size = geom.in_channels * geom.in_h * geom.in_w;
                let mut dx = vec![0.0f64; batch * in_size];
                let mut dw = Tensor::zeros([out_c, plen]);
                let mut db = vec![0.0f64; out_c];
                for s in 0..batch {
                    // Channel-major grad row → (pos, out_c) matrix.
                    let grow = grad_out.row(s);
                    let mut dym = vec![0.0f64; pos * out_c];
                    for c in 0..out_c {
                        for p in 0..pos {
                            let g = grow[c * pos + p];
                            dym[p * out_c + c] = g;
                            db[c] += g;
                        }
                    }
                    let dym = Tensor::from_vec(dym, [pos, out_c]);
                    if want_params {
                        let patches = im2col(&Tensor::from_slice(x.row(s)), geom);
                        dw.axpy(1.0, &dym.matmul_tn(&patches));
                    }
                    let dpatches = dym.matmul(w);
                    let dimg = col2im(&dpatches, geom);
                    dx[s * in_size..(s + 1) * in_size].copy_from_slice(dimg.as_slice());
                }
                (
                    vec![Tensor::from_vec(dx, [batch, in_size])],
                    want_params.then(|| (dw, Tensor::from_slice(&db))),
                )
            }
            Op::Relu => {
                let Saved::Mask(mask) = saved else {
                    unreachable!("relu saved context")
                };
                (vec![grad_out.zip_map(mask, |g, m| g * m)], None)
            }
            Op::KeyedSign { layout, slots } => {
                let x = inputs[0];
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                let mut dx = grad_out.clone();
                let d = dx.as_mut_slice();
                let xs = x.as_slice();
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let m = keys.multiplier(*slot);
                    let mut acc = 0.0;
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            let idx = s * size + e;
                            acc += d[idx] * xs[idx];
                            d[idx] *= m;
                        }
                    }
                    key_grads[slot.index()] += acc;
                }
                (vec![dx], None)
            }
            Op::KeyedScale {
                layout,
                slots,
                factor,
            } => {
                let x = inputs[0];
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                let mut dx = grad_out.clone();
                let d = dx.as_mut_slice();
                let xs = x.as_slice();
                let dg = scale_multiplier_grad(*factor);
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let g = scale_multiplier(keys.multiplier(*slot), *factor);
                    let mut acc = 0.0;
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            let idx = s * size + e;
                            acc += d[idx] * xs[idx];
                            d[idx] *= g;
                        }
                    }
                    key_grads[slot.index()] += acc * dg;
                }
                (vec![dx], None)
            }
            Op::KeyedTrigger { .. } => {
                let Saved::Mask(signs) = saved else {
                    unreachable!("trigger saved context")
                };
                let raw = inputs[1];
                let mut dx = grad_out.clone();
                let (batch, size) = (dx.dims()[0], dx.dims()[1]);
                let d = dx.as_mut_slice();
                let sg = signs.as_slice();
                for s in 0..batch {
                    if sg[s] < 0.0 {
                        for v in &mut d[s * size..(s + 1) * size] {
                            *v = -*v;
                        }
                    }
                }
                // The comparator is discrete: key gradients are identically
                // zero (the learning procedure cannot see trigger bits), and
                // the raw-input branch has zero gradient almost everywhere.
                (vec![dx, Tensor::zeros([batch, raw.dims()[1]])], None)
            }
            Op::Add => (vec![grad_out.clone(), grad_out.clone()], None),
            Op::MaxPool2d { .. } => {
                let Saved::ArgMax(arg) = saved else {
                    unreachable!("max pool saved context")
                };
                let x = inputs[0];
                let (batch, in_size) = (x.dims()[0], x.dims()[1]);
                let out_size = grad_out.dims()[1];
                let mut dx = vec![0.0f64; batch * in_size];
                let g = grad_out.as_slice();
                for s in 0..batch {
                    for o in 0..out_size {
                        dx[s * in_size + arg[s * out_size + o]] += g[s * out_size + o];
                    }
                }
                (vec![Tensor::from_vec(dx, [batch, in_size])], None)
            }
            Op::AvgPoolGlobal {
                channels,
                positions,
            } => {
                let batch = grad_out.dims()[0];
                let in_size = channels * positions;
                let inv = 1.0 / *positions as f64;
                let mut dx = vec![0.0f64; batch * in_size];
                let g = grad_out.as_slice();
                for s in 0..batch {
                    for c in 0..*channels {
                        let gc = g[s * channels + c] * inv;
                        for p in 0..*positions {
                            dx[s * in_size + c * positions + p] = gc;
                        }
                    }
                }
                (vec![Tensor::from_vec(dx, [batch, in_size])], None)
            }
            Op::TokenTranspose { rows, cols } => {
                // Backward of a permutation is its inverse permutation.
                let batch = grad_out.dims()[0];
                let n = rows * cols;
                let mut dx = vec![0.0f64; batch * n];
                let g = grad_out.as_slice();
                for s in 0..batch {
                    for i in 0..*rows {
                        for j in 0..*cols {
                            dx[s * n + i * cols + j] = g[s * n + j * rows + i];
                        }
                    }
                }
                (vec![Tensor::from_vec(dx, [batch, n])], None)
            }
            Op::TokenLinear { tokens, w, .. } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let inp = w.dims()[1];
                let out_dim = w.dims()[0];
                let flat_g = grad_out.reshape([batch * tokens, out_dim]);
                if !want_params {
                    if !want_dx {
                        return (Vec::new(), None);
                    }
                    let dx = flat_g.matmul(w).into_reshaped([batch, tokens * inp]);
                    return (vec![dx], None);
                }
                let dx = flat_g.matmul(w).into_reshaped([batch, tokens * inp]);
                let flat_x = x.reshape([batch * tokens, inp]);
                let dw = flat_g.matmul_tn(&flat_x);
                let db = col_sum(&flat_g);
                (vec![dx], Some((dw, db)))
            }
            Op::LayerNorm {
                tokens, dim, gamma, ..
            } => {
                let Saved::LayerNorm { xhat, inv_sigma } = saved else {
                    unreachable!("layer norm saved context")
                };
                let batch = grad_out.dims()[0];
                let mut dx = vec![0.0f64; batch * tokens * dim];
                let mut dgamma = vec![0.0f64; *dim];
                let mut dbeta = vec![0.0f64; *dim];
                let gs = gamma.as_slice();
                let go = grad_out.as_slice();
                let xh = xhat.as_slice();
                let is = inv_sigma.as_slice();
                let n = *dim as f64;
                for s in 0..batch {
                    for t in 0..*tokens {
                        let base = s * tokens * dim + t * dim;
                        let isg = is[s * tokens + t];
                        let mut mean_g = 0.0;
                        let mut mean_gx = 0.0;
                        for d in 0..*dim {
                            let g = go[base + d] * gs[d];
                            mean_g += g;
                            mean_gx += g * xh[base + d];
                            dgamma[d] += go[base + d] * xh[base + d];
                            dbeta[d] += go[base + d];
                        }
                        mean_g /= n;
                        mean_gx /= n;
                        for d in 0..*dim {
                            let g = go[base + d] * gs[d];
                            dx[base + d] = (g - mean_g - xh[base + d] * mean_gx) * isg;
                        }
                    }
                }
                (
                    vec![Tensor::from_vec(dx, [batch, tokens * dim])],
                    want_params.then(|| (Tensor::from_slice(&dgamma), Tensor::from_slice(&dbeta))),
                )
            }
            Op::Attention {
                tokens,
                heads,
                head_dim,
            } => {
                let Saved::Attn(attn) = saved else {
                    unreachable!("attention saved context")
                };
                let (q, k, v) = (inputs[0], inputs[1], inputs[2]);
                let batch = q.dims()[0];
                let size = tokens * heads * head_dim;
                let inv_sqrt = 1.0 / (*head_dim as f64).sqrt();
                let mut dq = vec![0.0f64; batch * size];
                let mut dk = vec![0.0f64; batch * size];
                let mut dv = vec![0.0f64; batch * size];
                for s in 0..batch {
                    for h in 0..*heads {
                        let a = &attn[s * heads + h];
                        let qh = extract_head(q.row(s), *tokens, *heads, *head_dim, h);
                        let kh = extract_head(k.row(s), *tokens, *heads, *head_dim, h);
                        let vh = extract_head(v.row(s), *tokens, *heads, *head_dim, h);
                        let go_h = extract_head(grad_out.row(s), *tokens, *heads, *head_dim, h);
                        // O = A V.
                        let dvh = a.matmul_tn(&go_h);
                        let da = go_h.matmul_nt(&vh);
                        // Softmax backward per row: dS = A ∘ (dA − Σ_j dA∘A).
                        let mut ds = Tensor::zeros([*tokens, *tokens]);
                        for r in 0..*tokens {
                            let arow = a.row(r);
                            let darow = da.row(r);
                            let dot: f64 = arow.iter().zip(darow).map(|(&ar, &dr)| ar * dr).sum();
                            for c in 0..*tokens {
                                ds.set2(r, c, arow[c] * (darow[c] - dot) * inv_sqrt);
                            }
                        }
                        // S = Q Kᵀ / √d.
                        let dqh = ds.matmul(&kh);
                        let dkh = ds.matmul_tn(&qh);
                        scatter_head(
                            &mut dq[s * size..(s + 1) * size],
                            &dqh,
                            *tokens,
                            *heads,
                            *head_dim,
                            h,
                        );
                        scatter_head(
                            &mut dk[s * size..(s + 1) * size],
                            &dkh,
                            *tokens,
                            *heads,
                            *head_dim,
                            h,
                        );
                        scatter_head(
                            &mut dv[s * size..(s + 1) * size],
                            &dvh,
                            *tokens,
                            *heads,
                            *head_dim,
                            h,
                        );
                    }
                }
                (
                    vec![
                        Tensor::from_vec(dq, [batch, size]),
                        Tensor::from_vec(dk, [batch, size]),
                        Tensor::from_vec(dv, [batch, size]),
                    ],
                    None,
                )
            }
            Op::MeanTokens { tokens, dim } => {
                let batch = grad_out.dims()[0];
                let inv = 1.0 / *tokens as f64;
                let in_size = tokens * dim;
                let mut dx = vec![0.0f64; batch * in_size];
                let g = grad_out.as_slice();
                for s in 0..batch {
                    for t in 0..*tokens {
                        for d in 0..*dim {
                            dx[s * in_size + t * dim + d] = g[s * dim + d] * inv;
                        }
                    }
                }
                (vec![Tensor::from_vec(dx, [batch, in_size])], None)
            }
        }
    }
}
