//! Forward-mode tangent (Jacobian) push through a linearized graph.
//!
//! The attack's algebraic step needs the *product weight matrix* `Â` of the
//! linear region containing a point `x°` (paper Formulas 2–4): the Jacobian
//! of a node's pre-activation with respect to the network input. We compute
//! it by pushing a bundle of `P` tangent vectors — initially the identity —
//! through every operator, using the forward pass's cached context (ReLU
//! masks, max-pool winners, attention probabilities, layer-norm statistics)
//! to linearize each op **at** `x°`.
//!
//! For piecewise-linear ops the push is exact (it *is* Formulas 2–4); for
//! the smooth ops (softmax attention, layer norm) it is the true first-order
//! Jacobian, matching what `torch.autograd.functional.jacobian` would return
//! on the same graph.
//!
//! Tangent bundles are `(P, size)` matrices: row `p` is the directional
//! derivative of the node's output along input direction `p`.

use crate::forward::{
    conv_rows, effective_linear_weight, extract_head, scale_multiplier, scatter_head,
};
use crate::key::KeyAssignment;
use crate::op::{Op, Saved};
use relock_tensor::Tensor;

impl Op {
    /// Pushes a tangent bundle through the operator, linearized at the
    /// single-sample activations recorded in `inputs`/`saved`.
    ///
    /// `inputs` are `(1, in_size)` cached values; `tangents` are `(P,
    /// in_size)` bundles in the same order. Returns the `(P, out_size)`
    /// output bundle.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the recorded forward pass.
    pub(crate) fn jvp(
        &self,
        inputs: &[&Tensor],
        saved: &Saved,
        tangents: &[&Tensor],
        keys: &KeyAssignment,
    ) -> Tensor {
        let p = tangents[0].dims()[0];
        match self {
            Op::Input { .. } => unreachable!("input tangents are seeded, not computed"),
            Op::Linear { .. } => {
                let w_eff = effective_linear_weight(self, keys);
                tangents[0].matmul_nt(&w_eff)
            }
            // No bias in a derivative.
            Op::Conv2d { w, geom, .. } => conv_rows(tangents[0], w, None, geom),
            Op::Relu => {
                let Saved::Mask(mask) = saved else {
                    unreachable!("relu saved context")
                };
                scale_columns(tangents[0], mask.row(0))
            }
            Op::KeyedSign { layout, slots } => {
                let mut out = tangents[0].clone();
                let size = out.dims()[1];
                let data = out.as_mut_slice();
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let m = keys.multiplier(*slot);
                    for e in layout.unit_elements(u) {
                        for r in 0..p {
                            data[r * size + e] *= m;
                        }
                    }
                }
                out
            }
            Op::KeyedScale {
                layout,
                slots,
                factor,
            } => {
                let mut out = tangents[0].clone();
                let size = out.dims()[1];
                let data = out.as_mut_slice();
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let g = scale_multiplier(keys.multiplier(*slot), *factor);
                    for e in layout.unit_elements(u) {
                        for r in 0..p {
                            data[r * size + e] *= g;
                        }
                    }
                }
                out
            }
            Op::KeyedTrigger { .. } => {
                let Saved::Mask(signs) = saved else {
                    unreachable!("trigger saved context")
                };
                // Locally the trigger is a constant ±1 scale of the guarded
                // branch; the raw-input branch contributes no tangent (its
                // derivative is zero almost everywhere).
                if signs.as_slice()[0] < 0.0 {
                    tangents[0].map(|v| -v)
                } else {
                    tangents[0].clone()
                }
            }
            Op::Add => tangents[0].zip_map(tangents[1], |a, b| a + b),
            Op::MaxPool2d { .. } => {
                let Saved::ArgMax(arg) = saved else {
                    unreachable!("max pool saved context")
                };
                let t = tangents[0];
                let in_size = t.dims()[1];
                let out_size = arg.len(); // batch = 1 for JVP
                let mut out = vec![0.0f64; p * out_size];
                let td = t.as_slice();
                for r in 0..p {
                    for (o, &winner) in arg.iter().enumerate() {
                        out[r * out_size + o] = td[r * in_size + winner];
                    }
                }
                Tensor::from_vec(out, [p, out_size])
            }
            Op::AvgPoolGlobal {
                channels,
                positions,
            } => {
                let t = tangents[0];
                let in_size = channels * positions;
                let inv = 1.0 / *positions as f64;
                let mut out = vec![0.0f64; p * channels];
                let td = t.as_slice();
                for r in 0..p {
                    for c in 0..*channels {
                        out[r * channels + c] = td
                            [r * in_size + c * positions..r * in_size + (c + 1) * positions]
                            .iter()
                            .sum::<f64>()
                            * inv;
                    }
                }
                Tensor::from_vec(out, [p, *channels])
            }
            Op::TokenTranspose { rows, cols } => {
                let t = tangents[0];
                let n = rows * cols;
                let mut out = vec![0.0f64; p * n];
                let td = t.as_slice();
                for r in 0..p {
                    for i in 0..*rows {
                        for j in 0..*cols {
                            out[r * n + j * rows + i] = td[r * n + i * cols + j];
                        }
                    }
                }
                Tensor::from_vec(out, [p, n])
            }
            Op::TokenLinear { tokens, w, .. } => {
                let t = tangents[0];
                let inp = w.dims()[1];
                let out_dim = w.dims()[0];
                let flat = t.reshape([p * tokens, inp]);
                flat.matmul_nt(w).into_reshaped([p, tokens * out_dim])
            }
            Op::LayerNorm {
                tokens, dim, gamma, ..
            } => {
                let Saved::LayerNorm { xhat, inv_sigma } = saved else {
                    unreachable!("layer norm saved context")
                };
                let t = tangents[0];
                let n = tokens * dim;
                let mut out = vec![0.0f64; p * n];
                let td = t.as_slice();
                let xh = xhat.as_slice(); // batch = 1
                let is = inv_sigma.as_slice();
                let gs = gamma.as_slice();
                let nd = *dim as f64;
                for r in 0..p {
                    for tk in 0..*tokens {
                        let tb = r * n + tk * dim;
                        let xb = tk * dim;
                        let isg = is[tk];
                        let mut mean_t = 0.0;
                        let mut mean_xt = 0.0;
                        for d in 0..*dim {
                            mean_t += td[tb + d];
                            mean_xt += td[tb + d] * xh[xb + d];
                        }
                        mean_t /= nd;
                        mean_xt /= nd;
                        for d in 0..*dim {
                            out[tb + d] =
                                gs[d] * (td[tb + d] - mean_t - xh[xb + d] * mean_xt) * isg;
                        }
                    }
                }
                Tensor::from_vec(out, [p, n])
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
                let size = tokens * heads * head_dim;
                let inv_sqrt = 1.0 / (*head_dim as f64).sqrt();
                let mut out = vec![0.0f64; p * size];
                // Pre-extract per-head caches once (batch = 1).
                let mut qs = Vec::with_capacity(*heads);
                let mut ks = Vec::with_capacity(*heads);
                let mut vs = Vec::with_capacity(*heads);
                for h in 0..*heads {
                    qs.push(extract_head(q.row(0), *tokens, *heads, *head_dim, h));
                    ks.push(extract_head(k.row(0), *tokens, *heads, *head_dim, h));
                    vs.push(extract_head(v.row(0), *tokens, *heads, *head_dim, h));
                }
                let (tq, tk, tv) = (tangents[0], tangents[1], tangents[2]);
                for r in 0..p {
                    let orow = &mut out[r * size..(r + 1) * size];
                    for h in 0..*heads {
                        let a = &attn[h];
                        let dqh = extract_head(tq.row(r), *tokens, *heads, *head_dim, h);
                        let dkh = extract_head(tk.row(r), *tokens, *heads, *head_dim, h);
                        let dvh = extract_head(tv.row(r), *tokens, *heads, *head_dim, h);
                        // dS = (dQ Kᵀ + Q dKᵀ)/√d.
                        let mut ds = dqh.matmul_nt(&ks[h]);
                        ds.axpy(1.0, &qs[h].matmul_nt(&dkh));
                        ds.scale_inplace(inv_sqrt);
                        // Softmax JVP per row: dA = A ∘ dS − A · (Σ_j A∘dS).
                        let mut da = Tensor::zeros([*tokens, *tokens]);
                        for row in 0..*tokens {
                            let arow = a.row(row);
                            let dsrow = ds.row(row);
                            let dot: f64 = arow.iter().zip(dsrow).map(|(&ar, &dr)| ar * dr).sum();
                            for c in 0..*tokens {
                                da.set2(row, c, arow[c] * (dsrow[c] - dot));
                            }
                        }
                        // dO = dA V + A dV.
                        let mut doh = da.matmul(&vs[h]);
                        doh.axpy(1.0, &a.matmul(&dvh));
                        scatter_head(orow, &doh, *tokens, *heads, *head_dim, h);
                    }
                }
                Tensor::from_vec(out, [p, size])
            }
            Op::MeanTokens { tokens, dim } => {
                let t = tangents[0];
                let in_size = tokens * dim;
                let inv = 1.0 / *tokens as f64;
                let mut out = vec![0.0f64; p * dim];
                let td = t.as_slice();
                for r in 0..p {
                    for tk in 0..*tokens {
                        for d in 0..*dim {
                            out[r * dim + d] += td[r * in_size + tk * dim + d] * inv;
                        }
                    }
                }
                Tensor::from_vec(out, [p, *dim])
            }
        }
    }
}

/// Multiplies column `e` of a `(P, n)` bundle by `scales[e]`.
fn scale_columns(t: &Tensor, scales: &[f64]) -> Tensor {
    let (p, n) = (t.dims()[0], t.dims()[1]);
    debug_assert_eq!(scales.len(), n);
    let mut out = t.clone();
    let data = out.as_mut_slice();
    for r in 0..p {
        for (x, &s) in data[r * n..(r + 1) * n].iter_mut().zip(scales) {
            *x *= s;
        }
    }
    out
}
