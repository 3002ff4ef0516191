//! Batched forward evaluation of operators.

use crate::key::KeyAssignment;
use crate::op::{Op, Saved};
use relock_tensor::im2col::{im2col, ConvGeometry};
use relock_tensor::Tensor;
use std::borrow::Cow;

/// Adds a bias vector to every row of a `(B, out)` matrix, in place.
pub(crate) fn add_bias_rows(y: &mut Tensor, b: &Tensor) {
    let (rows, cols) = (y.dims()[0], y.dims()[1]);
    debug_assert_eq!(b.numel(), cols);
    let bs = b.as_slice().to_vec();
    let data = y.as_mut_slice();
    for r in 0..rows {
        for (o, &bias) in data[r * cols..(r + 1) * cols].iter_mut().zip(&bs) {
            *o += bias;
        }
    }
}

/// The effective weight matrix of a `Linear` op with its §3.9(b) weight
/// locks applied under the given key assignment.
///
/// The overwhelmingly common case — a `Linear` with no weight locks (HPNN
/// locks pre-activations, not weights) — borrows the stored matrix instead
/// of cloning it, so only genuinely locked layers pay for materialization.
pub(crate) fn effective_linear_weight<'a>(op: &'a Op, keys: &KeyAssignment) -> Cow<'a, Tensor> {
    match op {
        Op::Linear {
            w, weight_locks, ..
        } => {
            if weight_locks.is_empty() {
                return Cow::Borrowed(w);
            }
            let mut eff = w.clone();
            for l in weight_locks {
                let v = eff.get2(l.row, l.col) * keys.multiplier(l.slot);
                eff.set2(l.row, l.col, v);
            }
            Cow::Owned(eff)
        }
        _ => unreachable!("effective_linear_weight on non-linear op"),
    }
}

/// Per-sample flip signs (`±1`) a `KeyedTrigger` applies to its guarded
/// row: each raw-input row's sign pattern at `trigger_dims` is compared
/// against the key bits (`multiplier < 0`) by the comparator.
pub(crate) fn trigger_flip_signs(
    trigger_dims: &[usize],
    slots: &[crate::key::KeySlot],
    kind: &crate::op::TriggerKind,
    raw: &Tensor,
    keys: &KeyAssignment,
) -> Vec<f64> {
    let bits: Vec<bool> = slots.iter().map(|s| keys.multiplier(*s) < 0.0).collect();
    let (batch, rsize) = (raw.dims()[0], raw.dims()[1]);
    let rs = raw.as_slice();
    let mut sig = vec![false; trigger_dims.len()];
    let mut out = Vec::with_capacity(batch);
    for s in 0..batch {
        let row = &rs[s * rsize..(s + 1) * rsize];
        for (b, &d) in sig.iter_mut().zip(trigger_dims) {
            *b = row[d] >= 0.0;
        }
        out.push(if kind.fires(&sig, &bits) { -1.0 } else { 1.0 });
    }
    out
}

/// Convolves each row of `x` (a channel-major image) with the kernel
/// matrix `w`, adding the per-channel bias when one is given; returns the
/// `(rows, out_c·positions)` channel-major maps.
pub(crate) fn conv_rows(x: &Tensor, w: &Tensor, b: Option<&Tensor>, geom: &ConvGeometry) -> Tensor {
    let batch = x.dims()[0];
    let out_c = w.dims()[0];
    let pos = geom.out_positions();
    let mut out = vec![0.0f64; batch * out_c * pos];
    for s in 0..batch {
        let img = Tensor::from_slice(x.row(s));
        let patches = im2col(&img, geom);
        let y = patches.matmul_nt(w); // (pos, out_c)
        let orow = &mut out[s * out_c * pos..(s + 1) * out_c * pos];
        let ys = y.as_slice();
        for p in 0..pos {
            for c in 0..out_c {
                orow[c * pos + p] = match b {
                    Some(b) => ys[p * out_c + c] + b.as_slice()[c],
                    None => ys[p * out_c + c],
                };
            }
        }
    }
    Tensor::from_vec(out, [batch, out_c * pos])
}

/// The multiplier a `KeyedScale` op applies for a continuous key value `m`.
#[inline]
pub(crate) fn scale_multiplier(m: f64, factor: f64) -> f64 {
    0.5 * (1.0 + m) + factor * 0.5 * (1.0 - m)
}

/// Derivative of [`scale_multiplier`] with respect to `m`.
#[inline]
pub(crate) fn scale_multiplier_grad(factor: f64) -> f64 {
    0.5 * (1.0 - factor)
}

/// Extracts head `h` of a token-major `(tokens, heads·hd)` flat row into a
/// `(tokens, hd)` matrix.
pub(crate) fn extract_head(
    row: &[f64],
    tokens: usize,
    heads: usize,
    hd: usize,
    h: usize,
) -> Tensor {
    let dim = heads * hd;
    let mut out = vec![0.0f64; tokens * hd];
    for t in 0..tokens {
        let src = &row[t * dim + h * hd..t * dim + (h + 1) * hd];
        out[t * hd..(t + 1) * hd].copy_from_slice(src);
    }
    Tensor::from_vec(out, [tokens, hd])
}

/// Writes a `(tokens, hd)` head matrix back into a token-major flat row.
pub(crate) fn scatter_head(
    row: &mut [f64],
    m: &Tensor,
    tokens: usize,
    heads: usize,
    hd: usize,
    h: usize,
) {
    let dim = heads * hd;
    let src = m.as_slice();
    for t in 0..tokens {
        row[t * dim + h * hd..t * dim + (h + 1) * hd].copy_from_slice(&src[t * hd..(t + 1) * hd]);
    }
}

/// Row-wise softmax of a square score matrix, in place.
pub(crate) fn softmax_rows(s: &mut Tensor) {
    let (rows, cols) = (s.dims()[0], s.dims()[1]);
    let data = s.as_mut_slice();
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - m).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

impl Op {
    /// Evaluates the operator on a batch.
    ///
    /// `inputs` are `(B, in_size)` matrices in the node's input order; the
    /// result is the `(B, out_size)` output together with the [`Saved`]
    /// context needed by the backward pass and the JVP.
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not match the operator's arity or sizes
    /// (which [`Op::infer_out_size`] validates at graph-build time).
    pub(crate) fn forward_batch(
        &self,
        inputs: &[&Tensor],
        keys: &KeyAssignment,
    ) -> (Tensor, Saved) {
        match self {
            Op::Input { .. } => unreachable!("input nodes are seeded, not evaluated"),
            Op::Linear { b, .. } => {
                let x = inputs[0];
                let w_eff = effective_linear_weight(self, keys);
                let mut y = x.matmul_nt(&w_eff);
                add_bias_rows(&mut y, b);
                (y, Saved::None)
            }
            Op::Conv2d { w, b, geom } => (conv_rows(inputs[0], w, Some(b), geom), Saved::None),
            Op::Relu => {
                let x = inputs[0];
                let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let y = x.zip_map(&mask, |v, m| v * m);
                (y, Saved::Mask(mask))
            }
            Op::KeyedSign { layout, slots } => {
                let x = inputs[0];
                let mut y = x.clone();
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                let data = y.as_mut_slice();
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let m = keys.multiplier(*slot);
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            data[s * size + e] *= m;
                        }
                    }
                }
                (y, Saved::None)
            }
            Op::KeyedScale {
                layout,
                slots,
                factor,
            } => {
                let x = inputs[0];
                let mut y = x.clone();
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                let data = y.as_mut_slice();
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let g = scale_multiplier(keys.multiplier(*slot), *factor);
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            data[s * size + e] *= g;
                        }
                    }
                }
                (y, Saved::None)
            }
            Op::KeyedTrigger {
                trigger_dims,
                slots,
                kind,
            } => {
                let x = inputs[0];
                let signs = trigger_flip_signs(trigger_dims, slots, kind, inputs[1], keys);
                let mut y = x.clone();
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                let data = y.as_mut_slice();
                for (s, &sign) in signs.iter().enumerate().take(batch) {
                    if sign < 0.0 {
                        for v in &mut data[s * size..(s + 1) * size] {
                            *v = -*v;
                        }
                    }
                }
                (y, Saved::Mask(Tensor::from_vec(signs, [batch, 1])))
            }
            Op::Add => {
                let y = inputs[0].zip_map(inputs[1], |a, b| a + b);
                (y, Saved::None)
            }
            Op::MaxPool2d {
                channels,
                in_h,
                in_w,
                k,
                stride,
            } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let oh = (in_h - k) / stride + 1;
                let ow = (in_w - k) / stride + 1;
                let out_size = channels * oh * ow;
                let mut out = vec![0.0f64; batch * out_size];
                let mut arg = vec![0usize; batch * out_size];
                for s in 0..batch {
                    let row = x.row(s);
                    for c in 0..*channels {
                        let cbase = c * in_h * in_w;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut best = f64::NEG_INFINITY;
                                let mut best_i = 0usize;
                                for ky in 0..*k {
                                    for kx in 0..*k {
                                        let iy = oy * stride + ky;
                                        let ix = ox * stride + kx;
                                        let idx = cbase + iy * in_w + ix;
                                        if row[idx] > best {
                                            best = row[idx];
                                            best_i = idx;
                                        }
                                    }
                                }
                                let o = c * oh * ow + oy * ow + ox;
                                out[s * out_size + o] = best;
                                arg[s * out_size + o] = best_i;
                            }
                        }
                    }
                }
                (Tensor::from_vec(out, [batch, out_size]), Saved::ArgMax(arg))
            }
            Op::AvgPoolGlobal {
                channels,
                positions,
            } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let mut out = vec![0.0f64; batch * channels];
                let inv = 1.0 / *positions as f64;
                for s in 0..batch {
                    let row = x.row(s);
                    for c in 0..*channels {
                        out[s * channels + c] =
                            row[c * positions..(c + 1) * positions].iter().sum::<f64>() * inv;
                    }
                }
                (Tensor::from_vec(out, [batch, *channels]), Saved::None)
            }
            Op::TokenTranspose { rows, cols } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let mut out = vec![0.0f64; batch * rows * cols];
                for s in 0..batch {
                    let row = x.row(s);
                    let orow = &mut out[s * rows * cols..(s + 1) * rows * cols];
                    for i in 0..*rows {
                        for j in 0..*cols {
                            orow[j * rows + i] = row[i * cols + j];
                        }
                    }
                }
                (Tensor::from_vec(out, [batch, rows * cols]), Saved::None)
            }
            Op::TokenLinear { tokens, w, b } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let inp = w.dims()[1];
                let out_dim = w.dims()[0];
                let flat = x.reshape([batch * tokens, inp]);
                let mut y = flat.matmul_nt(w);
                add_bias_rows(&mut y, b);
                (y.into_reshaped([batch, tokens * out_dim]), Saved::None)
            }
            Op::LayerNorm {
                tokens,
                dim,
                gamma,
                beta,
            } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let mut out = vec![0.0f64; batch * tokens * dim];
                let mut xhat = vec![0.0f64; batch * tokens * dim];
                let mut inv_sigma = vec![0.0f64; batch * tokens];
                let gs = gamma.as_slice();
                let bs = beta.as_slice();
                const LN_EPS: f64 = 1e-6;
                for s in 0..batch {
                    let row = x.row(s);
                    for t in 0..*tokens {
                        let tok = &row[t * dim..(t + 1) * dim];
                        let mu = tok.iter().sum::<f64>() / *dim as f64;
                        let var =
                            tok.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / *dim as f64;
                        let is = 1.0 / (var + LN_EPS).sqrt();
                        inv_sigma[s * tokens + t] = is;
                        for d in 0..*dim {
                            let xh = (tok[d] - mu) * is;
                            let idx = s * tokens * dim + t * dim + d;
                            xhat[idx] = xh;
                            out[idx] = gs[d] * xh + bs[d];
                        }
                    }
                }
                (
                    Tensor::from_vec(out, [batch, tokens * dim]),
                    Saved::LayerNorm {
                        xhat: Tensor::from_vec(xhat, [batch, tokens * dim]),
                        inv_sigma: Tensor::from_vec(inv_sigma, [batch, *tokens]),
                    },
                )
            }
            Op::Attention {
                tokens,
                heads,
                head_dim,
            } => {
                let (q, k, v) = (inputs[0], inputs[1], inputs[2]);
                let batch = q.dims()[0];
                let size = tokens * heads * head_dim;
                let inv_sqrt = 1.0 / (*head_dim as f64).sqrt();
                let mut out = vec![0.0f64; batch * size];
                let mut attn = Vec::with_capacity(batch * heads);
                for s in 0..batch {
                    let orow = &mut out[s * size..(s + 1) * size];
                    for h in 0..*heads {
                        let qh = extract_head(q.row(s), *tokens, *heads, *head_dim, h);
                        let kh = extract_head(k.row(s), *tokens, *heads, *head_dim, h);
                        let vh = extract_head(v.row(s), *tokens, *heads, *head_dim, h);
                        let mut scores = qh.matmul_nt(&kh);
                        scores.scale_inplace(inv_sqrt);
                        softmax_rows(&mut scores);
                        let oh = scores.matmul(&vh);
                        scatter_head(orow, &oh, *tokens, *heads, *head_dim, h);
                        attn.push(scores);
                    }
                }
                (Tensor::from_vec(out, [batch, size]), Saved::Attn(attn))
            }
            Op::MeanTokens { tokens, dim } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let mut out = vec![0.0f64; batch * dim];
                let inv = 1.0 / *tokens as f64;
                for s in 0..batch {
                    let row = x.row(s);
                    let orow = &mut out[s * dim..(s + 1) * dim];
                    for t in 0..*tokens {
                        for d in 0..*dim {
                            orow[d] += row[t * dim + d] * inv;
                        }
                    }
                }
                (Tensor::from_vec(out, [batch, *dim]), Saved::None)
            }
        }
    }

    /// Fills `out` with an input-fed `Linear` or `Conv2d` along the line
    /// `a + t·d`: row `i` is `f(a) + tᵢ·L(d)`, where `f(a)` is the
    /// operator at the anchor, bias included, and `L(d)` its bias-free
    /// linear part along the direction. Both are affine in the input, so
    /// this equals [`Op::forward_batch`] over the points `a + tᵢ·d` up to
    /// rounding, at the cost of two rows instead of `ts.len()`.
    ///
    /// `w_eff` is the workspace-cached transposed effective weight, which
    /// a `Linear` requires (see [`Op::forward_batch_into`]).
    pub(crate) fn affine_line_into(
        &self,
        anchor: &Tensor,
        dir: &Tensor,
        ts: &[f64],
        w_eff: Option<&Tensor>,
        out: &mut Tensor,
    ) {
        let p = anchor.numel();
        let mut ends = Vec::with_capacity(2 * p);
        ends.extend_from_slice(anchor.as_slice());
        ends.extend_from_slice(dir.as_slice());
        let ends = Tensor::from_vec(ends, [2, p]);
        let lin = match self {
            Op::Linear { b, .. } => {
                let mut lin = ends.matmul(w_eff.expect("a Linear's effective weight"));
                for (o, &bias) in lin.row_mut(0).iter_mut().zip(b.as_slice()) {
                    *o += bias;
                }
                lin
            }
            Op::Conv2d { w, b, geom } => {
                let mut lin = conv_rows(&ends, w, None, geom);
                let pos = geom.out_positions();
                for (j, o) in lin.row_mut(0).iter_mut().enumerate() {
                    *o += b.as_slice()[j / pos];
                }
                lin
            }
            _ => unreachable!("affine_line_into on a {} node", self.kind()),
        };
        let size = lin.dims()[1];
        out.reset_shape([ts.len(), size]);
        let (at, along) = lin.as_slice().split_at(size);
        for (row, &t) in out.as_mut_slice().chunks_exact_mut(size).zip(ts) {
            for ((o, &f), &l) in row.iter_mut().zip(at).zip(along) {
                *o = f + t * l;
            }
        }
    }

    /// Allocation-free variant of [`Op::forward_batch`] for the hot
    /// operators: writes the result into `out` (and reuses `saved`'s
    /// buffers) instead of allocating fresh tensors. Returns `false` when
    /// the operator has no in-place path, in which case the caller falls
    /// back to [`Op::forward_batch`].
    ///
    /// `w_eff` optionally supplies the pre-materialized **transposed**
    /// effective weight for `Linear` (the workspace caches one per linear
    /// layer); when absent it is materialized on the spot.
    ///
    /// Results are **bit-identical** to [`Op::forward_batch`]: per output
    /// element the same operations run in the same order, only the
    /// destination buffers differ.
    pub(crate) fn forward_batch_into(
        &self,
        inputs: &[&Tensor],
        keys: &KeyAssignment,
        w_eff: Option<&Tensor>,
        out: &mut Tensor,
        saved: &mut Saved,
    ) -> bool {
        match self {
            Op::Linear { b, .. } => {
                let x = inputs[0];
                // `w_eff` is the workspace-cached *transposed* effective
                // weight, so the product runs in `A · B` form — same
                // ascending-`k` fold per element as `x · Wᵀ` (bit-identical),
                // but the inner loop vectorizes across output columns.
                match w_eff {
                    Some(wt) => x.matmul_into(wt, out),
                    None => x.matmul_into(&effective_linear_weight(self, keys).transpose(), out),
                }
                add_bias_rows(out, b);
                *saved = Saved::None;
                true
            }
            Op::Relu => {
                let x = inputs[0];
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                out.reset_shape([batch, size]);
                if !matches!(saved, Saved::Mask(_)) {
                    *saved = Saved::Mask(Tensor::zeros([0]));
                }
                let Saved::Mask(mask) = saved else {
                    unreachable!()
                };
                mask.reset_shape([batch, size]);
                for ((o, m), &v) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(mask.as_mut_slice())
                    .zip(x.as_slice())
                {
                    let mk = if v > 0.0 { 1.0 } else { 0.0 };
                    *m = mk;
                    *o = v * mk;
                }
                true
            }
            Op::KeyedSign { layout, slots } => {
                let x = inputs[0];
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                out.reset_shape([batch, size]);
                let data = out.as_mut_slice();
                data.copy_from_slice(x.as_slice());
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let m = keys.multiplier(*slot);
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            data[s * size + e] *= m;
                        }
                    }
                }
                *saved = Saved::None;
                true
            }
            Op::KeyedScale {
                layout,
                slots,
                factor,
            } => {
                let x = inputs[0];
                let (batch, size) = (x.dims()[0], x.dims()[1]);
                out.reset_shape([batch, size]);
                let data = out.as_mut_slice();
                data.copy_from_slice(x.as_slice());
                for (u, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let g = scale_multiplier(keys.multiplier(*slot), *factor);
                    for e in layout.unit_elements(u) {
                        for s in 0..batch {
                            data[s * size + e] *= g;
                        }
                    }
                }
                *saved = Saved::None;
                true
            }
            Op::Add => {
                let (a, b) = (inputs[0], inputs[1]);
                out.reset_shape([a.dims()[0], a.dims()[1]]);
                for ((o, &x1), &x2) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(a.as_slice())
                    .zip(b.as_slice())
                {
                    *o = x1 + x2;
                }
                *saved = Saved::None;
                true
            }
            Op::MaxPool2d {
                channels,
                in_h,
                in_w,
                k,
                stride,
            } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                let oh = (in_h - k) / stride + 1;
                let ow = (in_w - k) / stride + 1;
                let out_size = channels * oh * ow;
                out.reset_shape([batch, out_size]);
                if !matches!(saved, Saved::ArgMax(_)) {
                    *saved = Saved::ArgMax(Vec::new());
                }
                let Saved::ArgMax(arg) = saved else {
                    unreachable!()
                };
                arg.clear();
                arg.resize(batch * out_size, 0);
                let os = out.as_mut_slice();
                for s in 0..batch {
                    let row = x.row(s);
                    for c in 0..*channels {
                        let cbase = c * in_h * in_w;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut best = f64::NEG_INFINITY;
                                let mut best_i = 0usize;
                                for ky in 0..*k {
                                    for kx in 0..*k {
                                        let iy = oy * stride + ky;
                                        let ix = ox * stride + kx;
                                        let idx = cbase + iy * in_w + ix;
                                        if row[idx] > best {
                                            best = row[idx];
                                            best_i = idx;
                                        }
                                    }
                                }
                                let o = c * oh * ow + oy * ow + ox;
                                os[s * out_size + o] = best;
                                arg[s * out_size + o] = best_i;
                            }
                        }
                    }
                }
                true
            }
            Op::MeanTokens { tokens, dim } => {
                let x = inputs[0];
                let batch = x.dims()[0];
                out.reset_shape([batch, *dim]);
                let os = out.as_mut_slice();
                os.fill(0.0);
                let inv = 1.0 / *tokens as f64;
                for s in 0..batch {
                    let row = x.row(s);
                    let orow = &mut os[s * dim..(s + 1) * dim];
                    for t in 0..*tokens {
                        for d in 0..*dim {
                            orow[d] += row[t * dim + d] * inv;
                        }
                    }
                }
                *saved = Saved::None;
                true
            }
            // Long-tail ops (convolution, attention, layer norm, …) keep
            // their allocating path; they dominate their own runtime, so
            // buffer reuse buys nothing measurable there.
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{KeySlot, UnitLayout};

    fn no_keys() -> KeyAssignment {
        KeyAssignment::all_zero_bits(0)
    }

    #[test]
    fn linear_forward_batch() {
        let op = Op::Linear {
            w: Tensor::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]),
            b: Tensor::from_slice(&[0.5, 0.0]),
            weight_locks: vec![],
        };
        let x = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]);
        let (y, _) = op.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[3.5, -1.0]);
        assert_eq!(y.row(1), &[2.5, 0.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let x = Tensor::from_rows(&[&[-1.0, 2.0, 0.0]]);
        let (y, saved) = Op::Relu.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[0.0, 2.0, 0.0]);
        match saved {
            Saved::Mask(m) => assert_eq!(m.row(0), &[0.0, 1.0, 0.0]),
            _ => panic!("expected mask"),
        }
    }

    #[test]
    fn keyed_sign_flips_locked_units() {
        let op = Op::KeyedSign {
            layout: UnitLayout::scalar(3),
            slots: vec![Some(KeySlot(0)), None, Some(KeySlot(1))],
        };
        let keys = KeyAssignment::from_bits(&[true, false]);
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let (y, _) = op.forward_batch(&[&x], &keys);
        assert_eq!(y.row(0), &[-1.0, 2.0, 3.0]);
    }

    #[test]
    fn keyed_scale_applies_factor() {
        let op = Op::KeyedScale {
            layout: UnitLayout::scalar(2),
            slots: vec![Some(KeySlot(0)), Some(KeySlot(1))],
            factor: 0.25,
        };
        let keys = KeyAssignment::from_bits(&[true, false]);
        let x = Tensor::from_rows(&[&[4.0, 4.0]]);
        let (y, _) = op.forward_batch(&[&x], &keys);
        assert_eq!(y.row(0), &[1.0, 4.0]);
    }

    #[test]
    fn max_pool_picks_window_max() {
        let op = Op::MaxPool2d {
            channels: 1,
            in_h: 2,
            in_w: 2,
            k: 2,
            stride: 2,
        };
        let x = Tensor::from_rows(&[&[1.0, 5.0, 3.0, 2.0]]);
        let (y, saved) = op.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[5.0]);
        match saved {
            Saved::ArgMax(a) => assert_eq!(a, vec![1]),
            _ => panic!("expected argmax"),
        }
    }

    #[test]
    fn token_transpose_round_trip() {
        let fwd = Op::TokenTranspose { rows: 2, cols: 3 };
        let back = Op::TokenTranspose { rows: 3, cols: 2 };
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let (y, _) = fwd.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let (z, _) = back.forward_batch(&[&y], &no_keys());
        assert_eq!(z.row(0), x.row(0));
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        let (tokens, heads, hd) = (3, 1, 2);
        let op = Op::Attention {
            tokens,
            heads,
            head_dim: hd,
        };
        let q = Tensor::from_rows(&[&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]]);
        let k = q.clone();
        let v = Tensor::from_rows(&[&[1.0, 0.0, 0.0, 1.0, 0.5, 0.5]]);
        let (y, saved) = op.forward_batch(&[&q, &k, &v], &no_keys());
        // Attention rows sum to 1, so outputs stay within the convex hull of V.
        match saved {
            Saved::Attn(a) => {
                for r in 0..tokens {
                    let s: f64 = a[0].row(r).iter().sum();
                    assert!((s - 1.0).abs() < 1e-12);
                }
            }
            _ => panic!("expected attention"),
        }
        for &o in y.row(0) {
            assert!((-0.01..=1.01).contains(&o));
        }
    }

    #[test]
    fn layer_norm_normalizes_each_token() {
        let op = Op::LayerNorm {
            tokens: 2,
            dim: 3,
            gamma: Tensor::ones([3]),
            beta: Tensor::zeros([3]),
        };
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, -5.0, 0.0, 5.0]]);
        let (y, _) = op.forward_batch(&[&x], &no_keys());
        for t in 0..2 {
            let tok = &y.row(0)[t * 3..(t + 1) * 3];
            let mu: f64 = tok.iter().sum::<f64>() / 3.0;
            let var: f64 = tok.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / 3.0;
            assert!(mu.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mean_tokens_averages() {
        let op = Op::MeanTokens { tokens: 2, dim: 2 };
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let (y, _) = op.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[2.0, 3.0]);
    }

    #[test]
    fn conv_matches_manual_result() {
        use relock_tensor::im2col::ConvGeometry;
        let geom = ConvGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 2,
            k_w: 2,
            stride: 1,
            pad: 0,
        };
        // Kernel that sums its window.
        let op = Op::Conv2d {
            w: Tensor::ones([1, 4]),
            b: Tensor::from_slice(&[1.0]),
            geom,
        };
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]);
        let (y, _) = op.forward_batch(&[&x], &no_keys());
        assert_eq!(y.row(0), &[13.0, 17.0, 25.0, 29.0]);
    }
}
