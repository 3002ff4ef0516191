//! Graph operators.
//!
//! Every network in the workspace — MLP, LeNet, ResNet, ReLU-ViT, and all of
//! their locked variants — is a DAG of these operators over flat `f64`
//! vectors. Spatial ops carry their own geometry (channel-major layout);
//! token ops carry `tokens × dim` (token-major layout).

use crate::key::{KeySlot, UnitLayout};
use relock_tensor::im2col::ConvGeometry;
use relock_tensor::Tensor;

/// A single key-controlled sign lock on one weight matrix element
/// (the §3.9(b) variant: the key perturbs a parameter instead of the
/// pre-activation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightLock {
    /// Row of the locked element (output neuron).
    pub row: usize,
    /// Column of the locked element (input index).
    pub col: usize,
    /// The key slot controlling the element's sign.
    pub slot: KeySlot,
}

/// Point-function flavour of an [`Op::KeyedTrigger`] lock.
///
/// Both flavours compare a *signature* — the sign pattern of a handful of
/// raw input coordinates — against the key, and corrupt the guarded layer
/// only when the comparison fires. This is the DNN port of the classic
/// combinational trigger locks: corruption is confined to a key-indexed
/// input subspace, so random critical-point sampling almost never observes
/// a key-dependent output.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerKind {
    /// SARLock-style comparator: with signature `s` and key bits `k`, the
    /// trigger fires iff exactly one of `s == k` and `s == mask` holds
    /// (`mask` is the correct key, fixed at lock time). The correct key
    /// (`k == mask`) never fires; every wrong key corrupts exactly two of
    /// the `2^d` signature patterns.
    Sar {
        /// The correct key pattern baked into the comparator.
        mask: Vec<bool>,
    },
    /// Anti-SAT-style complementary pair: the key splits into halves
    /// `k1, k2` (so `slots.len()` is even and the signature has
    /// `slots.len() / 2` bits). The trigger fires iff `s == ¬k1` and
    /// `s != ¬k2` — any key with `k2 == k1` is correct and never fires,
    /// while a key with `k2 != k1` corrupts the single pattern `s == ¬k1`.
    AntiSat,
}

impl TriggerKind {
    /// Signature length implied by a slot count.
    pub fn signature_len(&self, n_slots: usize) -> usize {
        match self {
            TriggerKind::Sar { .. } => n_slots,
            TriggerKind::AntiSat => n_slots / 2,
        }
    }

    /// Whether the trigger fires (the guarded row is negated) for the
    /// given input signature under the given key bits.
    pub fn fires(&self, sig: &[bool], bits: &[bool]) -> bool {
        match self {
            TriggerKind::Sar { mask } => {
                let at_key = sig.iter().zip(bits).all(|(s, k)| s == k);
                let at_mask = sig.iter().zip(mask).all(|(s, m)| s == m);
                at_key != at_mask
            }
            TriggerKind::AntiSat => {
                let d = sig.len();
                let (k1, k2) = (&bits[..d], &bits[d..]);
                let on_g = sig.iter().zip(k1).all(|(s, k)| *s != *k);
                let off_gbar = sig.iter().zip(k2).any(|(s, k)| *s == *k);
                on_g && off_gbar
            }
        }
    }
}

/// A graph operator.
///
/// Tensors flow between nodes as `(batch, size)` matrices of flat vectors.
/// Each operator documents its interpretation of the flat layout.
#[derive(Debug, Clone)]
pub enum Op {
    /// The network input placeholder. Exactly one per graph.
    Input {
        /// Input dimensionality `P`.
        size: usize,
    },
    /// Fully-connected affine map `y = W x + b` with `W: out×in`.
    ///
    /// `weight_locks` optionally applies the §3.9(b) weight-element variant:
    /// each listed element is multiplied by its key slot's multiplier.
    Linear {
        /// Weight matrix, `out × in`.
        w: Tensor,
        /// Bias, length `out`.
        b: Tensor,
        /// §3.9(b) weight-element locks (empty for an ordinary layer).
        weight_locks: Vec<WeightLock>,
    },
    /// 2-D convolution over a channel-major `(C, H, W)` flat input.
    ///
    /// Kernels are stored as `out_c × (in_c·k_h·k_w)` for the im2col
    /// lowering. Output is channel-major `(out_c, out_h, out_w)`.
    Conv2d {
        /// Kernel matrix, `out_c × patch_len`.
        w: Tensor,
        /// Per-channel bias, length `out_c`.
        b: Tensor,
        /// Spatial geometry.
        geom: ConvGeometry,
    },
    /// Element-wise rectified linear unit.
    Relu,
    /// HPNN flipping units (paper Eq. 1): each *unit* of the layout whose
    /// slot is `Some` is multiplied by the key's continuous multiplier
    /// (`+1` ⇔ bit 0, `−1` ⇔ bit 1). Units with `None` pass through.
    KeyedSign {
        /// How output elements group into key-sharing units.
        layout: UnitLayout,
        /// Slot per unit (`None` = unprotected).
        slots: Vec<Option<KeySlot>>,
    },
    /// §3.9(a) multiplicative variant: a locked unit is multiplied by
    /// `g(m) = (1+m)/2 + factor·(1−m)/2`, i.e. `1` when the bit is 0 and
    /// `factor` when the bit is 1.
    KeyedScale {
        /// How output elements group into key-sharing units.
        layout: UnitLayout,
        /// Slot per unit (`None` = unprotected).
        slots: Vec<Option<KeySlot>>,
        /// Multiplier applied when the key bit is 1.
        factor: f64,
    },
    /// Combinational trigger lock guarding a whole pre-activation row.
    ///
    /// Takes two inputs: the guarded pre-activation (`inputs[0]`) and the
    /// *raw network input* (`inputs[1]`), whose sign pattern at
    /// `trigger_dims` forms the signature fed to [`TriggerKind::fires`].
    /// When the trigger fires, the entire guarded row is negated; otherwise
    /// the row passes through untouched. Key bits are read as
    /// `multiplier < 0` — the comparison is discrete, so key gradients are
    /// identically zero (the §3.5 learning procedure is blind by design).
    KeyedTrigger {
        /// Raw-input coordinates sampled into the signature.
        trigger_dims: Vec<usize>,
        /// Key slots consumed by the comparator, in order.
        slots: Vec<KeySlot>,
        /// Comparator flavour.
        kind: TriggerKind,
    },
    /// Element-wise sum of exactly two same-sized inputs (residual join).
    Add,
    /// Max pooling over a channel-major map.
    MaxPool2d {
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Window size (square).
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling: channel-major `(C, positions)` → `(C)`.
    AvgPoolGlobal {
        /// Channels.
        channels: usize,
        /// Spatial positions per channel.
        positions: usize,
    },
    /// Layout transpose of a `rows × cols` flat matrix (e.g. channel-major
    /// patches → token-major embeddings).
    TokenTranspose {
        /// Rows of the *input* layout.
        rows: usize,
        /// Columns of the *input* layout.
        cols: usize,
    },
    /// Per-token affine map over a token-major `(tokens, in)` input.
    TokenLinear {
        /// Number of tokens.
        tokens: usize,
        /// Weight matrix, `out × in`.
        w: Tensor,
        /// Bias, length `out`.
        b: Tensor,
    },
    /// Per-token layer normalization with learned affine parameters.
    LayerNorm {
        /// Number of tokens.
        tokens: usize,
        /// Feature dimension per token.
        dim: usize,
        /// Learned scale, length `dim`.
        gamma: Tensor,
        /// Learned shift, length `dim`.
        beta: Tensor,
    },
    /// Multi-head softmax self-attention. Takes three inputs (Q, K, V
    /// projections), each token-major `(tokens, heads·head_dim)`.
    Attention {
        /// Number of tokens.
        tokens: usize,
        /// Number of heads.
        heads: usize,
        /// Per-head feature dimension.
        head_dim: usize,
    },
    /// Mean over tokens of a token-major `(tokens, dim)` input → `(dim)`.
    MeanTokens {
        /// Number of tokens.
        tokens: usize,
        /// Feature dimension per token.
        dim: usize,
    },
}

/// Per-node context saved by the forward pass for backward/JVP reuse.
#[derive(Debug, Clone)]
pub enum Saved {
    /// Nothing saved.
    None,
    /// ReLU activity mask, one row per batch sample (1.0 = active).
    Mask(Tensor),
    /// Max-pool winner indices (flat into the node's input vector), one
    /// `Vec` entry per `batch · out_size` output element.
    ArgMax(Vec<usize>),
    /// Attention probabilities, one `tokens × tokens` matrix per
    /// `batch · heads` (batch-major, then head-major).
    Attn(Vec<Tensor>),
    /// Layer-norm normalized activations and inverse σ per token.
    LayerNorm {
        /// `(batch, tokens·dim)` normalized values.
        xhat: Tensor,
        /// `(batch, tokens)` inverse standard deviations.
        inv_sigma: Tensor,
    },
}

impl Op {
    /// A short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Linear { .. } => "linear",
            Op::Conv2d { .. } => "conv2d",
            Op::Relu => "relu",
            Op::KeyedSign { .. } => "keyed_sign",
            Op::KeyedScale { .. } => "keyed_scale",
            Op::KeyedTrigger { .. } => "keyed_trigger",
            Op::Add => "add",
            Op::MaxPool2d { .. } => "max_pool2d",
            Op::AvgPoolGlobal { .. } => "avg_pool_global",
            Op::TokenTranspose { .. } => "token_transpose",
            Op::TokenLinear { .. } => "token_linear",
            Op::LayerNorm { .. } => "layer_norm",
            Op::Attention { .. } => "attention",
            Op::MeanTokens { .. } => "mean_tokens",
        }
    }

    /// Number of inputs this operator expects.
    pub fn arity(&self) -> usize {
        match self {
            Op::Input { .. } => 0,
            Op::Add | Op::KeyedTrigger { .. } => 2,
            Op::Attention { .. } => 3,
            _ => 1,
        }
    }

    /// Output size given input sizes, or an error message on mismatch.
    pub fn infer_out_size(&self, in_sizes: &[usize]) -> Result<usize, String> {
        let need = self.arity();
        if in_sizes.len() != need {
            return Err(format!(
                "{} expects {} input(s), got {}",
                self.kind(),
                need,
                in_sizes.len()
            ));
        }
        match self {
            Op::Input { size } => Ok(*size),
            Op::Linear { w, b, .. } => {
                let (out, inp) = matrix_dims("linear", w)?;
                if b.numel() != out {
                    return Err(format!("linear bias {} != out {}", b.numel(), out));
                }
                if in_sizes[0] != inp {
                    return Err(format!("linear input {} != {}", in_sizes[0], inp));
                }
                Ok(out)
            }
            Op::Conv2d { w, b, geom } => {
                geom.validate()
                    .map_err(|why| format!("conv geometry: {why}"))?;
                let (out_c, cols) = matrix_dims("conv", w)?;
                if cols != geom.patch_len() {
                    return Err(format!(
                        "conv kernel cols {cols} != patch len {}",
                        geom.patch_len()
                    ));
                }
                if b.numel() != out_c {
                    return Err(format!("conv bias {} != out_c {}", b.numel(), out_c));
                }
                let expect = geom.in_channels * geom.in_h * geom.in_w;
                if in_sizes[0] != expect {
                    return Err(format!("conv input {} != {}", in_sizes[0], expect));
                }
                out_c.checked_mul(geom.out_positions()).ok_or_else(|| {
                    format!("conv output {out_c} x {} overflows", geom.out_positions())
                })
            }
            Op::Relu => Ok(in_sizes[0]),
            Op::KeyedSign { layout, slots } | Op::KeyedScale { layout, slots, .. } => {
                if slots.len() != layout.n_units {
                    return Err(format!(
                        "lock slots {} != units {}",
                        slots.len(),
                        layout.n_units
                    ));
                }
                if layout.required_len() > in_sizes[0] {
                    return Err(format!(
                        "lock layout needs {} elements, input has {}",
                        layout.required_len(),
                        in_sizes[0]
                    ));
                }
                Ok(in_sizes[0])
            }
            Op::KeyedTrigger {
                trigger_dims,
                slots,
                kind,
            } => {
                if slots.is_empty() {
                    return Err("trigger lock needs at least one key slot".into());
                }
                if let TriggerKind::Sar { mask } = kind {
                    if mask.len() != slots.len() {
                        return Err(format!(
                            "trigger mask {} != slots {}",
                            mask.len(),
                            slots.len()
                        ));
                    }
                }
                if matches!(kind, TriggerKind::AntiSat) && slots.len() % 2 != 0 {
                    return Err("anti-sat trigger needs an even slot count".into());
                }
                let sig = kind.signature_len(slots.len());
                if trigger_dims.len() != sig {
                    return Err(format!(
                        "trigger dims {} != signature bits {sig}",
                        trigger_dims.len()
                    ));
                }
                if let Some(&d) = trigger_dims.iter().find(|&&d| d >= in_sizes[1]) {
                    return Err(format!(
                        "trigger dim {d} out of range for raw input {}",
                        in_sizes[1]
                    ));
                }
                Ok(in_sizes[0])
            }
            Op::Add => {
                if in_sizes[0] != in_sizes[1] {
                    return Err(format!(
                        "add inputs differ: {} vs {}",
                        in_sizes[0], in_sizes[1]
                    ));
                }
                Ok(in_sizes[0])
            }
            Op::MaxPool2d {
                channels,
                in_h,
                in_w,
                k,
                stride,
            } => {
                if *k == 0 || *stride == 0 {
                    return Err("max pool needs k, stride >= 1".into());
                }
                let expect = checked_product("max pool input", &[*channels, *in_h, *in_w])?;
                if in_sizes[0] != expect {
                    return Err(format!("max pool input {} != {expect}", in_sizes[0]));
                }
                if k > in_h || k > in_w {
                    return Err(format!(
                        "max pool window {k} larger than input {in_h}x{in_w}"
                    ));
                }
                let oh = (in_h - k) / stride + 1;
                let ow = (in_w - k) / stride + 1;
                checked_product("max pool output", &[*channels, oh, ow])
            }
            Op::AvgPoolGlobal {
                channels,
                positions,
            } => {
                let expect = checked_product("avg pool input", &[*channels, *positions])?;
                if in_sizes[0] != expect {
                    return Err(format!("avg pool input {} != {expect}", in_sizes[0]));
                }
                Ok(*channels)
            }
            Op::TokenTranspose { rows, cols } => {
                let expect = checked_product("transpose input", &[*rows, *cols])?;
                if in_sizes[0] != expect {
                    return Err(format!("transpose input {} != {expect}", in_sizes[0]));
                }
                Ok(expect)
            }
            Op::TokenLinear { tokens, w, b } => {
                let (out, inp) = matrix_dims("token linear", w)?;
                if b.numel() != out {
                    return Err(format!("token linear bias {} != out {}", b.numel(), out));
                }
                if in_sizes[0] != checked_product("token linear input", &[*tokens, inp])? {
                    return Err(format!(
                        "token linear input {} != tokens {} × in {}",
                        in_sizes[0], tokens, inp
                    ));
                }
                checked_product("token linear output", &[*tokens, out])
            }
            Op::LayerNorm {
                tokens,
                dim,
                gamma,
                beta,
            } => {
                if gamma.numel() != *dim || beta.numel() != *dim {
                    return Err("layer norm affine params must have length dim".into());
                }
                let expect = checked_product("layer norm input", &[*tokens, *dim])?;
                if in_sizes[0] != expect {
                    return Err(format!(
                        "layer norm input {} != tokens {} × dim {}",
                        in_sizes[0], tokens, dim
                    ));
                }
                Ok(expect)
            }
            Op::Attention {
                tokens,
                heads,
                head_dim,
            } => {
                let expect = checked_product("attention input", &[*tokens, *heads, *head_dim])?;
                for (i, &s) in in_sizes.iter().enumerate() {
                    if s != expect {
                        return Err(format!("attention input {i} is {s}, expected {expect}"));
                    }
                }
                Ok(expect)
            }
            Op::MeanTokens { tokens, dim } => {
                if in_sizes[0] != checked_product("mean tokens input", &[*tokens, *dim])? {
                    return Err(format!(
                        "mean tokens input {} != tokens {} × dim {}",
                        in_sizes[0], tokens, dim
                    ));
                }
                Ok(*dim)
            }
        }
    }

    /// Shared references to the operator's learnable parameters
    /// (weight-like, bias-like), if any.
    pub fn params(&self) -> Option<(&Tensor, &Tensor)> {
        match self {
            Op::Linear { w, b, .. } | Op::Conv2d { w, b, .. } | Op::TokenLinear { w, b, .. } => {
                Some((w, b))
            }
            Op::LayerNorm { gamma, beta, .. } => Some((gamma, beta)),
            _ => None,
        }
    }

    /// Mutable references to the operator's learnable parameters.
    pub fn params_mut(&mut self) -> Option<(&mut Tensor, &mut Tensor)> {
        match self {
            Op::Linear { w, b, .. } | Op::Conv2d { w, b, .. } | Op::TokenLinear { w, b, .. } => {
                Some((w, b))
            }
            Op::LayerNorm { gamma, beta, .. } => Some((gamma, beta)),
            _ => None,
        }
    }

    /// Key slots referenced by this operator, in unit order.
    pub fn key_slots(&self) -> Vec<KeySlot> {
        match self {
            Op::KeyedSign { slots, .. } | Op::KeyedScale { slots, .. } => {
                slots.iter().flatten().copied().collect()
            }
            Op::KeyedTrigger { slots, .. } => slots.clone(),
            Op::Linear { weight_locks, .. } => weight_locks.iter().map(|l| l.slot).collect(),
            _ => Vec::new(),
        }
    }

    /// Whether this operator consults the key assignment.
    pub fn is_keyed(&self) -> bool {
        !self.key_slots().is_empty()
            || matches!(
                self,
                Op::KeyedSign { .. } | Op::KeyedScale { .. } | Op::KeyedTrigger { .. }
            )
    }
}

/// The `(rows, cols)` of a weight matrix, or an error naming `what`
/// unless `w` has rank 2.
fn matrix_dims(what: &str, w: &Tensor) -> Result<(usize, usize), String> {
    match *w.dims() {
        [rows, cols] => Ok((rows, cols)),
        ref dims => Err(format!("{what} weight must be rank 2, got dims {dims:?}")),
    }
}

/// The product of `factors`, or an error naming `what` when it overflows.
fn checked_product(what: &str, factors: &[usize]) -> Result<usize, String> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
        .ok_or_else(|| format!("{what} size {factors:?} overflows usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_kind() {
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(
            Op::Attention {
                tokens: 4,
                heads: 2,
                head_dim: 3
            }
            .arity(),
            3
        );
        assert_eq!(Op::Relu.kind(), "relu");
    }

    #[test]
    fn linear_size_inference() {
        let op = Op::Linear {
            w: Tensor::zeros([3, 5]),
            b: Tensor::zeros([3]),
            weight_locks: vec![],
        };
        assert_eq!(op.infer_out_size(&[5]).unwrap(), 3);
        assert!(op.infer_out_size(&[4]).is_err());
        assert!(op.infer_out_size(&[5, 5]).is_err());
    }

    #[test]
    fn conv_size_inference() {
        let geom = ConvGeometry {
            in_channels: 2,
            in_h: 8,
            in_w: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let op = Op::Conv2d {
            w: Tensor::zeros([4, geom.patch_len()]),
            b: Tensor::zeros([4]),
            geom,
        };
        assert_eq!(op.infer_out_size(&[2 * 8 * 8]).unwrap(), 4 * 64);
    }

    #[test]
    fn keyed_sign_slot_count_checked() {
        let op = Op::KeyedSign {
            layout: UnitLayout::scalar(4),
            slots: vec![None; 3],
        };
        assert!(op.infer_out_size(&[4]).is_err());
    }

    #[test]
    fn max_pool_size() {
        let op = Op::MaxPool2d {
            channels: 3,
            in_h: 6,
            in_w: 6,
            k: 2,
            stride: 2,
        };
        assert_eq!(op.infer_out_size(&[3 * 36]).unwrap(), 3 * 9);
    }

    #[test]
    fn rank_1_weights_are_errors() {
        let geom = ConvGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 0,
        };
        let ops = [
            Op::Linear {
                w: Tensor::zeros([3]),
                b: Tensor::zeros([3]),
                weight_locks: vec![],
            },
            Op::Conv2d {
                w: Tensor::zeros([9]),
                b: Tensor::zeros([1]),
                geom,
            },
            Op::TokenLinear {
                tokens: 2,
                w: Tensor::zeros([3]),
                b: Tensor::zeros([3]),
            },
        ];
        for (op, input) in ops.iter().zip([3, 16, 6]) {
            let err = op.infer_out_size(&[input]).unwrap_err();
            assert!(err.contains("rank 2"), "{}: {err}", op.kind());
        }
    }

    #[test]
    fn pool_window_larger_than_its_input_is_an_error() {
        for (in_h, in_w) in [(2, 5), (5, 2)] {
            let op = Op::MaxPool2d {
                channels: 1,
                in_h,
                in_w,
                k: 3,
                stride: 1,
            };
            let err = op.infer_out_size(&[in_h * in_w]).unwrap_err();
            assert!(err.contains("larger than input"), "{err}");
        }
    }

    #[test]
    fn overflowing_sizes_are_errors() {
        let big = usize::MAX / 2 + 1;
        let ops = [
            Op::MaxPool2d {
                channels: big,
                in_h: 2,
                in_w: 1,
                k: 1,
                stride: 1,
            },
            Op::AvgPoolGlobal {
                channels: big,
                positions: 2,
            },
            Op::TokenTranspose { rows: big, cols: 2 },
            Op::TokenLinear {
                tokens: big,
                w: Tensor::zeros([1, 2]),
                b: Tensor::zeros([1]),
            },
            Op::TokenLinear {
                tokens: big,
                w: Tensor::zeros([2, 1]),
                b: Tensor::zeros([2]),
            },
            Op::LayerNorm {
                tokens: big,
                dim: 2,
                gamma: Tensor::zeros([2]),
                beta: Tensor::zeros([2]),
            },
            Op::Attention {
                tokens: big,
                heads: 2,
                head_dim: 1,
            },
            Op::MeanTokens {
                tokens: big,
                dim: 2,
            },
        ];
        for op in &ops {
            let inputs = vec![big; op.arity()];
            let err = op.infer_out_size(&inputs).unwrap_err();
            assert!(err.contains("overflows"), "{}: {err}", op.kind());
        }
    }
}
