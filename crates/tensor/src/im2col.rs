//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolutions in the graph crate are lowered to matrix products: the input
//! image is unfolded into a "column" matrix whose rows are receptive-field
//! patches; a convolution is then `patches · kernelᵀ`. The adjoint operation
//! [`col2im`] folds gradients back, accumulating overlaps — exactly what the
//! backward pass needs.

use crate::Tensor;

/// Spatial geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Number of output spatial positions.
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Patch length: `in_channels * k_h * k_w`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Checks that the geometry is non-degenerate and that every size
    /// derived from it fits in `usize`, so the size helpers above cannot
    /// overflow or divide by zero.
    ///
    /// # Errors
    ///
    /// A degenerate geometry (zero stride, zero-sized kernel, or kernel
    /// larger than the padded input), or one whose padded input, patch
    /// length, output positions or input length overflows.
    pub fn validate(&self) -> Result<(), String> {
        if self.stride < 1 {
            return Err("stride must be >= 1".into());
        }
        if self.k_h < 1 || self.k_w < 1 {
            return Err("kernel must be non-empty".into());
        }
        let overflow = || format!("sizes of {self:?} overflow usize");
        let padded = |side: usize| self.pad.checked_mul(2).and_then(|p| side.checked_add(p));
        let (ph, pw) = match (padded(self.in_h), padded(self.in_w)) {
            (Some(ph), Some(pw)) => (ph, pw),
            _ => return Err(overflow()),
        };
        if ph < self.k_h || pw < self.k_w {
            return Err(format!(
                "kernel {}x{} larger than padded input {ph}x{pw}",
                self.k_h, self.k_w
            ));
        }
        // `(ph - k_h) / stride + 1` itself cannot overflow: `k_h >= 1`.
        let out_positions =
            ((ph - self.k_h) / self.stride + 1).checked_mul((pw - self.k_w) / self.stride + 1);
        let patch_len = self
            .in_channels
            .checked_mul(self.k_h)
            .and_then(|x| x.checked_mul(self.k_w));
        let in_len = self
            .in_channels
            .checked_mul(self.in_h)
            .and_then(|x| x.checked_mul(self.in_w));
        match (out_positions, patch_len, in_len) {
            (Some(_), Some(_), Some(_)) => Ok(()),
            _ => Err(overflow()),
        }
    }
}

/// Panics unless `g` is valid: the lowering only ever sees geometries a
/// graph has already validated.
fn assert_valid(g: &ConvGeometry) {
    if let Err(why) = g.validate() {
        panic!("invalid conv geometry: {why}");
    }
}

/// Unfolds an image `(C, H, W)` into a patch matrix
/// `(out_h * out_w, C * k_h * k_w)`.
///
/// # Panics
///
/// Panics on an invalid geometry (see [`ConvGeometry::validate`]) or if
/// `image.numel() != C*H*W` for the geometry.
pub fn im2col(image: &Tensor, g: &ConvGeometry) -> Tensor {
    assert_valid(g);
    assert_eq!(
        image.numel(),
        g.in_channels * g.in_h * g.in_w,
        "image size mismatch"
    );
    let img = image.as_slice();
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    let mut out = vec![0.0f64; oh * ow * plen];
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * plen;
            let mut p = 0usize;
            for c in 0..g.in_channels {
                let cbase = c * g.in_h * g.in_w;
                for ky in 0..g.k_h {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.k_w {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        out[row + p] =
                            if iy >= 0 && iy < g.in_h as isize && ix >= 0 && ix < g.in_w as isize {
                                img[cbase + iy as usize * g.in_w + ix as usize]
                            } else {
                                0.0
                            };
                        p += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, [oh * ow, plen])
}

/// Folds a patch-matrix gradient back into an image gradient, accumulating
/// overlapping contributions. The adjoint of [`im2col`].
///
/// # Panics
///
/// Panics on an invalid geometry (see [`ConvGeometry::validate`]) or if
/// `cols` has the wrong shape for the geometry.
pub fn col2im(cols: &Tensor, g: &ConvGeometry) -> Tensor {
    assert_valid(g);
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    assert_eq!(cols.dims(), &[oh * ow, plen], "cols shape mismatch");
    let cdata = cols.as_slice();
    let mut img = vec![0.0f64; g.in_channels * g.in_h * g.in_w];
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * plen;
            let mut p = 0usize;
            for c in 0..g.in_channels {
                let cbase = c * g.in_h * g.in_w;
                for ky in 0..g.k_h {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.k_w {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy >= 0 && iy < g.in_h as isize && ix >= 0 && ix < g.in_w as isize {
                            img[cbase + iy as usize * g.in_w + ix as usize] += cdata[row + p];
                        }
                        p += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(img, [g.in_channels * g.in_h * g.in_w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom();
        assert_eq!(g.out_h(), 4);
        assert_eq!(g.out_w(), 4);
        assert_eq!(g.patch_len(), 18);
        let strided = ConvGeometry { stride: 2, ..g };
        assert_eq!(strided.out_h(), 2);
    }

    #[test]
    fn im2col_extracts_center_patch() {
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 0,
        };
        let img = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[1, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn padding_produces_zeros_at_border() {
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let img = Tensor::ones([4]);
        let cols = im2col(&img, &g);
        // Top-left output position: only the bottom-right 2x2 of the kernel
        // overlaps real pixels.
        let first = cols.row(0);
        assert_eq!(first[0], 0.0);
        assert_eq!(first[4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which the conv backward pass relies on.
        let g = geom();
        let mut rng = Prng::seed_from_u64(31);
        let x = rng.normal_tensor([g.in_channels * g.in_h * g.in_w]);
        let y = rng.normal_tensor([g.out_positions(), g.patch_len()]);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g));
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn degenerate_geometry_panics() {
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 5,
            k_w: 5,
            stride: 1,
            pad: 0,
        };
        let why = g.validate().unwrap_err();
        assert!(why.contains("larger than padded input"), "{why}");
        im2col(&Tensor::zeros([4]), &g);
    }

    #[test]
    fn validate_rejects_degenerate_and_overflowing_geometries() {
        let g = geom();
        assert_eq!(g.validate(), Ok(()));
        let bad = [
            ConvGeometry { stride: 0, ..g },
            ConvGeometry { k_h: 0, ..g },
            ConvGeometry { k_w: 0, ..g },
            ConvGeometry {
                pad: usize::MAX / 2 + 1,
                ..g
            },
            ConvGeometry {
                in_h: usize::MAX,
                ..g
            },
            ConvGeometry {
                in_channels: usize::MAX / 2,
                ..g
            },
            ConvGeometry {
                in_h: 1 << 40,
                in_w: 1 << 40,
                k_h: 1,
                k_w: 1,
                pad: 0,
                ..g
            },
        ];
        for g in bad {
            assert!(g.validate().is_err(), "{g:?} accepted");
        }
    }
}
