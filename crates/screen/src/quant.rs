//! Symmetric INT4 quantization for the low-precision screener (§2.1, §6.1:
//! "the precision of the screener to be 4-bit integer").

use crate::{DenseMatrix, ScreenError};

/// Largest representable INT4 magnitude (symmetric range, -7..=7, keeping
/// the encoding sign-symmetric so negation is exact).
pub const INT4_MAX: i8 = 7;
/// Smallest representable INT4 value under the symmetric range.
pub const INT4_MIN: i8 = -7;

/// A quantized vector: 4-bit integer codes plus one `f32` scale, so that
/// `value ≈ code * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct Int4Vector {
    scale: f32,
    codes: Vec<i8>,
}

impl Int4Vector {
    /// Quantizes a slice with max-abs symmetric scaling.
    ///
    /// ```
    /// use ecssd_screen::{Int4Vector, INT4_MAX};
    /// # fn main() -> Result<(), ecssd_screen::ScreenError> {
    /// let q = Int4Vector::quantize(&[2.0, -1.0, 0.5])?;
    /// assert_eq!(q.codes()[0], INT4_MAX); // the max-abs element saturates
    /// assert!((q.dequantize()[1] - -1.0).abs() <= q.scale() / 2.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::Empty`] for an empty slice.
    pub fn quantize(values: &[f32]) -> Result<Self, ScreenError> {
        if values.is_empty() {
            return Err(ScreenError::Empty);
        }
        let scale = Self::ideal_scale(values);
        let codes = encode(values, scale);
        Ok(Int4Vector { scale, codes })
    }

    /// The max-abs symmetric scale a fresh quantization of `values` would
    /// choose (`max|v| / 7`, or `1.0` for an all-zero slice). The
    /// scale-drift detector of the online-update path compares this ideal
    /// against a deployed scale to decide when in-place re-encoding has
    /// degraded too far.
    pub fn ideal_scale(values: &[f32]) -> f32 {
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs == 0.0 {
            1.0
        } else {
            max_abs / f32::from(INT4_MAX)
        }
    }

    /// Encodes `values` against a given `scale` instead of their ideal one
    /// (an in-place update keeps a deployed scale; values beyond its
    /// dynamic range clamp at ±7). Returns the vector and the drift ratio
    /// `ideal / scale` a drift detector compares against its bound.
    pub fn reencode(values: &[f32], scale: f32) -> (Self, f32) {
        let codes = encode(values, scale);
        (
            Int4Vector { scale, codes },
            Self::ideal_scale(values) / scale,
        )
    }

    /// The quantization scale (`value ≈ code * scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The 4-bit codes, one per element (stored sign-extended in `i8`).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dequantizes back to `f32`.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| f32::from(c) * self.scale)
            .collect()
    }

    /// Sum of absolute code values — the *hot degree* signal used by the
    /// learning-based interleaving framework (§5.3: "according to the sum of
    /// the absolute value of each element in each 4-bit weight vector").
    pub fn abs_sum(&self) -> u32 {
        self.codes
            .iter()
            .map(|&c| u32::from(c.unsigned_abs()))
            .sum()
    }

    /// Integer dot product with another INT4 vector, the screener's MAC
    /// operation. Returns the integer accumulation and leaves scaling to the
    /// caller.
    ///
    /// Shape validation happens here, once, at the API boundary; the MAC
    /// loop itself is the infallible `dot_i32` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::DimensionMismatch`] on length mismatch.
    pub fn dot(&self, other: &Int4Vector) -> Result<i32, ScreenError> {
        if self.len() != other.len() {
            return Err(ScreenError::DimensionMismatch {
                expected: self.len(),
                got: other.len(),
            });
        }
        Ok(dot_i32(&self.codes, &other.codes))
    }

    /// Storage footprint in bytes: two codes per byte (4-bit packing) plus
    /// the 4-byte scale.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len().div_ceil(2) + 4
    }
}

/// The INT4 MAC kernel: integer dot product of two equal-length code
/// slices.
///
/// Infallible by construction — every public entry point
/// ([`Int4Vector::dot`], [`Int4Matrix::matmul`]) validates shapes once
/// before reaching it, so the inner loop carries no `Result` and no
/// per-element branch. The body walks both slices in fixed-size
/// `chunks_exact` windows with an inner loop of known trip count, which
/// LLVM unrolls and autovectorizes into widening multiply-adds; `i32`
/// accumulation is exact and associative, so the chunked regrouping cannot
/// change the result.
#[inline]
fn dot_i32(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i32 kernel shape mismatch");
    const CHUNK: usize = 32;
    let mut a_chunks = a.chunks_exact(CHUNK);
    let mut b_chunks = b.chunks_exact(CHUNK);
    let mut acc = 0i32;
    for (ca, cb) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        let mut partial = 0i32;
        for i in 0..CHUNK {
            partial += i32::from(ca[i]) * i32::from(cb[i]);
        }
        acc += partial;
    }
    for (&x, &y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// [`dot_i32`] for rows narrower than one 32-code window (a 32-wide
/// model's 8-code projection), which `dot_i32` would run as a scalar
/// tail: 8-code windows against `b16`, the input's codes widened to `i16`
/// once by the caller, which LLVM vectorizes into `i16` multiply-adds.
/// Exact `i32` accumulation, so the result is `dot_i32`'s.
#[inline]
fn dot_short(a: &[i8], b16: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b16.len(), "dot_short kernel shape mismatch");
    const LANE: usize = 8;
    let mut a_lanes = a.chunks_exact(LANE);
    let mut b_lanes = b16.chunks_exact(LANE);
    let mut acc = 0i32;
    for (ca, cb) in a_lanes.by_ref().zip(b_lanes.by_ref()) {
        let mut partial = 0i32;
        for i in 0..LANE {
            partial += i32::from(ca[i]) * i32::from(cb[i]);
        }
        acc += partial;
    }
    for (&x, &y) in a_lanes.remainder().iter().zip(b_lanes.remainder()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Encodes `values` against a fixed `scale`, clamping to the symmetric
/// INT4 range. Identical to the mapping inside [`Int4Vector::quantize`]
/// when `scale` is the ideal max-abs scale.
fn encode(values: &[f32], scale: f32) -> Vec<i8> {
    values
        .iter()
        .map(|&v| {
            let q = (v / scale).round();
            q.clamp(f32::from(INT4_MIN), f32::from(INT4_MAX)) as i8
        })
        .collect()
}

/// A row-quantized INT4 matrix: per-row scales, 4-bit codes.
///
/// This is the screener weight matrix deployed into the ECSSD's DRAM under
/// the heterogeneous data layout (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Int4Matrix {
    rows: usize,
    cols: usize,
    scales: Vec<f32>,
    codes: Vec<i8>,
}

impl Int4Matrix {
    /// Quantizes each row of a dense matrix independently.
    pub fn quantize(m: &DenseMatrix) -> Self {
        Self::quantize_rows(m.as_slice(), m.cols())
    }

    /// Quantizes each `cols`-wide row of row-major `values` independently.
    /// `cols` is nonzero.
    pub(crate) fn quantize_rows(values: &[f32], cols: usize) -> Self {
        let rows = values.len() / cols;
        let mut scales = Vec::with_capacity(rows);
        let mut codes = Vec::with_capacity(rows * cols);
        for row in values.chunks_exact(cols) {
            let scale = Int4Vector::ideal_scale(row);
            scales.push(scale);
            codes.extend(encode(row, scale));
        }
        Int4Matrix {
            rows,
            cols,
            scales,
            codes,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_codes(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Scale of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Real-valued hot degree of every row: the L1 norm reconstructed from
    /// the 4-bit codes (`Σ|code| · scale`). Because this matrix uses per-row
    /// scales, the raw code sum alone would be scale-invariant and lose the
    /// magnitude signal the paper's predictor relies on.
    pub fn row_hotness(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| {
                let abs: u32 = self
                    .row_codes(r)
                    .iter()
                    .map(|&c| u32::from(c.unsigned_abs()))
                    .sum();
                abs as f32 * self.scales[r]
            })
            .collect()
    }

    /// Screener GEMV: approximate scores of every row against a quantized
    /// input, `score[r] ≈ W4[r] · x4` in real units. The GEMM of one input.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &Int4Vector) -> Result<Vec<f32>, ScreenError> {
        self.matmul(std::slice::from_ref(x))
    }

    /// Screener GEMM: the scores of every row against every input of a
    /// batch, input-major (`out[q * rows + r]`). The matrix is streamed
    /// once, in blocks of rows small enough to stay in the L1 cache while
    /// every input is dotted with them, as the paper's machine streams each
    /// INT4 tile once per query batch. Each score is
    /// `dot as f32 * row_scale * input_scale`, bitwise the GEMV's.
    ///
    /// Every input's shape is validated here, once; each (row, input) pair
    /// then runs the infallible `dot_i32` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::DimensionMismatch`] for the first input whose
    /// length is not `cols`.
    pub fn matmul(&self, xs: &[Int4Vector]) -> Result<Vec<f32>, ScreenError> {
        /// Codes per row block: 8 KiB, a fraction of any L1 data cache.
        const BLOCK_CODES: usize = 8 << 10;
        if let Some(x) = xs.iter().find(|x| x.len() != self.cols) {
            return Err(ScreenError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        let rows = self.rows;
        let mut out = vec![0.0f32; xs.len() * rows];
        let block = (BLOCK_CODES / self.cols).max(1);
        // Rows shorter than one 32-code window run `dot_short` against
        // the inputs widened once; wider rows never read `widened`.
        let short = self.cols < 32;
        let widened: Vec<Vec<i16>> = xs
            .iter()
            .map(|x| {
                if short {
                    x.codes.iter().map(|&c| i16::from(c)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let blocks = self
            .codes
            .chunks(block * self.cols)
            .zip(self.scales.chunks(block));
        for (b, (codes, scales)) in blocks.enumerate() {
            let first = b * block;
            let inputs = xs.iter().zip(&widened);
            for ((x, x16), out) in inputs.zip(out.chunks_exact_mut(rows.max(1))) {
                let out = &mut out[first..first + scales.len()];
                let block_rows = codes.chunks_exact(self.cols).zip(scales);
                for ((row, &scale), score) in block_rows.zip(out) {
                    let dot = if short {
                        dot_short(row, x16)
                    } else {
                        dot_i32(row, &x.codes)
                    };
                    *score = dot as f32 * scale * x.scale;
                }
            }
        }
        Ok(out)
    }

    /// Total storage in bytes under 4-bit packing (two codes per byte) plus
    /// per-row scales.
    pub fn storage_bytes(&self) -> usize {
        Self::storage_bytes_for(self.rows, self.cols)
    }

    /// [`Int4Matrix::storage_bytes`] of a `rows × cols` matrix.
    pub fn storage_bytes_for(rows: usize, cols: usize) -> usize {
        (rows * cols).div_ceil(2) + rows * 4
    }

    fn check_image(&self, image: &Int4Vector) -> Result<(), ScreenError> {
        if image.len() != self.cols {
            return Err(ScreenError::DimensionMismatch {
                expected: self.cols,
                got: image.len(),
            });
        }
        Ok(())
    }

    /// Row `r`'s scale and codes as a standalone vector, the image
    /// [`Int4Matrix::restore_row`] writes back.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_image(&self, r: usize) -> Int4Vector {
        Int4Vector {
            scale: self.row_scale(r),
            codes: self.row_codes(r).to_vec(),
        }
    }

    /// Overwrites row `r` with an image taken by [`Int4Matrix::row_image`],
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::DimensionMismatch`] if `image.len() != cols`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn restore_row(&mut self, r: usize, image: &Int4Vector) -> Result<(), ScreenError> {
        self.check_image(image)?;
        assert!(r < self.rows, "row {r} out of bounds");
        self.scales[r] = image.scale;
        self.codes[r * self.cols..(r + 1) * self.cols].copy_from_slice(&image.codes);
        Ok(())
    }

    /// Keeps the first `rows` rows; a no-op when the matrix has no more.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::Empty`] for `rows == 0`.
    pub fn truncate_rows(&mut self, rows: usize) -> Result<(), ScreenError> {
        if rows == 0 {
            return Err(ScreenError::Empty);
        }
        self.rows = self.rows.min(rows);
        self.scales.truncate(self.rows);
        self.codes.truncate(self.rows * self.cols);
        Ok(())
    }

    /// Appends `image` as a new last row.
    ///
    /// # Errors
    ///
    /// Returns [`ScreenError::DimensionMismatch`] if `image.len() != cols`.
    pub fn push_row(&mut self, image: &Int4Vector) -> Result<(), ScreenError> {
        self.check_image(image)?;
        self.scales.push(image.scale);
        self.codes.extend_from_slice(&image.codes);
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_stay_in_int4_range() {
        let q = Int4Vector::quantize(&[-10.0, -0.1, 0.0, 0.1, 10.0]).unwrap();
        for &c in q.codes() {
            assert!((INT4_MIN..=INT4_MAX).contains(&c), "code {c} out of range");
        }
        assert_eq!(q.codes()[0], INT4_MIN);
        assert_eq!(q.codes()[4], INT4_MAX);
        assert_eq!(q.codes()[2], 0);
    }

    #[test]
    fn dequantize_bounds_error() {
        let values = [0.93f32, -0.21, 0.44, -0.78, 0.05];
        let q = Int4Vector::quantize(&values).unwrap();
        let deq = q.dequantize();
        // Max quantization error is scale/2.
        let half_step = q.scale() / 2.0;
        for (&orig, &d) in values.iter().zip(&deq) {
            assert!((orig - d).abs() <= half_step + 1e-6, "{orig} vs {d}");
        }
    }

    #[test]
    fn zero_vector_quantizes_to_zero() {
        let q = Int4Vector::quantize(&[0.0, 0.0]).unwrap();
        assert_eq!(q.codes(), &[0, 0]);
        assert_eq!(q.dequantize(), vec![0.0, 0.0]);
        assert_eq!(q.abs_sum(), 0);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(Int4Vector::quantize(&[]), Err(ScreenError::Empty));
    }

    #[test]
    fn dot_products_accumulate_in_int() {
        let a = Int4Vector::quantize(&[1.0, -1.0, 0.5]).unwrap();
        let b = Int4Vector::quantize(&[1.0, 1.0, 1.0]).unwrap();
        // codes a = [7, -7, 3]: 0.5/(1/7) = 3.4999998 in f32, rounds to 3.
        assert_eq!(a.dot(&b).unwrap(), (3 * 7));
    }

    #[test]
    fn matrix_quantization_row_wise() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, -0.5, 100.0, 25.0]).unwrap();
        let q = Int4Matrix::quantize(&m);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.row_codes(0), &[7, -3]); // -0.5/(1/7) = -3.4999998 -> -3
        assert_eq!(q.row_codes(1), &[7, 2]);
        assert!(q.row_scale(1) > q.row_scale(0));
    }

    #[test]
    fn matrix_matvec_tracks_dense_matvec() {
        let m = DenseMatrix::random(32, 16, 3);
        let q = Int4Matrix::quantize(&m);
        let x: Vec<f32> = (0..16).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.3).collect();
        let xq = Int4Vector::quantize(&x).unwrap();
        let approx = q.matvec(&xq).unwrap();
        let exact = m.matvec(&x).unwrap();
        // INT4 is lossy; check correlation rather than equality.
        let dot: f32 = approx.iter().zip(&exact).map(|(&a, &b)| a * b).sum();
        let na: f32 = approx.iter().map(|&a| a * a).sum::<f32>().sqrt();
        let nb: f32 = exact.iter().map(|&b| b * b).sum::<f32>().sqrt();
        let cosine = dot / (na * nb);
        assert!(cosine > 0.9, "cosine similarity {cosine}");
    }

    #[test]
    fn storage_is_half_byte_per_code() {
        let m = DenseMatrix::random(8, 10, 0);
        let q = Int4Matrix::quantize(&m);
        assert_eq!(q.storage_bytes(), 8 * 10 / 2 + 8 * 4);
        let v = Int4Vector::quantize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(v.storage_bytes(), 2 + 4);
    }

    #[test]
    fn quantized_rows_restore_to_full_quantization() {
        let before = DenseMatrix::random(8, 6, 1);
        let after = DenseMatrix::random(8, 6, 2);
        // Patch rows 2 and 5 of `before`'s quantization with freshly
        // quantized rows of `after`.
        let mut q = Int4Matrix::quantize(&before);
        let mut merged = before.clone();
        for r in [2usize, 5] {
            q.restore_row(r, &Int4Vector::quantize(after.row(r)).unwrap())
                .unwrap();
            merged.row_mut(r).copy_from_slice(after.row(r));
        }
        assert_eq!(
            q,
            Int4Matrix::quantize(&merged),
            "per-row quantization must be bitwise exact"
        );
    }

    #[test]
    fn reencode_keeps_scale_and_reports_drift() {
        let deployed = Int4Vector::quantize(&[1.0, -0.5]).unwrap().scale();
        // New values double the dynamic range: codes clamp, drift ratio 2.
        let (q, drift) = Int4Vector::reencode(&[2.0, -0.5], deployed);
        assert_eq!(q.scale(), deployed, "deployed scale retained");
        assert_eq!(q.codes()[0], INT4_MAX, "out-of-range value clamps");
        assert!((drift - 2.0).abs() < 1e-6, "drift ratio {drift}");
        let ideal = Int4Vector::quantize(&[2.0, -0.5]).unwrap();
        assert_eq!(
            Int4Vector::reencode(&[2.0, -0.5], ideal.scale()),
            (ideal, 1.0)
        );
    }

    #[test]
    fn row_images_restore_and_truncate_bitwise() {
        let m = DenseMatrix::random(6, 5, 11);
        let original = Int4Matrix::quantize(&m);
        let mut q = original.clone();
        let image = q.row_image(3);
        q.restore_row(3, &Int4Vector::quantize(&[9.0; 5]).unwrap())
            .unwrap();
        q.push_row(&Int4Vector::quantize(&[0.25; 5]).unwrap())
            .unwrap();
        q.restore_row(3, &image).unwrap();
        q.truncate_rows(6).unwrap();
        assert_eq!(q, original, "restore + truncate must undo the edits");
        let short = Int4Vector::quantize(&[1.0; 2]).unwrap();
        assert!(matches!(
            q.restore_row(0, &short),
            Err(ScreenError::DimensionMismatch { .. })
        ));
        assert_eq!(q.truncate_rows(0), Err(ScreenError::Empty));
        q.truncate_rows(2).unwrap();
        assert_eq!((q.rows(), q.row_codes(1)), (2, original.row_codes(1)));
    }

    #[test]
    fn push_row_grows_the_matrix() {
        let m = DenseMatrix::random(4, 6, 9);
        let mut q = Int4Matrix::quantize(&m);
        q.push_row(&Int4Vector::quantize(&[0.5; 6]).unwrap())
            .unwrap();
        assert_eq!(q.rows(), 5);
        assert_eq!(q.row_codes(4), &[7; 6]);
        assert!(matches!(
            q.push_row(&Int4Vector::quantize(&[1.0; 3]).unwrap()),
            Err(ScreenError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn abs_sum_orders_by_magnitude() {
        let hot = Int4Vector::quantize(&[1.0, -1.0, 1.0]).unwrap();
        let cold = Int4Vector::quantize(&[0.1, 0.0, 0.05]).unwrap();
        assert!(hot.abs_sum() > cold.abs_sum());
    }
}
