//! Quantized weight containers: the Q8_0 block format and the f16 format.
//!
//! # Q8_0 layout
//!
//! Following the ggml family of block formats, a Q8_0 tensor is split into
//! rows of its *reduction* axis (the per-output-channel `k` vector a
//! quantized dot product runs over) and each row into blocks of
//! [`QK8_0`] = 32 elements. Every block carries one f32 scale
//! `s = max|x| / 127` and 32 signed bytes `q = round(x / s)`, so a block
//! serialises to 36 bytes (`4 + 32`) — 1.125 bytes per weight against f32's
//! four. Blocks never cross row boundaries; a row whose `k` is not a
//! multiple of 32 zero-pads its final block, which contributes exactly
//! nothing to dot products and keeps every kernel loop block-aligned.
//!
//! Rows follow the weight's consumer:
//!
//! * conv3d weights `(C_out, C_in, KD, KH, KW)` quantize **natural** —
//!   one row per output channel, `k = C_in·KD·KH·KW`, which is exactly the
//!   patch-row reduction the conv kernel performs;
//! * matmul weights `(k, n)` quantize **transposed** — one row per output
//!   column, so the quantized dot runs over contiguous bytes.
//!
//! The f16 format (see [`crate::f16`]) covers everything the block format
//! does not pay for: biases, transposed-convolution weights and other
//! small or irregular parameters.

use bikecap_tensor::Tensor;

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};

/// Elements per Q8_0 block.
pub const QK8_0: usize = 32;

/// Serialised bytes per Q8_0 block: one little-endian f32 scale + 32 `i8`s.
pub const Q8_BLOCK_BYTES: usize = 4 + QK8_0;

/// A block-quantized Q8_0 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Q8Tensor {
    /// Logical f32 shape of the parameter this tensor stands in for.
    shape: Vec<usize>,
    /// Quantized rows (output channels).
    rows: usize,
    /// Logical reduction length per row.
    k: usize,
    /// Blocks per row: `ceil(k / 32)`.
    blocks_per_row: usize,
    /// Per-block scales, `rows * blocks_per_row`, row-major.
    scales: Vec<f32>,
    /// Quantized data, `rows * blocks_per_row * 32`, row-major and
    /// zero-padded past `k` in each row's final block.
    qs: Vec<i8>,
    /// True when the quantized rows are the *columns* of the logical
    /// `(k, rows)` matrix (matmul weight layout).
    transposed: bool,
}

/// A half-precision tensor (software binary16, see [`crate::f16`]).
#[derive(Debug, Clone, PartialEq)]
pub struct F16Tensor {
    shape: Vec<usize>,
    bits: Vec<u16>,
}

/// One checkpoint entry after quantization: kept f32, or one of the two
/// quantized formats.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantEntry {
    /// Left at full precision.
    F32(Tensor),
    /// Q8_0 block-quantized.
    Q8(Q8Tensor),
    /// Software binary16.
    F16(F16Tensor),
}

/// The target format of a quantization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantFormat {
    /// Q8_0 blocks for eligible weights, f16 for the rest (the workhorse).
    Q8_0,
    /// Every parameter to f16.
    F16,
}

impl QuantFormat {
    /// Parses a `--format` CLI value.
    pub fn parse(s: &str) -> Option<QuantFormat> {
        match s {
            "q8_0" | "q8" => Some(QuantFormat::Q8_0),
            "f16" => Some(QuantFormat::F16),
            _ => None,
        }
    }

    /// The canonical spelling (`q8_0` / `f16`).
    pub fn name(self) -> &'static str {
        match self {
            QuantFormat::Q8_0 => "q8_0",
            QuantFormat::F16 => "f16",
        }
    }
}

/// A failed dequantization. Only ever produced by the `quant.dequant.block`
/// failpoint (dequantization itself is total), but typed so container
/// loaders surface it like any other corruption.
#[derive(Debug)]
pub struct DequantError {
    /// Row-major block index the failure was injected at.
    pub block: usize,
    /// The injected fault.
    pub fault: bikecap_faults::FaultError,
}

impl std::fmt::Display for DequantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dequantizing block {}: {}", self.block, self.fault)
    }
}

impl std::error::Error for DequantError {}

impl Q8Tensor {
    /// Quantizes `values` (row-major `rows x k`, the natural conv weight
    /// layout) with one scale per 32-element block.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * k` or `k == 0`.
    pub fn quantize(values: &[f32], shape: &[usize], rows: usize, k: usize) -> Q8Tensor {
        Self::quantize_rows(values, shape, rows, k, false)
    }

    /// Quantizes a logical `(k, n)` matmul weight into `n` transposed rows
    /// of length `k`, so quantized dot products run over contiguous bytes.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n * k` or `k == 0`.
    pub fn quantize_transposed(values: &[f32], shape: &[usize], k: usize, n: usize) -> Q8Tensor {
        Self::quantize_rows(values, shape, n, k, true)
    }

    fn quantize_rows(
        values: &[f32],
        shape: &[usize],
        rows: usize,
        k: usize,
        transposed: bool,
    ) -> Q8Tensor {
        assert!(k > 0, "Q8Tensor: zero-length reduction axis");
        assert_eq!(values.len(), rows * k, "Q8Tensor: value count mismatch");
        let blocks_per_row = k.div_ceil(QK8_0);
        let mut scales = Vec::with_capacity(rows * blocks_per_row);
        let mut qs = Vec::with_capacity(rows * blocks_per_row * QK8_0);
        for r in 0..rows {
            for b in 0..blocks_per_row {
                let start = b * QK8_0;
                let len = (k - start).min(QK8_0);
                let mut amax = 0.0f32;
                for i in 0..len {
                    let v = if transposed {
                        values[(start + i) * rows + r]
                    } else {
                        values[r * k + start + i]
                    };
                    amax = amax.max(v.abs());
                }
                let scale = amax / 127.0;
                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                scales.push(scale);
                for i in 0..QK8_0 {
                    let q = if i < len {
                        let v = if transposed {
                            values[(start + i) * rows + r]
                        } else {
                            values[r * k + start + i]
                        };
                        (v * inv).round().clamp(-127.0, 127.0) as i8
                    } else {
                        0
                    };
                    qs.push(q);
                }
            }
        }
        Q8Tensor {
            shape: shape.to_vec(),
            rows,
            k,
            blocks_per_row,
            scales,
            qs,
            transposed,
        }
    }

    /// Logical f32 shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Quantized rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction length per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Blocks per row.
    pub fn blocks_per_row(&self) -> usize {
        self.blocks_per_row
    }

    /// Whether rows are the columns of the logical `(k, rows)` matrix.
    pub fn transposed(&self) -> bool {
        self.transposed
    }

    /// Per-block scales, row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantized bytes, row-major, zero-padded per row.
    pub fn qs(&self) -> &[i8] {
        &self.qs
    }

    /// Expands back to a logical-shape f32 tensor.
    ///
    /// # Errors
    ///
    /// [`DequantError`] when the `quant.dequant.block` failpoint fires.
    pub fn dequantize(&self) -> Result<Tensor, DequantError> {
        let mut out = vec![0.0f32; self.rows * self.k];
        for r in 0..self.rows {
            for b in 0..self.blocks_per_row {
                let block = r * self.blocks_per_row + b;
                if let Some(fault) = bikecap_faults::hit("quant.dequant.block") {
                    return Err(DequantError { block, fault });
                }
                let scale = self.scales[block];
                let start = b * QK8_0;
                let len = (self.k - start).min(QK8_0);
                for i in 0..len {
                    let v = self.qs[block * QK8_0 + i] as f32 * scale;
                    if self.transposed {
                        out[(start + i) * self.rows + r] = v;
                    } else {
                        out[r * self.k + start + i] = v;
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, &self.shape))
    }

    /// Serialises to the container payload: per row, per block, a
    /// little-endian f32 scale followed by 32 raw `i8`s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let blocks = self.rows * self.blocks_per_row;
        let mut bytes = Vec::with_capacity(blocks * Q8_BLOCK_BYTES);
        for block in 0..blocks {
            bytes.extend_from_slice(&self.scales[block].to_le_bytes());
            for i in 0..QK8_0 {
                bytes.push(self.qs[block * QK8_0 + i] as u8);
            }
        }
        bytes
    }

    /// Rebuilds a tensor from [`Q8Tensor::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when `bytes` has the wrong length for
    /// the geometry implied by `shape` and `transposed`.
    pub fn from_bytes(shape: &[usize], transposed: bool, bytes: &[u8]) -> Result<Q8Tensor, String> {
        let (rows, k) = q8_geometry(shape, transposed)?;
        let blocks_per_row = k.div_ceil(QK8_0);
        let blocks = rows * blocks_per_row;
        if bytes.len() != blocks * Q8_BLOCK_BYTES {
            return Err(format!(
                "q8_0 payload is {} byte(s), geometry {rows}x{k} needs {}",
                bytes.len(),
                blocks * Q8_BLOCK_BYTES
            ));
        }
        let mut scales = Vec::with_capacity(blocks);
        let mut qs = Vec::with_capacity(blocks * QK8_0);
        for block in 0..blocks {
            let at = block * Q8_BLOCK_BYTES;
            let mut sb = [0u8; 4];
            sb.copy_from_slice(&bytes[at..at + 4]);
            scales.push(f32::from_le_bytes(sb));
            for i in 0..QK8_0 {
                qs.push(bytes[at + 4 + i] as i8);
            }
        }
        Ok(Q8Tensor {
            shape: shape.to_vec(),
            rows,
            k,
            blocks_per_row,
            scales,
            qs,
            transposed,
        })
    }
}

/// Derives `(rows, k)` from a logical shape and the transposition flag:
/// natural rows are `shape[0]` with `k` the trailing product; transposed
/// rows are `shape[1]` of a rank-2 `(k, n)` matrix.
///
/// # Errors
///
/// A description when the shape cannot carry the requested layout.
pub fn q8_geometry(shape: &[usize], transposed: bool) -> Result<(usize, usize), String> {
    if transposed {
        let [k, n] = shape else {
            return Err(format!("transposed q8_0 needs a rank-2 shape, got {shape:?}"));
        };
        if *k == 0 || *n == 0 {
            return Err(format!("transposed q8_0 shape has a zero extent: {shape:?}"));
        }
        Ok((*n, *k))
    } else {
        let Some((&rows, rest)) = shape.split_first() else {
            return Err("q8_0 needs a non-empty shape".to_string());
        };
        let k: usize = rest.iter().product();
        if rows == 0 || k == 0 {
            return Err(format!("q8_0 shape has a zero extent: {shape:?}"));
        }
        Ok((rows, k))
    }
}

impl F16Tensor {
    /// Narrows an f32 tensor to binary16.
    pub fn quantize(t: &Tensor) -> F16Tensor {
        F16Tensor {
            shape: t.shape().to_vec(),
            bits: t.as_slice().iter().map(|&v| f32_to_f16_bits(v)).collect(),
        }
    }

    /// Logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Raw binary16 bit patterns.
    pub fn bits(&self) -> &[u16] {
        &self.bits
    }

    /// Widens back to an f32 tensor (exact per element).
    pub fn dequantize(&self) -> Tensor {
        let data = self.bits.iter().map(|&b| f16_bits_to_f32(b)).collect();
        Tensor::from_vec(data, &self.shape)
    }

    /// Serialises to the container payload: little-endian u16 per value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.bits.len() * 2);
        for &b in &self.bits {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        bytes
    }

    /// Rebuilds a tensor from [`F16Tensor::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when `bytes` does not hold exactly two
    /// bytes per element of `shape`.
    pub fn from_bytes(shape: &[usize], bytes: &[u8]) -> Result<F16Tensor, String> {
        let len: usize = shape.iter().product();
        if bytes.len() != len * 2 {
            return Err(format!(
                "f16 payload is {} byte(s), shape {shape:?} needs {}",
                bytes.len(),
                len * 2
            ));
        }
        let bits = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        Ok(F16Tensor {
            shape: shape.to_vec(),
            bits,
        })
    }
}

/// The Q8_0 eligibility policy, by parameter name and shape:
///
/// * rank-5 conv weights (`*.weight` not under a `deconv`, plus the routing
///   transforms) quantize natural — `Some((shape[0], k, false))`;
/// * rank-2 `*.weight` matrices (linear layers) quantize transposed —
///   `Some((n, k, true))`;
/// * everything else — biases, transposed-conv weights, per-slot 2-D conv
///   weights, odd ranks — returns `None` and falls back to f16.
///
/// Transposed-convolution weights are `(C_in, C_out, …)`, so their leading
/// axis is *not* an output channel and the block layout cannot follow the
/// kernel's reduction; they stay out of Q8_0 by name.
pub fn q8_eligible(name: &str, shape: &[usize]) -> Option<(usize, usize, bool)> {
    match shape.len() {
        5 if !name.contains("deconv")
            && (name.ends_with(".weight") || name.starts_with("routing.transform")) =>
        {
            let k: usize = shape[1..].iter().product();
            (shape[0] > 0 && k > 0).then_some((shape[0], k, false))
        }
        2 if name.ends_with(".weight") => {
            (shape[0] > 0 && shape[1] > 0).then_some((shape[1], shape[0], true))
        }
        _ => None,
    }
}

/// Quantizes one named parameter under `format` per the eligibility policy.
pub fn quantize_tensor(name: &str, value: &Tensor, format: QuantFormat) -> QuantEntry {
    match format {
        QuantFormat::F16 => QuantEntry::F16(F16Tensor::quantize(value)),
        QuantFormat::Q8_0 => match q8_eligible(name, value.shape()) {
            Some((rows, k, false)) => {
                QuantEntry::Q8(Q8Tensor::quantize(value.as_slice(), value.shape(), rows, k))
            }
            Some((n, k, true)) => QuantEntry::Q8(Q8Tensor::quantize_transposed(
                value.as_slice(),
                value.shape(),
                k,
                n,
            )),
            None => QuantEntry::F16(F16Tensor::quantize(value)),
        },
    }
}

/// Quantizes a whole checkpoint's parameter list under `format`.
pub fn quantize_pairs(pairs: &[(String, Tensor)], format: QuantFormat) -> Vec<(String, QuantEntry)> {
    pairs
        .iter()
        .map(|(name, value)| (name.clone(), quantize_tensor(name, value, format)))
        .collect()
}

impl QuantEntry {
    /// Logical f32 shape of the entry.
    pub fn shape(&self) -> &[usize] {
        match self {
            QuantEntry::F32(t) => t.shape(),
            QuantEntry::Q8(q) => q.shape(),
            QuantEntry::F16(h) => h.shape(),
        }
    }

    /// Expands the entry to full precision.
    ///
    /// # Errors
    ///
    /// [`DequantError`] when the `quant.dequant.block` failpoint fires on a
    /// Q8_0 entry.
    pub fn dequantize(&self) -> Result<Tensor, DequantError> {
        match self {
            QuantEntry::F32(t) => Ok(t.clone()),
            QuantEntry::Q8(q) => q.dequantize(),
            QuantEntry::F16(h) => Ok(h.dequantize()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * 0.37).sin() * 3.0).collect()
    }

    #[test]
    fn q8_round_trip_error_is_bounded_by_scale() {
        let rows = 4;
        let k = 50; // exercises a padded final block
        let vals = ramp(rows * k);
        let q = Q8Tensor::quantize(&vals, &[rows, k], rows, k);
        let back = q.dequantize().expect("no failpoints armed");
        for (r, chunk) in back.as_slice().chunks(k).enumerate() {
            for (i, (&a, &b)) in vals[r * k..(r + 1) * k].iter().zip(chunk).enumerate() {
                let block = i / QK8_0;
                let tol = q.scales()[r * q.blocks_per_row() + block] * 0.5 + 1e-7;
                assert!((a - b).abs() <= tol, "row {r} elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn q8_transposed_round_trips_through_bytes() {
        let (k, n) = (40, 6);
        let vals = ramp(k * n);
        let q = Q8Tensor::quantize_transposed(&vals, &[k, n], k, n);
        let bytes = q.to_bytes();
        let q2 = Q8Tensor::from_bytes(&[k, n], true, &bytes).expect("geometry matches");
        assert_eq!(q, q2);
        assert_eq!(
            q.dequantize().expect("no faults").as_slice(),
            q2.dequantize().expect("no faults").as_slice()
        );
    }

    #[test]
    fn q8_from_bytes_rejects_wrong_length() {
        let err = Q8Tensor::from_bytes(&[2, 32], false, &[0u8; 10]).expect_err("short payload");
        assert!(err.contains("needs"), "unexpected message: {err}");
    }

    #[test]
    fn q8_zero_row_quantizes_to_zero_scale() {
        let vals = vec![0.0f32; 32];
        let q = Q8Tensor::quantize(&vals, &[1, 32], 1, 32);
        assert_eq!(q.scales(), &[0.0]);
        assert!(q.dequantize().expect("no faults").as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f16_round_trips_through_bytes() {
        let vals = ramp(23);
        let t = Tensor::from_vec(vals, &[23]);
        let h = F16Tensor::quantize(&t);
        let h2 = F16Tensor::from_bytes(&[23], &h.to_bytes()).expect("length matches");
        assert_eq!(h, h2);
    }

    #[test]
    fn policy_routes_conv_weights_to_q8_and_biases_to_f16() {
        assert_eq!(
            q8_eligible("hist.conv3d0.weight", &[8, 4, 3, 3, 3]),
            Some((8, 108, false))
        );
        assert_eq!(
            q8_eligible("routing.transform", &[16, 1, 4, 3, 3]),
            Some((16, 36, false))
        );
        assert_eq!(q8_eligible("head.weight", &[64, 10]), Some((10, 64, true)));
        assert_eq!(q8_eligible("decoder.deconv1.weight", &[4, 8, 3, 3, 3]), None);
        assert_eq!(q8_eligible("hist.pyramid0.bias", &[1, 4, 1, 1, 1]), None);
    }

    #[test]
    fn q8_format_falls_back_to_f16_for_ineligible_params() {
        let bias = Tensor::zeros(&[1, 4, 1, 1, 1]);
        match quantize_tensor("x.bias", &bias, QuantFormat::Q8_0) {
            QuantEntry::F16(_) => {}
            other => panic!("expected f16 fallback, got {other:?}"),
        }
    }

}
