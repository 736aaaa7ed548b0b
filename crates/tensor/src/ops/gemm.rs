//! The gemm under every dense op: a straight reference kernel and an AVX2
//! register-blocked kernel that produces the same bits.
//!
//! **Bit contract.** Every output element is `Σ_p a[i,p]·b[p,j]`, computed
//! as one accumulator that starts at `+0.0` and, for `p` ascending, adds
//! the rounded product: multiply, then add, never a fused multiply-add.
//! Blocking only decides which elements are computed together, so it
//! affects no element.
//!
//! The reference kernel skips terms with `a[i,p] == 0.0`; the AVX2 kernel
//! does not, and falls back to the reference for any row it leaves
//! non-finite. That fallback is exact. A non-finite `b[p,j]` makes column
//! `j` non-finite in every row of the AVX2 kernel, because `0·inf` is NaN
//! and inf or NaN absorbs every later add; likewise a non-finite `a[i,p]`
//! poisons row `i`. So a finite AVX2 row implies finite operands, and with
//! finite operands a skipped term only adds `±0.0` to an accumulator that
//! starts at `+0.0` and can never become `-0.0` (round-to-nearest gives
//! `+0.0` for every exact cancellation), so skipping it changes no bit.

/// `out += a·b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`: the
/// straight i-k-j kernel with a zero skip. It defines the bits every other
/// kernel must reproduce, runs on hosts without AVX2, and recomputes the
/// rows the AVX2 kernel leaves non-finite.
fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a·b` on the fastest kernel the host supports; `out` must hold
/// zeros on entry. Bit-identical to [`gemm_ref`] on every input.
fn gemm_rows(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::gemm_rows` only requires AVX2, which the running
        // CPU was just detected to support.
        unsafe { avx2::gemm_rows(a, b, m, k, n, out) };
        return;
    }
    gemm_ref(a, b, m, k, n, out);
}

/// The AVX2 kernel and its helpers.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::gemm_ref;

    /// Row-blocking factor: output rows computed together.
    const ROWS: usize = 4;

    /// The register-blocked kernel: blocks of [`ROWS`] output rows × 16
    /// columns, then one 8-column block, then the last `n % 8` columns as an
    /// 8-column block over a zero-padded copy of `b` whose padding is never
    /// stored. Safe Rust: the target feature lets LLVM keep each block's
    /// accumulators in AVX registers.
    ///
    /// # Safety
    ///
    /// Callers without AVX2 enabled at compile time must check that the CPU
    /// supports it before calling.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 || k == 0 {
            return; // `out` already holds the zeros the reference would leave
        }
        let tail = n % 8;
        let b_tail: Vec<f32> = if tail == 0 {
            Vec::new()
        } else {
            let mut padded = vec![0.0; k * 8];
            for (dst, brow) in padded.chunks_exact_mut(8).zip(b.chunks_exact(n)) {
                dst[..tail].copy_from_slice(&brow[n - tail..]);
            }
            padded
        };
        for (a_blk, o_blk) in a.chunks(ROWS * k).zip(out.chunks_mut(ROWS * n)) {
            match a_blk.len() / k {
                4 => rows::<4>(a_blk, b, &b_tail, o_blk),
                3 => rows::<3>(a_blk, b, &b_tail, o_blk),
                2 => rows::<2>(a_blk, b, &b_tail, o_blk),
                _ => rows::<1>(a_blk, b, &b_tail, o_blk),
            }
            // Reading back the rows just written keeps the check O(m·n): a
            // scan of `b` on every call would cost O(k·n) even for one row.
            if !all_finite(o_blk) {
                for (arow, orow) in a_blk.chunks_exact(k).zip(o_blk.chunks_exact_mut(n)) {
                    if !all_finite(orow) {
                        orow.fill(0.0);
                        gemm_ref(arow, b, 1, k, n, orow);
                    }
                }
            }
        }
    }

    /// Whether every element is finite; a branch-free fold, so it vectorizes.
    #[inline(always)]
    fn all_finite(v: &[f32]) -> bool {
        !v.iter().fold(false, |bad, x| bad | !x.is_finite())
    }

    /// Computes the `R` output rows of `a_blk: [R, k]` into `out: [R, n]`;
    /// `b_tail` holds the last `n % 8` columns of `b: [k, n]` zero-padded to
    /// `[k, 8]` (empty when `n % 8 == 0`).
    #[inline(always)]
    fn rows<const R: usize>(a_blk: &[f32], b: &[f32], b_tail: &[f32], out: &mut [f32]) {
        let k = a_blk.len() / R;
        let n = out.len() / R;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a_blk[r * k..(r + 1) * k]);
        let mut j = 0;
        while j + 16 <= n {
            let acc = panel::<R, 16>(&arows, b, n, j);
            store(&acc, out, n, j, 16);
            j += 16;
        }
        if j + 8 <= n {
            let acc = panel::<R, 8>(&arows, b, n, j);
            store(&acc, out, n, j, 8);
            j += 8;
        }
        if j < n {
            let acc = panel::<R, 8>(&arows, b_tail, 8, 0);
            store(&acc, out, n, j, n - j);
        }
    }

    /// One `R × W` block: `acc[r][c] = Σ_p arows[r][p] · b[p][j + c]`, `p`
    /// ascending, multiply then add.
    #[inline(always)]
    fn panel<const R: usize, const W: usize>(
        arows: &[&[f32]; R],
        b: &[f32],
        ldb: usize,
        j: usize,
    ) -> [[f32; W]; R] {
        let mut acc = [[0.0f32; W]; R];
        for (p, brow) in b.chunks_exact(ldb).enumerate() {
            let bv: &[f32; W] = brow[j..j + W].try_into().expect("panel fits in the row");
            for (acc_r, arow) in acc.iter_mut().zip(arows) {
                let av = arow[p];
                for (o, &bv) in acc_r.iter_mut().zip(bv) {
                    *o += av * bv;
                }
            }
        }
        acc
    }

    /// Writes the first `w` columns of each accumulator row to `out[.., j..]`.
    #[inline(always)]
    fn store<const R: usize, const W: usize>(
        acc: &[[f32; W]; R],
        out: &mut [f32],
        n: usize,
        j: usize,
        w: usize,
    ) {
        for (acc_r, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
            orow[j..j + w].copy_from_slice(&acc_r[..w]);
        }
    }
}

/// Adaptive dispatch for the gemm: units are multiply-adds (`m·k·n`), the
/// seed assumes ~1 ns per multiply-add, and the model converges on the
/// machine's measured throughput after a few regions.
static GEMM_COST: tp_par::CostModel = tp_par::CostModel::new("tensor.gemm", 1.0);

/// Row-parallel `out = a·b` (`out` zeroed on entry). Output rows depend
/// only on the matching rows of `a`, and every row's bits are independent
/// of how rows are blocked or split, so the result is bit-identical at any
/// thread count (the determinism contract).
pub(crate) fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    tp_par::for_each_rows_mut_costed(
        &GEMM_COST,
        out,
        n,
        (m * k * n) as u64,
        |_, rows, out_rows| {
            gemm_rows(
                &a[rows.start * k..rows.end * k],
                b,
                rows.len(),
                k,
                n,
                out_rows,
            );
        },
    );
}

#[cfg(test)]
mod tests {
    use tp_rng::{prop, Rng, StdRng};

    use super::{gemm_ref, gemm_rows};

    /// One operand entry: mostly ordinary values, with exact zeros, `-0.0`
    /// and (when `special`) NaN and ±inf mixed in.
    fn entry(rng: &mut StdRng, special: bool) -> f32 {
        match rng.gen_range(0..24u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 if special => f32::NAN,
            4 if special => f32::INFINITY,
            5 if special => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dispatching_gemm_is_bit_identical_to_reference() {
        prop::check(
            "dispatching_gemm_is_bit_identical_to_reference",
            256,
            |rng| {
                // Dimensions cover 0, row tails (m % 4), both column blocks
                // and every column tail (n % 16, n % 8).
                let m = rng.gen_range(0..11usize);
                let k = rng.gen_range(0..20usize);
                let n = rng.gen_range(0..41usize);
                let special_a = rng.gen_range(0..4u32) == 0;
                let special_b = rng.gen_range(0..4u32) == 0;
                let a: Vec<f32> = (0..m * k).map(|_| entry(rng, special_a)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| entry(rng, special_b)).collect();
                let mut want = vec![0.0; m * n];
                gemm_ref(&a, &b, m, k, n, &mut want);
                let mut got = vec![0.0; m * n];
                gemm_rows(&a, &b, m, k, n, &mut got);
                assert_eq!(bits(&want), bits(&got), "bits differ at {m}x{k}x{n}");
            },
        );
    }

    #[test]
    fn zero_times_inf_takes_the_reference_path() {
        // 0·inf is NaN in a kernel without the zero skip; the reference
        // skips the term, so the fallback must restore the finite row.
        let a = [0.0, 1.0];
        let b = [f32::INFINITY, 2.0];
        let mut got = vec![0.0; 1];
        gemm_rows(&a, &b, 1, 2, 1, &mut got);
        assert_eq!(got, vec![2.0]);
    }
}
