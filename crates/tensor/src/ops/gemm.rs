//! The gemm under every dense op: a straight reference kernel and one
//! register-blocked body, compiled once for AVX-512F and once for AVX2,
//! that produces the same bits.
//!
//! **Bit contract.** Every output element is `Σ_p a[i,p]·b[p,j]`, computed
//! as one accumulator that starts at `+0.0` and, for `p` ascending, adds
//! the rounded product: multiply, then add, never a fused multiply-add.
//! Blocking only decides which elements are computed together, so it
//! affects no element. The dense op's [`Epilogue`] follows the finished
//! sum: `+ bias[j]`, then `max(0.0)`, the float ops of `add` and `relu`.
//! The one thing left open is which NaN comes out of a NaN sum plus a NaN
//! bias: IEEE 754 leaves that to the hardware, and LLVM may swap an add's
//! operands.
//!
//! The reference kernel skips terms with `a[i,p] == 0.0`; the blocked
//! kernels do not, and fall back to the reference for any row they leave
//! non-finite, before the epilogue. That fallback is exact. A non-finite
//! `b[p,j]` makes column `j` non-finite in every row of a blocked kernel,
//! because `0·inf` is NaN and inf or NaN absorbs every later add;
//! likewise a non-finite `a[i,p]` poisons row `i`. So a finite blocked row
//! implies finite operands, and with finite operands a skipped term only
//! adds `±0.0` to an accumulator that starts at `+0.0` and can never
//! become `-0.0` (round-to-nearest gives `+0.0` for every exact
//! cancellation), so skipping it changes no bit.

/// What the dense op does to each finished gemm sum, in this order:
/// `+ bias[j]` on column `j`, then `max(0.0)` when `relu` is set. The
/// default does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Epilogue<'a> {
    /// One value per output column.
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) relu: bool,
}

impl Epilogue<'_> {
    /// Applies the epilogue to the finished rows `out: [_, n]`, `n > 0`.
    #[inline(always)]
    fn apply(self, out: &mut [f32], n: usize) {
        if let Some(bias) = self.bias {
            for row in out.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        if self.relu {
            for o in out.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// `out += a·b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`: the
/// straight i-k-j kernel with a zero skip. It defines the bits every other
/// kernel must reproduce, runs on hosts without AVX2, and recomputes the
/// rows the blocked kernels leave non-finite.
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

/// The gemm kernels, widest first. Every gemm runs the first one the CPU
/// supports.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// The blocked body with 32-, 16- and 8-column panels, under AVX-512F.
    Avx512,
    /// The blocked body with 16- and 8-column panels, under AVX2.
    Avx2,
    /// [`gemm_ref`], then the epilogue over all rows; any CPU.
    Reference,
}

impl Kernel {
    const ALL: [Kernel; 3] = [Kernel::Avx512, Kernel::Avx2, Kernel::Reference];

    /// Whether the running CPU can run this kernel.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512 | Kernel::Avx2 => false,
            Kernel::Reference => true,
        }
    }

    /// The widest kernel the running CPU supports.
    fn detect() -> Kernel {
        Kernel::ALL
            .into_iter()
            .find(|k| k.supported())
            .unwrap_or(Kernel::Reference)
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Avx512 => "avx512",
            Kernel::Avx2 => "avx2",
            Kernel::Reference => "reference",
        }
    }

    /// `out = epi(a·b)` for `a: [m, k]`, `b: [k, n]`, `out: [m, n]`; `out`
    /// must hold zeros on entry. Bit-identical on every kernel.
    ///
    /// # Panics
    ///
    /// Panics if the running CPU does not support this kernel.
    fn run(self, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32], epi: Epilogue) {
        if out.is_empty() {
            return;
        }
        let m = out.len() / n;
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if k == 0 {
            // Every sum is the `+0.0` already in `out`.
            epi.apply(out, n);
            return;
        }
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `blocked::avx512` only requires AVX-512F, which the
            // guard just detected on the running CPU.
            Kernel::Avx512 if self.supported() => unsafe { blocked::avx512(a, b, k, n, out, epi) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `blocked::avx2` only requires AVX2, which the guard
            // just detected on the running CPU.
            Kernel::Avx2 if self.supported() => unsafe { blocked::avx2(a, b, k, n, out, epi) },
            Kernel::Reference => {
                gemm_ref(a, b, m, k, n, out);
                epi.apply(out, n);
            }
            _ => panic!("this CPU cannot run the {} gemm kernel", self.name()),
        }
    }
}

/// Name of the gemm kernel this CPU runs: `avx512`, `avx2` or `reference`.
/// Every kernel gives the same bits; only the speed differs.
pub fn gemm_kernel() -> &'static str {
    Kernel::detect().name()
}

/// The blocked kernel body and its two compiled entry points.
#[cfg(target_arch = "x86_64")]
mod blocked {
    use super::{gemm_ref, Epilogue};

    /// Row-blocking factor: output rows computed together.
    const ROWS: usize = 4;

    /// [`body`] with 32-column panels first, compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// Callers without AVX-512F enabled at compile time must check that the
    /// CPU supports it before calling.
    #[target_feature(enable = "avx512f")]
    pub(super) fn avx512(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32], epi: Epilogue) {
        body::<32>(a, b, k, n, out, epi);
    }

    /// [`body`] with 16-column panels first, compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Callers without AVX2 enabled at compile time must check that the CPU
    /// supports it before calling.
    #[target_feature(enable = "avx2")]
    pub(super) fn avx2(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32], epi: Epilogue) {
        body::<16>(a, b, k, n, out, epi);
    }

    /// The register-blocked kernel, `k > 0` and `out` non-empty: blocks of
    /// [`ROWS`] output rows × `W` columns, then at most one 16-column block
    /// (when `W` is wider), one 8-column block, and the last `n % 8` columns
    /// as an 8-column block over a zero-padded copy of `b` whose padding is
    /// never stored. Each finished row block gets the reference fallback,
    /// then the epilogue, while it is still in L1. Safe Rust: the caller's
    /// target feature lets LLVM keep each block's accumulators in vector
    /// registers.
    #[inline(always)]
    fn body<const W: usize>(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        epi: Epilogue,
    ) {
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
                4 => rows::<4, W>(a_blk, b, &b_tail, o_blk),
                3 => rows::<3, W>(a_blk, b, &b_tail, o_blk),
                2 => rows::<2, W>(a_blk, b, &b_tail, o_blk),
                _ => rows::<1, W>(a_blk, b, &b_tail, o_blk),
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
            epi.apply(o_blk, n);
        }
    }

    /// Whether every element is finite; a branch-free fold, so it vectorizes.
    #[inline(always)]
    fn all_finite(v: &[f32]) -> bool {
        !v.iter().fold(false, |bad, x| bad | !x.is_finite())
    }

    /// Computes the `R` output rows of `a_blk: [R, k]` into `out: [R, n]`
    /// with `W`-column panels first; `b_tail` holds the last `n % 8` columns
    /// of `b: [k, n]` zero-padded to `[k, 8]` (empty when `n % 8 == 0`).
    #[inline(always)]
    fn rows<const R: usize, const W: usize>(
        a_blk: &[f32],
        b: &[f32],
        b_tail: &[f32],
        out: &mut [f32],
    ) {
        let k = a_blk.len() / R;
        let n = out.len() / R;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a_blk[r * k..(r + 1) * k]);
        let mut j = 0;
        while j + W <= n {
            let acc = panel::<R, W>(&arows, b, n, j);
            store(&acc, out, n, j, W);
            j += W;
        }
        if W > 16 && j + 16 <= n {
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

/// Row-parallel `out = epi(a·b)` (`out` zeroed on entry) on the widest
/// kernel the CPU supports. Output rows depend only on the matching rows
/// of `a`, and every row's bits are independent of how rows are blocked or
/// split and of the kernel, so the result is bit-identical at any thread
/// count (the determinism contract) and on any x86-64 CPU.
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    epi: Epilogue,
) {
    if out.is_empty() {
        return;
    }
    let kernel = Kernel::detect();
    tp_par::for_each_rows_mut_costed(
        &GEMM_COST,
        out,
        n,
        (m * k * n) as u64,
        |_, rows, out_rows| {
            kernel.run(&a[rows.start * k..rows.end * k], b, k, n, out_rows, epi);
        },
    );
}

#[cfg(test)]
mod tests {
    use tp_rng::{prop, Rng, StdRng};

    use super::{gemm_ref, Epilogue, Kernel};

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

    /// The kernels this CPU supports: each is tested, not only the one
    /// `gemm` dispatches to.
    fn supported() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.supported()).collect()
    }

    /// The sums every kernel must give: [`gemm_ref`]'s.
    fn reference_sums(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        gemm_ref(a, b, m, k, n, &mut out);
        out
    }

    #[test]
    fn every_supported_kernel_is_bit_identical_to_reference() {
        prop::check(
            "every_supported_kernel_is_bit_identical_to_reference",
            256,
            |rng| {
                // Dimensions cover 0, row tails (m % 4), every mix of 32-,
                // 16- and 8-column blocks and every column tail (n % 8).
                let m = rng.gen_range(0..11usize);
                let k = rng.gen_range(0..20usize);
                let n = rng.gen_range(0..81usize);
                let special_a = rng.gen_range(0..4u32) == 0;
                let special_b = rng.gen_range(0..4u32) == 0;
                let a: Vec<f32> = (0..m * k).map(|_| entry(rng, special_a)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| entry(rng, special_b)).collect();
                let bias: Option<Vec<f32>> = match rng.gen_range(0..3u32) {
                    0 => None,
                    1 => Some((0..n).map(|_| entry(rng, false)).collect()),
                    _ => Some((0..n).map(|_| entry(rng, true)).collect()),
                };
                let epi = Epilogue {
                    bias: bias.as_deref(),
                    relu: rng.gen_range(0..2u32) == 0,
                };
                let sums = reference_sums(&a, &b, (m, k, n));
                for kernel in supported() {
                    let mut got = vec![0.0; m * n];
                    kernel.run(&a, &b, k, n, &mut got, epi);
                    for (i, (&sum, &got)) in sums.iter().zip(&got).enumerate() {
                        // The epilogue as `add` and `relu` compute it.
                        let bv = epi.bias.map(|bias| bias[i % n]);
                        let biased = bv.map_or(sum, |bv| sum + bv);
                        let want = if epi.relu { biased.max(0.0) } else { biased };
                        // IEEE 754 leaves open which NaN `NaN + NaN`
                        // returns: x86 returns its first operand, and LLVM
                        // may swap an add's operands. Every other bit is
                        // part of the contract.
                        let either_nan = sum.is_nan() && bv.is_some_and(f32::is_nan);
                        let same = if either_nan && !epi.relu {
                            got.is_nan()
                        } else {
                            got.to_bits() == want.to_bits()
                        };
                        assert!(
                            same,
                            "{kernel:?} at {m}x{k}x{n}, element {i}: {got:?} ({:#x}), \
                             want {want:?} ({:#x}); {epi:?}",
                            got.to_bits(),
                            want.to_bits()
                        );
                    }
                }
            },
        );
    }

    #[test]
    fn zero_times_inf_takes_the_reference_path() {
        // 0·inf is NaN in a kernel without the zero skip; the reference
        // skips the term, so the fallback must restore the finite row.
        let a = [0.0, 1.0];
        let b = [f32::INFINITY, 2.0];
        for kernel in supported() {
            let mut got = vec![0.0; 1];
            kernel.run(&a, &b, 2, 1, &mut got, Epilogue::default());
            assert_eq!(got, vec![2.0], "{kernel:?}");
        }
    }
}
