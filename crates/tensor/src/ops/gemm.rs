//! The gemm under every dense op and its weight gradient: a straight
//! reference kernel and one register-blocked body, compiled once for
//! AVX-512F and once for AVX2, that produces the same bits.
//!
//! **Bit contract.** Every output element is `Σ_p a[i,p]·b[p,j]`, computed
//! as one accumulator that starts at `+0.0` and, for `p` ascending, adds
//! the rounded product: multiply, then add, never a fused multiply-add.
//! [`gemm`] reads `a` as stored; [`gemm_tn`] reads `a = xᵀ` down the
//! columns of `x` in place, so the weight gradient `xᵀ·g` has the bits of
//! a gemm on the explicit transpose. Blocking only decides which elements
//! are computed together, so it affects no element. That includes the row
//! panels: the blocked body walks `p` in panels (of 64 steps for the
//! weight gradient; the dense gemm takes one), and a block's accumulators
//! carry from one panel to the next through `out`, whose `f32` store and
//! reload are exact. The dense op's [`Epilogue`]
//! follows the finished sum: `+ bias[j]`, then `max(0.0)`, the float ops
//! of `add` and `relu`. The one thing left open is which NaN comes out of
//! a NaN sum plus a NaN bias: IEEE 754 leaves that to the hardware, and
//! LLVM may swap an add's operands.
//!
//! The reference kernel skips terms with `a[i,p] == 0.0`; the blocked
//! kernels do not, and fall back to the reference for any row they leave
//! non-finite after the last panel, before the epilogue. That fallback is
//! exact. A non-finite `b[p,j]` makes column `j` non-finite in every row
//! of a blocked kernel, because `0·inf` is NaN and inf or NaN absorbs
//! every later add; likewise a non-finite `a[i,p]` poisons row `i`. So a
//! finite blocked row implies finite operands, and with finite operands a
//! skipped term only adds `±0.0` to an accumulator that starts at `+0.0`
//! and can never become `-0.0` (round-to-nearest gives `+0.0` for every
//! exact cancellation), so skipping it changes no bit.

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

/// The left operand `a` as the kernels read it, row `i` of `a` being what
/// output row `i` multiplies.
trait Lhs: Copy {
    /// Reduction steps per row panel of the blocked body.
    const PANEL: usize;

    /// Rows `i..i + R` of `a` over the `steps` reduction steps from `p0`:
    /// `rows[r].at(p)` is `a[i + r, p0 + p]`. Built once per block and
    /// panel, outside the hot loop.
    fn rows<const R: usize>(self, i: usize, p0: usize, steps: usize) -> [impl Row; R];
}

/// One row of `a` over a row panel, indexed by the step within the panel.
trait Row {
    fn at(&self, p: usize) -> f32;
}

impl Row for &[f32] {
    #[inline(always)]
    fn at(&self, p: usize) -> f32 {
        self[p]
    }
}

/// Row-major `a: [m, k]` as stored (`gemm`).
#[derive(Clone, Copy)]
struct Rows<'a> {
    a: &'a [f32],
    k: usize,
}

impl Lhs for Rows<'_> {
    /// One panel: a dense layer reduces over at most a few hundred inputs
    /// into an output of up to tens of MiB, so each output block is
    /// written once.
    const PANEL: usize = usize::MAX;

    #[inline(always)]
    fn rows<const R: usize>(self, i: usize, p0: usize, steps: usize) -> [impl Row; R] {
        // Cut from one block slice, the `R` rows visibly share a length, so
        // one bound check per step covers them all; cut from `a` directly,
        // each kept its own check, and the dense kernel ran ~30 % slower
        // on a Sapphire Rapids core.
        let k = self.k;
        let blk = &self.a[i * k..(i + R) * k];
        std::array::from_fn(|r| &blk[r * k + p0..r * k + p0 + steps])
    }
}

/// `a = xᵀ` for row-major `x` with `ld` columns, from column `c` on:
/// `a[i, p] = x[p, c + i]` (`gemm_tn`), so row `i` of `a` is column
/// `c + i` of `x`, read in place.
#[derive(Clone, Copy)]
struct Cols<'a> {
    x: &'a [f32],
    ld: usize,
    c: usize,
}

impl Lhs for Cols<'_> {
    /// A weight gradient reduces over every row of the batch into a small
    /// output. In panels of 64 rows of `x` and `g`, every output block
    /// sweeps a panel while it is still in cache; on a Sapphire Rapids
    /// core, panels of 128 ran 15–20 % slower at 46,631×64×64.
    const PANEL: usize = 64;

    #[inline(always)]
    fn rows<const R: usize>(self, i: usize, p0: usize, steps: usize) -> [impl Row; R] {
        // Every column gets a slice of the same length, from its first
        // element in the panel to its last, so one bound check per step
        // covers all `R` of them.
        let len = (steps - 1) * self.ld + 1;
        let at = p0 * self.ld + self.c + i;
        std::array::from_fn(|r| Column {
            x: &self.x[at + r..at + r + len],
            ld: self.ld,
        })
    }
}

/// One column of a row-major `x` with `ld` columns, from its first element
/// in a panel on, as a row of `xᵀ`.
struct Column<'a> {
    x: &'a [f32],
    ld: usize,
}

impl Row for Column<'_> {
    #[inline(always)]
    fn at(&self, p: usize) -> f32 {
        self.x[p * self.ld]
    }
}

/// `out += a·b` for `b: [k, n]` and `out: [rows, n]`, where output row `r`
/// is row `i + r` of `a`: the straight kernel with a zero skip, `p`
/// ascending. It defines the bits every other kernel must reproduce, runs
/// on hosts without AVX2, and recomputes the rows the blocked kernels
/// leave non-finite. Never inlined: which NaN an add of two NaNs returns
/// depends on the operand order the compiler picks, so the fallback must
/// run the same machine code as the reference.
#[inline(never)]
fn gemm_ref<L: Lhs>(a: L, i: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    for (r, orow) in out.chunks_exact_mut(n).enumerate() {
        let [arow] = a.rows::<1>(i + r, 0, b.len() / n);
        for (p, brow) in b.chunks_exact(n).enumerate() {
            let av = arow.at(p);
            if av == 0.0 {
                continue;
            }
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

    /// `out = epi(a·b)` for `b: [k, n]` and `out: [m, n]`, output row `i`
    /// being row `i` of `a`; `out` must hold zeros on entry. Bit-identical
    /// on every kernel.
    ///
    /// # Panics
    ///
    /// Panics if the running CPU does not support this kernel.
    fn run<L: Lhs>(self, a: L, b: &[f32], n: usize, out: &mut [f32], epi: Epilogue) {
        if out.is_empty() {
            return;
        }
        if b.is_empty() {
            // `k == 0`: every sum is the `+0.0` already in `out`.
            epi.apply(out, n);
            return;
        }
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `blocked::avx512` only requires AVX-512F, which the
            // guard just detected on the running CPU.
            Kernel::Avx512 if self.supported() => unsafe { blocked::avx512(a, b, n, out, epi) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `blocked::avx2` only requires AVX2, which the guard
            // just detected on the running CPU.
            Kernel::Avx2 if self.supported() => unsafe { blocked::avx2(a, b, n, out, epi) },
            Kernel::Reference => {
                gemm_ref(a, 0, b, n, out);
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
    use super::{gemm_ref, Epilogue, Lhs, Row};

    /// Row-blocking factor: output rows computed together.
    const ROWS: usize = 4;

    /// [`body`] with 32-column panels first, compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// Callers without AVX-512F enabled at compile time must check that the
    /// CPU supports it before calling.
    #[target_feature(enable = "avx512f")]
    pub(super) fn avx512<L: Lhs>(a: L, b: &[f32], n: usize, out: &mut [f32], epi: Epilogue) {
        body::<32, L>(a, b, n, out, epi);
    }

    /// [`body`] with 16-column panels first, compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Callers without AVX2 enabled at compile time must check that the CPU
    /// supports it before calling.
    #[target_feature(enable = "avx2")]
    pub(super) fn avx2<L: Lhs>(a: L, b: &[f32], n: usize, out: &mut [f32], epi: Epilogue) {
        body::<16, L>(a, b, n, out, epi);
    }

    /// The register-blocked kernel, `b` and `out` non-empty. It walks the
    /// `k` reduction steps in row panels of [`Lhs::PANEL`]. In each panel,
    /// blocks of [`ROWS`] output rows × `W` columns, then at most one
    /// 16-column block (when `W` is wider), one 8-column block, and the
    /// last `n % 8` columns as an 8-column block over a zero-padded copy
    /// of the panel of `b` whose padding is never stored. A block's sums
    /// start at `+0.0` in the first panel and continue from `out` in the
    /// others. After the last panel, each finished row block gets the
    /// reference fallback, then the epilogue, while it is still in L1.
    /// Safe Rust: the caller's target feature lets LLVM keep each block's
    /// accumulators in vector registers.
    #[inline(always)]
    fn body<const W: usize, L: Lhs>(a: L, b: &[f32], n: usize, out: &mut [f32], epi: Epilogue) {
        let k = b.len() / n;
        let panel = L::PANEL.min(k);
        let tail = n % 8;
        let tail_rows = |steps: usize| if tail == 0 { 0 } else { steps * 8 };
        let mut b_tail = vec![0.0; tail_rows(panel)];
        for p0 in (0..k).step_by(panel) {
            let b_pan = &b[p0 * n..(p0 + panel).min(k) * n];
            let tail_pan = &mut b_tail[..tail_rows(b_pan.len() / n)];
            for (dst, brow) in tail_pan.chunks_exact_mut(8).zip(b_pan.chunks_exact(n)) {
                dst[..tail].copy_from_slice(&brow[n - tail..]);
            }
            let (load, last) = (p0 > 0, p0 + panel >= k);
            for (blk, o_blk) in out.chunks_mut(ROWS * n).enumerate() {
                let i = blk * ROWS;
                match o_blk.len() / n {
                    4 => rows::<4, W, L>(a, (i, p0), b_pan, tail_pan, o_blk, load),
                    3 => rows::<3, W, L>(a, (i, p0), b_pan, tail_pan, o_blk, load),
                    2 => rows::<2, W, L>(a, (i, p0), b_pan, tail_pan, o_blk, load),
                    _ => rows::<1, W, L>(a, (i, p0), b_pan, tail_pan, o_blk, load),
                }
                if !last {
                    continue;
                }
                // Reading back the rows just written keeps the check O(m·n): a
                // scan of `b` on every call would cost O(k·n) even for one row.
                if !all_finite(o_blk) {
                    for (r, orow) in o_blk.chunks_exact_mut(n).enumerate() {
                        if !all_finite(orow) {
                            orow.fill(0.0);
                            gemm_ref(a, i + r, b, n, orow);
                        }
                    }
                }
                epi.apply(o_blk, n);
            }
        }
    }

    /// Whether every element is finite; a branch-free fold, so it vectorizes.
    #[inline(always)]
    fn all_finite(v: &[f32]) -> bool {
        !v.iter().fold(false, |bad, x| bad | !x.is_finite())
    }

    /// Adds one panel's terms to the `R` output rows `out: [R, n]` starting
    /// at row `i` of `a`, with `W`-column blocks first; the panel is
    /// reduction steps `p0..` of `a` and `b_pan: [_, n]` of `b`, and
    /// `b_tail` holds the panel's last `n % 8` columns zero-padded to
    /// `[_, 8]` (empty when `n % 8 == 0`). With `load` the sums continue
    /// from `out`; otherwise they start at `+0.0`.
    #[inline(always)]
    fn rows<const R: usize, const W: usize, L: Lhs>(
        a: L,
        (i, p0): (usize, usize),
        b_pan: &[f32],
        b_tail: &[f32],
        out: &mut [f32],
        load: bool,
    ) {
        let n = out.len() / R;
        let arows = a.rows::<R>(i, p0, b_pan.len() / n);
        let mut j = 0;
        while j + W <= n {
            let acc = panel::<R, W>(start(out, j, W, load), &arows, b_pan, n, j);
            store(&acc, out, j, W);
            j += W;
        }
        if W > 16 && j + 16 <= n {
            let acc = panel::<R, 16>(start(out, j, 16, load), &arows, b_pan, n, j);
            store(&acc, out, j, 16);
            j += 16;
        }
        if j + 8 <= n {
            let acc = panel::<R, 8>(start(out, j, 8, load), &arows, b_pan, n, j);
            store(&acc, out, j, 8);
            j += 8;
        }
        if j < n {
            let acc = panel::<R, 8>(start(out, j, n - j, load), &arows, b_tail, 8, 0);
            store(&acc, out, j, n - j);
        }
    }

    /// The accumulators of one `R × W` block at columns `j..j + w` of
    /// `out: [R, n]`: the partial sums stored there when `load` is set,
    /// otherwise `+0.0`. Columns past `w` start at `+0.0` and are never
    /// stored.
    #[inline(always)]
    fn start<const R: usize, const W: usize>(
        out: &[f32],
        j: usize,
        w: usize,
        load: bool,
    ) -> [[f32; W]; R] {
        let mut acc = [[0.0f32; W]; R];
        if load {
            for (acc_r, orow) in acc.iter_mut().zip(out.chunks_exact(out.len() / R)) {
                let mut sums = [0.0f32; W];
                sums[..w].copy_from_slice(&orow[j..j + w]);
                *acc_r = sums;
            }
        }
        acc
    }

    /// One `R × W` block: adds `arows[r].at(p) · b[p][j + c]` to
    /// `acc[r][c]` for each row `p` of `b` ascending, multiply then add.
    #[inline(always)]
    fn panel<const R: usize, const W: usize>(
        mut acc: [[f32; W]; R],
        arows: &[impl Row; R],
        b: &[f32],
        ldb: usize,
        j: usize,
    ) -> [[f32; W]; R] {
        for (p, brow) in b.chunks_exact(ldb).enumerate() {
            let bv: &[f32; W] = brow[j..j + W].try_into().expect("panel fits in the row");
            for (acc_r, arow) in acc.iter_mut().zip(arows) {
                let av = arow.at(p);
                for (o, &bv) in acc_r.iter_mut().zip(bv) {
                    *o += av * bv;
                }
            }
        }
        acc
    }

    /// Writes the first `w` columns of each accumulator row to
    /// `out[.., j..]`, `out: [R, n]`.
    #[inline(always)]
    fn store<const R: usize, const W: usize>(
        acc: &[[f32; W]; R],
        out: &mut [f32],
        j: usize,
        w: usize,
    ) {
        let n = out.len() / R;
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
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
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
            let a = Rows {
                a: &a[rows.start * k..rows.end * k],
                k,
            };
            kernel.run(a, b, n, out_rows, epi);
        },
    );
}

/// `out = xᵀ·g` for `x: [m, k]`, `g: [m, n]` and `out: [k, n]` zeroed on
/// entry: the weight gradient of `x·W`, reading `x` in place. Bit-identical
/// to [`gemm`] on the explicit transpose `xᵀ: [k, m]`, and, like it, at
/// any thread count: the split is over output rows, that is over columns
/// of `x`.
pub(crate) fn gemm_tn(x: &[f32], g: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), m * k);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
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
            let a = Cols {
                x,
                ld: k,
                c: rows.start,
            };
            kernel.run(a, g, n, out_rows, Epilogue::default());
        },
    );
}

#[cfg(test)]
mod tests {
    use tp_rng::{prop, Rng, StdRng};

    use super::{gemm_ref, Cols, Epilogue, Kernel, Lhs, Rows};

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

    /// The sums every kernel must give: [`gemm_ref`]'s on `a: [m, k]` as
    /// stored.
    fn reference_sums(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        gemm_ref(Rows { a, k }, 0, b, n, &mut out);
        out
    }

    /// `xᵀ·g` for `x: [m, k]`, `g: [m, n]` on `kernel`, in two calls split
    /// at output row `split`, as a tp-par row split makes them.
    fn run_tn(
        kernel: Kernel,
        x: &[f32],
        g: &[f32],
        (k, n): (usize, usize),
        split: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0; k * n];
        let (top, bottom) = out.split_at_mut(split * n);
        for (c, part) in [(0, top), (split, bottom)] {
            kernel.run(Cols { x, ld: k, c }, g, n, part, Epilogue::default());
        }
        out
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        for (i, (&got, &want)) in got.iter().zip(want).enumerate() {
            assert!(
                got.to_bits() == want.to_bits(),
                "{what}, element {i}: {got:?} ({:#x}), want {want:?} ({:#x})",
                got.to_bits(),
                want.to_bits()
            );
        }
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
                    kernel.run(Rows { a: &a, k }, &b, n, &mut got, epi);
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

                // The weight-gradient gemm, xᵀ·g, against the reference on
                // the explicit transpose. Half the cases reduce over three
                // row panels, the last one ragged, so the blocked kernels
                // carry their sums through `out`; `k` covers row tails
                // (k % 4), and the split point a nonzero column offset.
                let mt = if rng.gen_range(0..2u32) == 0 {
                    rng.gen_range(2 * Cols::PANEL + 1..3 * Cols::PANEL)
                } else {
                    rng.gen_range(0..11usize)
                };
                let x: Vec<f32> = (0..mt * k).map(|_| entry(rng, special_a)).collect();
                let g: Vec<f32> = (0..mt * n).map(|_| entry(rng, special_b)).collect();
                let xt: Vec<f32> = (0..k * mt).map(|i| x[i % mt * k + i / mt]).collect();
                let want = reference_sums(&xt, &g, (k, mt, n));
                let split = rng.gen_range(0..k + 1);
                for kernel in supported() {
                    let got = run_tn(kernel, &x, &g, (k, n), split);
                    let what = format!("{kernel:?} tn at {mt}x{k}x{n}, split {split}");
                    assert_bits(&got, &want, &what);
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
            kernel.run(Rows { a: &a, k: 2 }, &b, 1, &mut got, Epilogue::default());
            assert_eq!(got, vec![2.0], "{kernel:?}");
        }
        // The same term in xᵀ·g, in the first or the last of three row
        // panels: the NaN sum carries through `out` and the fallback runs
        // after the last panel.
        let m = 2 * Cols::PANEL + 3;
        for at in [0, Cols::PANEL, m - 1] {
            let x: Vec<f32> = (0..m).map(|i| if i == at { 0.0 } else { 1.0 }).collect();
            let mut g = vec![2.0; m];
            g[at] = f32::INFINITY;
            for kernel in supported() {
                let got = run_tn(kernel, &x, &g, (1, 1), 0);
                assert_eq!(got, vec![2.0 * (m - 1) as f32], "{kernel:?}, 0·inf at {at}");
            }
        }
    }
}
