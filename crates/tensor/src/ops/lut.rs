//! The learned LUT interpolation of the paper's Sec. 3.3.2 as one op.

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

/// Writes the Kronecker product of one row's coefficients into `kron`:
/// `kron[x·B + y] = cs[x]·cl[y]`, and `+0.0` wherever `cs[x] == 0`.
fn kron_row(cs: &[f32], cl: &[f32], kron: &mut [f32]) {
    for (dst, &sv) in kron.chunks_exact_mut(cl.len()).zip(cs) {
        if sv == 0.0 {
            dst.fill(0.0);
        } else {
            for (o, &lv) in dst.iter_mut().zip(cl) {
                *o = sv * lv;
            }
        }
    }
}

impl Tensor {
    /// Learned LUT interpolation as one tape node. `self` holds per-row
    /// slew-axis coefficients `cs: [E, A]` and `cl` load-axis coefficients
    /// `[E, B]`; from column `base` on, `tables: [E, W]` holds
    /// `L = (W − base) / (A·B)` lookup tables of `A·B` values each,
    /// row-major over (slew, load). Returns `[E, L]`:
    ///
    /// `out[e, l] = Σ_c kron[e, c] · v_l[e, c]`
    ///
    /// where `kron[e, x·B + y] = cs[e, x] · cl[e, y]` is the row-wise
    /// Kronecker product (`+0.0` where `cs[e, x] == 0`) and `v_l` is table
    /// `l` of row `e`. `kron` is formed on the fly, one row at a time, and
    /// each sum has the bits of [`Iterator::sum`] over the rounded
    /// products, `c` ascending.
    ///
    /// The backward forms `kron`'s gradient from the last table's
    /// products `g[e, l] · v_l[e, c]`, adding each earlier table's in
    /// turn, then gives `cs[e, x]` the sum over `y` of
    /// `∂kron[e, x·B + y] · cl[e, y]` and `cl[e, y]` the sum over `x` of
    /// `∂kron[e, x·B + y] · cs[e, x]`, each from `+0.0`, in ascending
    /// order. It reads all three operands live. The tables are data and
    /// take no gradient.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not rank 2, the row counts disagree,
    /// `A·B == 0`, the columns from `base` on are not a positive whole
    /// number of tables, or `tables` requires gradients.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// // One row, 1×2 coefficients: kron = [2·3, 2·4] = [6, 8].
    /// let cs = Tensor::from_vec(vec![2.0], &[1, 1])?;
    /// let cl = Tensor::from_vec(vec![3.0, 4.0], &[1, 2])?;
    /// // A flag column, then two 1×2 tables.
    /// let tables = Tensor::from_vec(vec![9.0, 1.0, 0.0, 0.5, 0.5], &[1, 5])?;
    /// assert_eq!(cs.lut_interp(&cl, &tables, 1).to_vec(), vec![6.0, 7.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn lut_interp(&self, cl: &Tensor, tables: &Tensor, base: usize) -> Tensor {
        let (e, a) = self.shape_obj().as_2d();
        let (e_cl, b) = cl.shape_obj().as_2d();
        let (e_tab, w) = tables.shape_obj().as_2d();
        assert!(
            e_cl == e && e_tab == e,
            "lut_interp operands must share a row count: {e}, {e_cl}, {e_tab}"
        );
        let ab = a * b;
        assert!(
            ab > 0 && w > base && (w - base).is_multiple_of(ab),
            "lut_interp: columns {base}..{w} are not whole {a}x{b} tables"
        );
        assert!(
            !tables.requires_grad(),
            "lut_interp's tables are data and take no gradient"
        );
        let luts = (w - base) / ab;
        let (cs_s, cl_s, tab_s) = (self.save(), cl.save(), tables.save());
        let (csd, cld, td) = (self.data(), cl.data(), tables.data());
        let mut kron = vec![0.0; ab];
        let mut out = vec![0.0; e * luts];
        for (row, o) in out.chunks_exact_mut(luts).enumerate() {
            kron_row(
                &csd[row * a..(row + 1) * a],
                &cld[row * b..(row + 1) * b],
                &mut kron,
            );
            let vals = &td[row * w + base..(row + 1) * w];
            // Each table's sum as `Iterator::sum` folds it, from `-0.0`
            // with `c` ascending; the tables' sums advance together, which
            // changes no sum's order and breaks one long chain of adds
            // into `L` independent ones.
            o.fill(-0.0);
            for (c, &k) in kron.iter().enumerate() {
                for (o, v) in o.iter_mut().zip(vals.chunks_exact(ab)) {
                    *o += k * v[c];
                }
            }
        }
        drop((csd, cld, td));
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            let (csd, cld, td) = (cs_s.read(), cl_s.read(), tab_s.read());
            let (mut gcs, mut gcl) = (vec![0.0; e * a], vec![0.0; e * b]);
            let mut gk = vec![0.0; ab];
            for (row, gr) in g.chunks_exact(luts).enumerate() {
                let vals = &td[row * w + base..(row + 1) * w];
                // The last table first, as the replaced chain's reverse
                // sweep ran them; ascending order gives other bits.
                let mut terms = vals.chunks_exact(ab).zip(gr).rev();
                let (v, &gl) = terms.next().expect("at least one table");
                for (k, &v) in gk.iter_mut().zip(v) {
                    *k = gl * v;
                }
                for (v, &gl) in terms {
                    for (k, &v) in gk.iter_mut().zip(v) {
                        *k += gl * v;
                    }
                }
                let cs = &csd[row * a..(row + 1) * a];
                let cl = &cld[row * b..(row + 1) * b];
                for (o, gk) in gcs[row * a..(row + 1) * a]
                    .iter_mut()
                    .zip(gk.chunks_exact(b))
                {
                    *o = gk.iter().zip(cl).fold(0.0, |acc, (&gk, &lv)| acc + gk * lv);
                }
                for (y, o) in gcl[row * b..(row + 1) * b].iter_mut().enumerate() {
                    *o = gk
                        .chunks_exact(b)
                        .zip(cs)
                        .fold(0.0, |acc, (gk, &sv)| acc + gk[y] * sv);
                }
            }
            drop((csd, cld, td));
            for (t, grad) in [(&cs_s.tensor, gcs), (&cl_s.tensor, gcl)] {
                if t.requires_grad() {
                    t.accumulate_grad(grad);
                }
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[e, luts]),
            vec![self.clone(), cl.clone()],
            backward,
        )
    }
}

#[cfg(test)]
mod tests {
    use tp_rng::{prop, Rng, StdRng};

    use crate::Tensor;

    /// A coefficient: ordinary values with exact zeros and `-0.0` mixed in.
    fn coef(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// A table value: ordinary values with zeros and (when `special`) NaN
    /// and ±inf mixed in.
    fn value(rng: &mut StdRng, special: bool) -> f32 {
        match rng.gen_range(0..16u32) {
            0 => 0.0,
            1 if special => f32::NAN,
            2 if special => f32::INFINITY,
            3 if special => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// The op chain `lut_interp` stands for, as plain loops over
    /// `cs: [e, a]`, `cl: [e, b]` and `tables: [e, w]` with tables from
    /// column `base`: the row-wise Kronecker product with its zero skip,
    /// each table's rounded products summed by `iter().sum()`; then, for
    /// the upstream gradient `g`, each table's product gradient `g·v`
    /// accumulated into the Kronecker gradient from the last table down,
    /// and the Kronecker product's two backward row sums. Returns the
    /// output and the gradients of `cs` and `cl`.
    fn reference(
        (cs, cl, tables, g): (&[f32], &[f32], &[f32], &[f32]),
        (e, a, b, w, base): (usize, usize, usize, usize, usize),
    ) -> [Vec<f32>; 3] {
        let ab = a * b;
        let luts = (w - base) / ab;
        let (mut out, mut gcs, mut gcl) = (Vec::new(), Vec::new(), Vec::new());
        for row in 0..e {
            let table = |l: usize| &tables[row * w + base + l * ab..][..ab];
            let mut kron = vec![0.0f32; ab];
            for x in 0..a {
                let sv = cs[row * a + x];
                if sv == 0.0 {
                    continue;
                }
                for y in 0..b {
                    kron[x * b + y] = sv * cl[row * b + y];
                }
            }
            for l in 0..luts {
                let prods: Vec<f32> = kron.iter().zip(table(l)).map(|(&k, &v)| k * v).collect();
                out.push(prods.iter().sum());
            }
            let gl = |l: usize| g[row * luts + l];
            let mut gk: Vec<f32> = table(luts - 1).iter().map(|&v| gl(luts - 1) * v).collect();
            for l in (0..luts - 1).rev() {
                for (k, &v) in gk.iter_mut().zip(table(l)) {
                    *k += gl(l) * v;
                }
            }
            for x in 0..a {
                let mut acc = 0.0;
                for y in 0..b {
                    acc += gk[x * b + y] * cl[row * b + y];
                }
                gcs.push(acc);
            }
            for y in 0..b {
                let mut acc = 0.0;
                for x in 0..a {
                    acc += gk[x * b + y] * cs[row * a + x];
                }
                gcl.push(acc);
            }
        }
        [out, gcs, gcl]
    }

    /// Bit-for-bit equality, except that any NaN matches any NaN: IEEE 754
    /// leaves open which NaN an add of two NaNs returns (x86 returns its
    /// first operand), and the compiler may swap an add's operands, so
    /// only the same machine code is bound to pick the same one.
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan())
    }

    #[test]
    fn output_and_gradients_match_the_op_chain_bit_for_bit() {
        prop::check(
            "output_and_gradients_match_the_op_chain_bit_for_bit",
            128,
            |rng| {
                let e = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(2..20usize),
                };
                let (a, b) = (rng.gen_range(1..8usize), rng.gen_range(1..8usize));
                let luts = rng.gen_range(1..9usize);
                let base = rng.gen_range(0..4usize);
                let w = base + luts * a * b;
                let special = rng.gen_range(0..3u32) == 0;
                let cs: Vec<f32> = (0..e * a).map(|_| coef(rng)).collect();
                let cl: Vec<f32> = (0..e * b).map(|_| coef(rng)).collect();
                let tables: Vec<f32> = (0..e * w).map(|_| value(rng, special)).collect();
                let g: Vec<f32> = (0..e * luts).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

                let cs_t = Tensor::from_vec(cs.clone(), &[e, a]).unwrap().with_grad();
                let cl_t = Tensor::from_vec(cl.clone(), &[e, b]).unwrap().with_grad();
                let tab_t = Tensor::from_vec(tables.clone(), &[e, w]).unwrap();
                let out = cs_t.lut_interp(&cl_t, &tab_t, base);
                let g_t = Tensor::from_vec(g.clone(), &[e, luts]).unwrap();
                out.mul(&g_t).sum().backward();

                let want = reference((&cs, &cl, &tables, &g), (e, a, b, w, base));
                let got = [out.to_vec(), cs_t.grad().unwrap(), cl_t.grad().unwrap()];
                for (what, (got, want)) in ["output", "cs grad", "cl grad"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    assert!(
                        same_bits(got, want),
                        "{what} at e={e} a={a} b={b} luts={luts} base={base}: \
                         {got:?}, want {want:?}"
                    );
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "are not whole 2x2 tables")]
    fn partial_tables_are_rejected() {
        let cs = Tensor::zeros(&[1, 2]);
        let _ = cs.lut_interp(&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[1, 7]), 1);
    }
}
