/* The native exact engine: one output tile's whole update,
   c <- alpha*(op(a0) b0 [+ op(a1) b1]) + beta*c on c's stored region,
   for one or two terms and a nonzero alpha (kernels._terms checks the
   update before it gets here).

   Every product element is accumulated in ascending k with the separated
   formula, acc_r += xr*yr - xi*yi and acc_i += xr*yi + xi*yr, from +0.0;
   then, in the order of kernels._numpy_update, each term is scaled as
   alpha*xr - 0.0*xi and alpha*xi + 0.0*xr when alpha is not 1, term 0 is
   added to term 1, and c is added when beta is 1.  Built with
   -ffp-contract=off and without -ffast-math, the compiler may neither
   fuse, fold nor reorder any of it, so the bits are those of the numpy
   engine.

   k runs in blocks of kc: each block of a term's left operand is packed
   into MR-row micro-panels (the imaginary part negated when conj_left is
   set, which is exact), and each NR-column micro-panel of its right
   operand is packed just before the register tiles that use it.  An
   MR x NR register tile lives on split real and imaginary vectors; it is
   kept in the plane pair `acc` between k-blocks, and a finished term 0 is
   kept, scaled, in the pair `first`.  The last k-block of the last term
   writes c itself: only rows >= columns when `lower` (whose diagonal gets
   imaginary part +0.0), through c's strides, in complex elements like
   every stride here.  The caller owns c and one scratch buffer of
   tile_scratch() doubles, which tile_update carves into the plane pairs
   and both packs; nothing here allocates. */

#include <stddef.h>

#define MR 8
#define NR 4
#define KC 64 /* the deepest k-block: a 256-row left pack is 256 KiB */

typedef ptrdiff_t idx;
/* GCC/Clang vector extensions (GCC 12 or later for __builtin_shufflevector):
   MR doubles, and the same read from a buffer aligned to 8 bytes only. */
typedef double vec __attribute__((vector_size(8 * MR)));
typedef double uvec __attribute__((vector_size(8 * MR), aligned(8)));

/* Rows [0, m) of a's kb columns: per k, MR real then MR imaginary parts. */
static void pack_left(idx m, idx kb, const double *a, idx s0, idx s1, int conj, double *pa)
{
    for (idx i0 = 0; i0 < m; i0 += MR)
        for (idx p = 0; p < kb; p++, pa += 2 * MR)
            for (idx i = 0; i < MR; i++) {
                pa[i] = pa[MR + i] = 0.0;
                if (i0 + i < m) {
                    const double *x = a + 2 * ((i0 + i) * s0 + p * s1);
                    pa[i] = x[0];
                    pa[MR + i] = conj ? -x[1] : x[1];
                }
            }
}

/* Columns [0, nr) of b's kb rows, nr <= NR: per k, NR real then NR
   imaginary parts. */
static void pack_right(idx nr, idx kb, const double *b, idx s0, idx s1, double *pb)
{
    for (idx p = 0; p < kb; p++, pb += 2 * NR)
        for (idx j = 0; j < NR; j++) {
            pb[j] = pb[NR + j] = 0.0;
            if (j < nr) {
                const double *y = b + 2 * (p * s0 + j * s1);
                pb[j] = y[0];
                pb[NR + j] = y[1];
            }
        }
}

/* What stays fixed over one call. */
struct tile {
    double alpha;
    int beta, lower;
    double *c;
    idx sc0, sc1;
};

/* One k-block of the mr x nr micro-tile at rows i0, columns j0.  It starts
   from `load` (NR real then NR imaginary vectors), or +0.0 when NULL, and
   ends in `keep` when that is not NULL, scaled by alpha if `scale` is
   set.  Otherwise it is the tail: scale, add `first` if not NULL, add c
   if beta is 1, and write c's stored region.  The MR rows are one vector,
   so each operation is MR independent IEEE operations, the same per
   element as the scalar formula. */
static void micro(const struct tile *t, idx kb, const double *pa, const double *pb,
                  idx i0, idx j0, idx mr, idx nr, const uvec *load, uvec *keep, int scale,
                  const uvec *first)
{
    vec cr[NR], ci[NR];
    for (idx j = 0; j < NR; j++) {
        cr[j] = load ? load[j] : (vec){0};
        ci[j] = load ? load[NR + j] : (vec){0};
    }
    for (idx p = 0; p < kb; p++, pa += 2 * MR, pb += 2 * NR) {
        vec xr = *(const uvec *)pa, xi = *(const uvec *)(pa + MR);
        for (idx j = 0; j < NR; j++) {
            double yr = pb[j], yi = pb[NR + j];
            cr[j] += xr * yr - xi * yi;
            ci[j] += xr * yi + xi * yr;
        }
    }
    if (scale && t->alpha != 1.0)
        for (idx j = 0; j < NR; j++) {
            vec xr = cr[j], xi = ci[j];
            cr[j] = t->alpha * xr - 0.0 * xi;
            ci[j] = t->alpha * xi + 0.0 * xr;
        }
    if (keep) {
        for (idx j = 0; j < NR; j++) {
            keep[j] = cr[j];
            keep[NR + j] = ci[j];
        }
        return;
    }
    if (first)
        for (idx j = 0; j < NR; j++) {
            cr[j] = first[j] + cr[j];
            ci[j] = first[NR + j] + ci[j];
        }
    if (t->sc0 == 1 && mr == MR && nr == NR && (!t->lower || i0 >= j0 + NR)) {
        /* a whole micro-tile below the diagonal of a column-major c: each
           column's MR elements are 2*MR contiguous doubles, split into
           parts and interleaved back with shuffles, which are exact */
        for (idx j = 0; j < NR; j++) {
            double *z = t->c + 2 * (i0 + (j0 + j) * t->sc1);
            vec re = cr[j], im = ci[j];
            if (t->beta) {
                vec lo = *(const uvec *)z, hi = *(const uvec *)(z + MR);
                re = re + __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
                im = im + __builtin_shufflevector(lo, hi, 1, 3, 5, 7, 9, 11, 13, 15);
            }
            *(uvec *)z = __builtin_shufflevector(re, im, 0, 8, 1, 9, 2, 10, 3, 11);
            *(uvec *)(z + MR) = __builtin_shufflevector(re, im, 4, 12, 5, 13, 6, 14, 7, 15);
        }
        return;
    }
    for (idx j = 0; j < nr; j++) {
        idx col = j0 + j;
        for (idx i = t->lower && col > i0 ? col - i0 : 0; i < mr; i++) {
            double *z = t->c + 2 * ((i0 + i) * t->sc0 + col * t->sc1);
            double re = cr[j][i], im = ci[j][i];
            if (t->beta) {
                re = re + z[0];
                im = im + z[1];
            }
            z[0] = re;
            z[1] = t->lower && i0 + i == col ? 0.0 : im;
        }
    }
}

/* Where one tile's scratch goes, in doubles: `pairs` plane pairs of
   `pair` each, then the left pack (2*kc*rows), then the right pack
   (2*kc*NR).  The k-block depth kc is at most KC and at most
   rows*cols/(rows+cols) of the tile padded to the register tile, so the
   packs never exceed one plane pair; planes are reloaded exactly, so any
   depth gives the same bits.  A pair is kept for HER2K's finished first
   term and for a term that spans k-blocks. */
struct layout {
    idx kc, rows, pair, pairs;
};

static struct layout layout_of(idx m, idx n, idx k, int nterms)
{
    const idx rows = (m + MR - 1) / MR * MR, cols = (n + NR - 1) / NR * NR;
    idx kc = rows * cols / (rows + cols > 0 ? rows + cols : 1);
    kc = kc < KC ? kc : KC;
    kc = kc < k ? kc : k;
    kc = kc > 1 ? kc : 1;
    return (struct layout){kc, rows, 2 * rows * cols, (nterms == 2) + (k > kc)};
}

/* Doubles of scratch that tile_update needs for this tile. */
size_t tile_scratch(idx m, idx n, idx k, int nterms)
{
    const struct layout l = layout_of(m, n, k, nterms);
    return (size_t)(l.pairs * l.pair + 2 * l.kc * (l.rows + NR));
}

void tile_update(idx m, idx n, idx k, int nterms,
                 const double *a0, idx sa00, idx sa01, const double *b0, idx sb00, idx sb01,
                 const double *a1, idx sa10, idx sa11, const double *b1, idx sb10, idx sb11,
                 int conj_left, double alpha, int beta, int lower,
                 double *c, idx sc0, idx sc1, double *scratch)
{
    const struct tile t = {alpha, beta, lower, c, sc0, sc1};
    const struct layout l = layout_of(m, n, k, nterms);
    const idx kc = l.kc, mb = (m + MR - 1) / MR;
    const double *as[2] = {a0, a1}, *bs[2] = {b0, b1};
    const idx sa[2][2] = {{sa00, sa01}, {sa10, sa11}}, sb[2][2] = {{sb00, sb01}, {sb10, sb11}};
    /* the pair kept between k-blocks exists only when k spans blocks */
    uvec *acc = (uvec *)scratch, *first = (uvec *)(scratch + (k > kc ? l.pair : 0));
    double *pack_a = scratch + l.pairs * l.pair, *pack_b = pack_a + 2 * kc * l.rows;
    for (int term = 0; term < nterms; term++) {
        const int last_term = term == nterms - 1;
        idx p0 = 0;
        do {  /* k == 0 still runs one empty block, which starts from +0.0 */
            const idx kb = k - p0 < kc ? k - p0 : kc;
            const int last = p0 + kb >= k;
            pack_left(m, kb, as[term] + 2 * p0 * sa[term][1], sa[term][0], sa[term][1],
                      conj_left, pack_a);
            for (idx j0 = 0; j0 < n; j0 += NR) {
                const idx nr = n - j0 < NR ? n - j0 : NR;
                pack_right(nr, kb, bs[term] + 2 * (p0 * sb[term][0] + j0 * sb[term][1]),
                           sb[term][0], sb[term][1], pack_b);
                /* a lower tile skips the micro-tiles wholly above its diagonal */
                for (idx i0 = lower ? j0 / MR * MR : 0; i0 < m; i0 += MR) {
                    const idx mr = m - i0 < MR ? m - i0 : MR;
                    const idx at = 2 * NR * (i0 / MR + (j0 / NR) * mb);
                    micro(&t, kb, pack_a + 2 * kb * i0, pack_b, i0, j0, mr, nr,
                          p0 ? acc + at : NULL,
                          !last ? acc + at : last_term ? NULL : first + at, last,
                          last_term && term ? first + at : NULL);
                }
            }
            p0 += kc;
        } while (p0 < k);
    }
}
