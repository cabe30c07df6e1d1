/* The native exact engine: one output tile's whole update,
   c <- alpha*op(L) R + beta*c on c's stored region, for a nonzero alpha,
   where L = [a0 a1] and R = [b0; b1] join one or two terms along their
   inner dimension k, so HER2K's z^H b + b^H z is one product (kernels._terms
   checks the update before it gets here).

   Every product element is accumulated in ascending p over the joined
   K = nterms*k with the separated formula, acc_r += xr*yr - xi*yi and
   acc_i += xr*yi + xi*yr, from +0.0; then, in the order of
   kernels._numpy_update, it is scaled as alpha*xr - 0.0*xi and
   alpha*xi + 0.0*xr when alpha is not 1, and c is added when beta is 1.
   Built with -ffp-contract=off and without -ffast-math, the compiler may
   neither fuse, fold nor reorder any of it, so the bits are those of the
   numpy engine.

   p runs in blocks of kc: each block of L is packed into MR-row
   micro-panels (the imaginary part negated when conj_left is set, which
   is exact), and each NR-column micro-panel of R just before the register
   tiles that use it.  An MR x NR register tile lives on split real and
   imaginary vectors, kept in the plane pair `acc` between k-blocks.  The
   last k-block writes c itself: only rows >= columns when `lower` (whose
   diagonal gets imaginary part +0.0), through c's strides, in complex
   elements like every stride here.  The caller owns c and one scratch
   buffer of tile_scratch() doubles, which tile_update carves into the
   plane pair and both packs; nothing here allocates. */

#include <stddef.h>

#define MR 8
#define NR 4
#define KC 64 /* the deepest k-block: a 256-row left pack is 256 KiB */

typedef ptrdiff_t idx;
/* GCC/Clang vector extensions (GCC 12 or later for __builtin_shufflevector):
   MR doubles, and the same read from a buffer aligned to 8 bytes only. */
typedef double vec __attribute__((vector_size(8 * MR)));
typedef double uvec __attribute__((vector_size(8 * MR), aligned(8)));

/* One operand of a term: where it starts, and its strides. */
struct operand {
    const double *x;
    idx s0, s1;
};

/* Rows [0, m) of columns [p0, p0 + kb) of L, whose column p is column
   p % k of term p / k: per MR-row micro-panel, per k, MR real then MR
   imaginary parts. */
static void pack_left(idx m, idx p0, idx kb, idx k, const struct operand *a, int conj,
                      double *pa)
{
    const double *col[KC];
    idx s0[KC];
    for (idx p = 0; p < kb; p++) {
        const struct operand *t = a + (p0 + p) / k;
        col[p] = t->x + 2 * ((p0 + p) % k) * t->s1;
        s0[p] = t->s0;
    }
    for (idx i0 = 0; i0 < m; i0 += MR)
        for (idx p = 0; p < kb; p++, pa += 2 * MR)
            for (idx i = 0; i < MR; i++) {
                pa[i] = pa[MR + i] = 0.0;
                if (i0 + i < m) {
                    const double *x = col[p] + 2 * (i0 + i) * s0[p];
                    pa[i] = x[0];
                    pa[MR + i] = conj ? -x[1] : x[1];
                }
            }
}

/* Columns [j0, j0 + nr) of rows [p0, p0 + kb) of R, nr <= NR, whose row p
   is row p % k of term p / k: per k, NR real then NR imaginary parts. */
static void pack_right(idx j0, idx nr, idx p0, idx kb, idx k, const struct operand *b,
                       double *pb)
{
    for (idx p = 0; p < kb; p++, pb += 2 * NR) {
        const struct operand *t = b + (p0 + p) / k;
        const double *row = t->x + 2 * (((p0 + p) % k) * t->s0 + j0 * t->s1);
        for (idx j = 0; j < NR; j++) {
            pb[j] = j < nr ? row[2 * j * t->s1] : 0.0;
            pb[NR + j] = j < nr ? row[2 * j * t->s1 + 1] : 0.0;
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
   ends in `keep` when that is not NULL.  Otherwise it is the tail: scale
   by alpha unless it is 1, add c if beta is 1, and write c's stored
   region.  The MR rows are one vector, so each operation is MR
   independent IEEE operations, the same per element as the scalar
   formula. */
static void micro(const struct tile *t, idx kb, const double *pa, const double *pb,
                  idx i0, idx j0, idx mr, idx nr, const uvec *load, uvec *keep)
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
    if (keep) {
        for (idx j = 0; j < NR; j++) {
            keep[j] = cr[j];
            keep[NR + j] = ci[j];
        }
        return;
    }
    if (t->alpha != 1.0)
        for (idx j = 0; j < NR; j++) {
            vec xr = cr[j], xi = ci[j];
            cr[j] = t->alpha * xr - 0.0 * xi;
            ci[j] = t->alpha * xi + 0.0 * xr;
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

/* Where one tile's scratch goes, in doubles: the plane pair (`pair`
   doubles, 0 unless K spans more than one k-block), then the left pack
   (2*kc*rows), then the right pack (2*kc*NR).  The k-block depth kc is at
   most KC and at most rows*cols/(rows+cols) of the tile padded to the
   register tile, so the packs never exceed a plane pair of 2*rows*cols;
   planes are reloaded exactly, so any depth gives the same bits. */
struct layout {
    idx kc, rows, pair;
};

static struct layout layout_of(idx m, idx n, idx K)
{
    const idx rows = (m + MR - 1) / MR * MR, cols = (n + NR - 1) / NR * NR;
    idx kc = rows * cols / (rows + cols > 0 ? rows + cols : 1);
    kc = kc < KC ? kc : KC;
    kc = kc < K ? kc : K;
    kc = kc > 1 ? kc : 1;
    return (struct layout){kc, rows, K > kc ? 2 * rows * cols : 0};
}

/* Doubles of scratch that tile_update needs for this tile. */
size_t tile_scratch(idx m, idx n, idx k, int nterms)
{
    const struct layout l = layout_of(m, n, nterms * k);
    return (size_t)(l.pair + 2 * l.kc * (l.rows + NR));
}

void tile_update(idx m, idx n, idx k, int nterms,
                 const double *a0, idx sa00, idx sa01, const double *b0, idx sb00, idx sb01,
                 const double *a1, idx sa10, idx sa11, const double *b1, idx sb10, idx sb11,
                 int conj_left, double alpha, int beta, int lower,
                 double *c, idx sc0, idx sc1, double *scratch)
{
    const struct tile t = {alpha, beta, lower, c, sc0, sc1};
    const struct operand left[2] = {{a0, sa00, sa01}, {a1, sa10, sa11}};
    const struct operand right[2] = {{b0, sb00, sb01}, {b1, sb10, sb11}};
    const idx K = nterms * k;
    const struct layout l = layout_of(m, n, K);
    const idx kc = l.kc, mb = (m + MR - 1) / MR;
    uvec *acc = (uvec *)scratch;
    double *pack_a = scratch + l.pair, *pack_b = pack_a + 2 * kc * l.rows;
    idx p0 = 0;
    do {  /* K == 0 still runs one empty block, which starts from +0.0 */
        const idx kb = K - p0 < kc ? K - p0 : kc;
        pack_left(m, p0, kb, k, left, conj_left, pack_a);
        for (idx j0 = 0; j0 < n; j0 += NR) {
            const idx nr = n - j0 < NR ? n - j0 : NR;
            pack_right(j0, nr, p0, kb, k, right, pack_b);
            /* a lower tile skips the micro-tiles wholly above its diagonal */
            for (idx i0 = lower ? j0 / MR * MR : 0; i0 < m; i0 += MR) {
                const idx mr = m - i0 < MR ? m - i0 : MR;
                const idx at = 2 * NR * (i0 / MR + (j0 / NR) * mb);
                micro(&t, kb, pack_a + 2 * kb * i0, pack_b, i0, j0, mr, nr,
                      p0 ? acc + at : NULL, p0 + kb < K ? acc + at : NULL);
            }
        }
        p0 += kc;
    } while (p0 < K);
}
