/* The native exact engine.  tile_update is one output tile's whole update,
   c <- alpha*op(L) R + beta*c on c's stored region, for a nonzero alpha,
   where L = [a0 a1] and R = [b0; b1] join one or two terms along their
   inner dimension k, so HER2K's z^H b + b^H z is one product (kernels._terms
   checks the update before it gets here).  The per-atom loops of a build
   run here too, one call per chunk of atoms: potrf_atoms factors each atom
   (Loop 2's routing), loop1_atoms writes each atom's Z rows and
   loop2_atoms each atom's Y or X rows; the two loops are the only place
   HEMM and TRMM run.  mirror_columns fills a range of columns of an
   output's Hermitian mirror, the end of a build.  These five are the
   engine's entry points.

   Every product element is accumulated in ascending p over the joined
   K = nterms*k with the separated formula, acc_r += xr*yr - xi*yi and
   acc_i += xr*yi + xi*yr, from +0.0; then, in the order of
   kernels._numpy_update, it is scaled as alpha*xr - 0.0*xi and
   alpha*xi + 0.0*xr when alpha is not 1, and c is added when beta is 1.
   POTRF is kernels._potrf's right-looking order, written out below.
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
   elements like every stride here.  The caller owns every output and one
   scratch buffer, of tile_scratch() doubles for a tile and of
   atoms_scratch() doubles for a loop (potrf_atoms works in its n x n
   output); nothing here allocates. */

#include <math.h>
#include <stddef.h>
#include <time.h>

#define MR 8
#define NR 4
#define KC 64 /* the deepest k-block: a 256-row left pack is 256 KiB */
#define BLOCK 256 /* the largest tile edge, kernels._BLOCK */

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

/* One tile's update; tile_update's, plus `tri`: when it is not negative,
   row i of L is zero before column tri + i (TRMM's C^H, whose tile starts
   at row tri).  Each micro-panel then starts its k loop at its own first
   row, skipping whole k-blocks before it and packing only the rows that
   have begun; what it skips would add only +-0 to its +0.0 start, so the
   bits are those of the full product for finite operands. */
static void update(const struct tile *t, idx m, idx n, idx k, int nterms,
                   const struct operand *left, const struct operand *right, int conj_left,
                   idx tri, double *scratch)
{
    const idx K = nterms * k;
    const struct layout l = layout_of(m, n, K);
    const idx kc = l.kc, mb = (m + MR - 1) / MR;
    uvec *acc = (uvec *)scratch;
    double *pack_a = scratch + l.pair, *pack_b = pack_a + 2 * kc * l.rows;
    idx p0 = 0;
    do {  /* K == 0 still runs one empty block, which starts from +0.0 */
        const idx kb = K - p0 < kc ? K - p0 : kc;
        const int last = p0 + kb >= K;
        idx begun = tri < 0 ? m : p0 + kb - tri;
        begun = begun <= 0 ? 0 : (begun + MR - 1) / MR * MR;
        pack_left(begun < m ? begun : m, p0, kb, k, left, conj_left, pack_a);
        for (idx j0 = 0; j0 < n; j0 += NR) {
            const idx nr = n - j0 < NR ? n - j0 : NR;
            pack_right(j0, nr, p0, kb, k, right, pack_b);
            /* a lower tile skips the micro-tiles wholly above its diagonal */
            for (idx i0 = t->lower ? j0 / MR * MR : 0; i0 < m; i0 += MR) {
                const idx first = tri < 0 ? 0 : tri + i0;  /* the panel's first k */
                if (first >= p0 + kb && !last)
                    continue;
                const idx skip = first <= p0 ? 0 : first - p0 < kb ? first - p0 : kb;
                const idx mr = m - i0 < MR ? m - i0 : MR;
                const idx at = 2 * NR * (i0 / MR + (j0 / NR) * mb);
                micro(t, kb - skip, pack_a + 2 * kb * i0 + 2 * MR * skip, pack_b + 2 * NR * skip,
                      i0, j0, mr, nr, first < p0 ? acc + at : NULL, last ? NULL : acc + at);
            }
        }
        p0 += kc;
    } while (p0 < K);
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
    update(&t, m, n, k, nterms, left, right, conj_left, -1, scratch);
}

/* ---------------------------------------------------------------------------
   The Hermitian mirror: a build's closing one, and herm(T) in the per-atom
   loops (herm_product).  It only moves memory.  The columns of an n_g 1536
   output are 24 KiB apart, a multiple of 4 KiB, so one row of every column
   falls in the same L1 set: a square block copied column by column from
   its transposed source evicts its own lines before it is done with them.
   A strip of MS columns written row by row keeps MS destination lines in
   use, fewer than an L1 set's ways, and reads each source run once; no
   hardware prefetcher follows the source's stride, so the copy prefetches
   the next block's runs itself. */

#define MB 16 /* the edge of a block that the scalar loop copies */
#define MW 64 /* the width of a destination block of a column-major c */
#define MS 8  /* the width of a strip of it */

/* Rows [r0, j) of each column j in [c0, c1) of the mirror through any
   strides, MB x MB blocks at a time: the whole mirror of a strided c, and
   the diagonal blocks and leftover columns of a column-major one. */
static void mirror_scalar(double *c, idx s0, idx s1, idx r0, idx c0, idx c1)
{
    for (idx j0 = c0; j0 < c1; j0 += MB) {
        const idx j1 = j0 + MB < c1 ? j0 + MB : c1;
        for (idx i0 = r0; i0 < j1 - 1; i0 += MB)
            for (idx j = j0; j < j1; j++) {
                const idx i1 = i0 + MB < j ? i0 + MB : j;
                double *col = c + 2 * j * s1;
                const double *row = c + 2 * j * s0;
                for (idx i = i0; i < i1; i++) {
                    col[2 * i * s0] = row[2 * i * s1];
                    col[2 * i * s0 + 1] = -row[2 * i * s1 + 1];
                }
            }
    }
}

/* Source runs that a block prefetches: `count` columns from x on, the same
   `rows` rows of each. */
struct runs {
    const double *x;
    idx count, rows;
};

/* Rows [i0, i1) of columns [j0, j1) of the mirror of a column-major c, all
   above the diagonal, j1 - j0 a multiple of MS: one MS-column strip at a
   time, row by row, so each source run c[j .. j + MS, i] is 128
   contiguous bytes read once.  Every two runs copied prefetch three lines
   of the next block's runs, run after run, three quarters of a whole
   block: on a 2-core x86-64 host, two lines a run (the whole block) were
   faster at n 1536 when other load contended for memory but slower at n
   1024 when none did, and one line a run the reverse. */
static void mirror_strips(double *c, idx s1, idx i0, idx i1, idx j0, idx j1, struct runs next)
{
    const idx lines = (next.rows + 3) / 4;  /* 64-byte lines of 4 complex elements */
    const idx runs = lines > 0 ? next.count : 0;
    idx run = 0, line = 0;
    for (idx j = j0; j < j1; j += MS)
        for (idx i = i0; i < i1; i++) {
            const double *src = c + 2 * (j + i * s1);
            double *dst = c + 2 * (i + j * s1);
            for (int k = (int)(i & 1); k < 2 && run < runs; k++) {
                __builtin_prefetch(next.x + 2 * run * s1 + 8 * line);
                if (++line == lines) {
                    line = 0;
                    run++;
                }
            }
            for (idx q = 0; q < MS; q++) {
                dst[2 * q * s1] = src[2 * q];
                dst[2 * q * s1 + 1] = -src[2 * q + 1];
            }
        }
}

/* The end of the whole strips of columns [j0, j1). */
static idx strips_end(idx j0, idx j1)
{
    return j0 + (j1 - j0) / MS * MS;
}

/* Columns [c0, c1) of the square c's Hermitian mirror, as
   kernels._mirror_columns makes them: element (i, j) above the diagonal
   gets the conjugate of (j, i), and a diagonal element's imaginary part
   +0.0.  A column-major c is filled MW columns at a time, MW rows above
   the diagonal block at a time by mirror_strips, each block prefetching
   the next one's source: MW rows further down the same columns, or the
   first rows of the next MW columns.  The diagonal blocks and the columns
   left over from whole strips go through mirror_scalar.  Copies and sign
   flips are exact, so any split of the columns, and either path, gives
   the same bits. */
void mirror_columns(double *c, idx s0, idx s1, idx c0, idx c1)
{
    if (s0 != 1)
        mirror_scalar(c, s0, s1, 0, c0, c1);
    else
        for (idx j0 = c0; j0 < c1; j0 += MW) {
            const idx j1 = j0 + MW < c1 ? j0 + MW : c1, js = strips_end(j0, j1);
            for (idx i0 = 0; i0 < j0; i0 += MW) {
                const idx i1 = i0 + MW < j0 ? i0 + MW : j0;
                struct runs next = {c + 2 * (j0 + i1 * s1), (i1 + MW < j0 ? i1 + MW : j0) - i1,
                                    js - j0};
                if (i1 == j0 && j1 < c1)
                    next = (struct runs){c + 2 * j1, MW < j1 ? MW : j1,
                                         strips_end(j1, j1 + MW < c1 ? j1 + MW : c1) - j1};
                mirror_strips(c, s1, i0, i1, j0, js, next);
            }
            mirror_scalar(c, 1, s1, j0, j0, js);
            mirror_scalar(c, 1, s1, 0, js, j1);
        }
    for (idx j = c0; j < c1; j++)
        c[2 * j * (s0 + s1) + 1] = 0.0;
}

/* ---------------------------------------------------------------------------
   The per-atom loops.  A stack of blocks is passed as its first element and
   its atom, row and column strides; block i starts 2*i*sa doubles in.  An
   output stack is a buffer cut into slots of n rows. */

/* Block i of a stack. */
static struct operand block(const double *x, idx sa, idx s0, idx s1, idx i)
{
    return (struct operand){x + 2 * i * sa, s0, s1};
}

/* The most scratch any tile of an n x m output of inner dimension k needs,
   on tiles of at most BLOCK: a ragged tile can need a plane pair that a
   full one does not. */
static size_t grid_scratch(idx n, idx m, idx k)
{
    const idx rows[2] = {n < BLOCK ? n : BLOCK, n % BLOCK};
    const idx cols[2] = {m < BLOCK ? m : BLOCK, m % BLOCK};
    size_t most = 0;
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++) {
            const size_t s = tile_scratch(rows[i], cols[j], k, 1);
            most = s > most ? s : most;
        }
    return most;
}

/* c <- alpha*op(L) R + beta*c for the n x m c and the n x n L, tile by
   tile on the BLOCK grid that kernels.run_partitioned plans for a GEMM;
   `tri` makes L upper triangular (see update). */
static void product(idx n, idx m, struct operand l, int conj, int tri, struct operand r,
                    double alpha, int beta, double *c, idx sc0, idx sc1, double *scratch)
{
    for (idx r0 = 0; r0 < n; r0 += BLOCK)
        for (idx c0 = 0; c0 < m; c0 += BLOCK) {
            const struct tile t = {alpha, beta, 0, c + 2 * (r0 * sc0 + c0 * sc1), sc0, sc1};
            const struct operand left = {l.x + 2 * r0 * l.s0, l.s0, l.s1};
            const struct operand right = {r.x + 2 * c0 * r.s1, r.s0, r.s1};
            update(&t, n - r0 < BLOCK ? n - r0 : BLOCK, m - c0 < BLOCK ? m - c0 : BLOCK, n, 1,
                   &left, &right, conj, tri ? r0 : -1, scratch);
        }
}

/* The lower triangle of the n x n t into the column-major w, zeros above. */
static void tril(idx n, struct operand t, double *w)
{
    for (idx j = 0; j < n; j++)
        for (idx i = 0; i < n; i++, w += 2) {
            const double *x = t.x + 2 * (i * t.s0 + j * t.s1);
            w[0] = i >= j ? x[0] : 0.0;
            w[1] = i >= j ? x[1] : 0.0;
        }
}

/* HEMM: c <- alpha*herm(T) R + beta*c, herm(T) formed in w by tril and the mirror. */
static void herm_product(idx n, idx m, struct operand t, double *w, struct operand r,
                         double alpha, int beta, double *c, idx sc0, idx sc1, double *tiles)
{
    tril(n, t, w);
    mirror_columns(w, 1, n, 0, n);
    product(n, m, (struct operand){w, 1, n}, 0, 0, r, alpha, beta, c, sc0, sc1, tiles);
}

/* The lower Cholesky factor of t's lower triangle, into the column-major
   n x n w, in kernels._potrf's order: after column j is formed, its
   term u*conj(v) is subtracted from the trailing lower triangle with the
   separated formula, so every element gets its subtractions in ascending
   column order.  The column is scaled as numpy divides a complex number by
   the real l, Smith's form with the ratio 0.0 of a +0.0 imaginary part.
   Returns 0, or the 1-based index of the first pivot that is not > 0
   (then w holds a partial factor). */
static int potrf(idx n, struct operand t, double *w)
{
    tril(n, t, w);
    for (idx j = 0; j < n; j++) {
        double *wj = w + 2 * j * n;
        const double d = wj[2 * j];
        if (!(d > 0.0))
            return (int)(j + 1);
        const double l = sqrt(d), s = 1.0 / (l + 0.0 * 0.0);
        wj[2 * j] = l;
        wj[2 * j + 1] = 0.0;
        for (idx i = j + 1; i < n; i++) {
            const double ar = wj[2 * i], ai = wj[2 * i + 1];
            wj[2 * i] = (ar + ai * 0.0) * s;
            wj[2 * i + 1] = (ai - ar * 0.0) * s;
        }
        for (idx q = j + 1; q < n; q++) {
            const double vr = wj[2 * q], vi = -wj[2 * q + 1];
            double *wq = w + 2 * q * n;
            /* the real and the imaginary parts in two loops: as one, GCC 12
               vectorizes the pair as a complex multiply-subtract and fuses
               it (vfmaddsub) despite -ffp-contract=off */
            for (idx p = q; p < n; p++)
                wq[2 * p] -= wj[2 * p] * vr - wj[2 * p + 1] * vi;
            for (idx p = q; p < n; p++)
                wq[2 * p + 1] -= wj[2 * p] * vi + wj[2 * p + 1] * vr;
        }
    }
    return 0;
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Doubles of scratch that loop1_atoms and loop2_atoms need for n x n
   blocks applied to n x m ones: one n x n complex block, then the
   scratch of the largest tile. */
size_t atoms_scratch(idx n, idx m)
{
    return (size_t)(2 * n * n) + grid_scratch(n, m, n);
}

/* Loop 2's routing: factor each of the count n x n blocks of t into w, the
   last one's factor staying there; info[i] is potrf's result and
   seconds[i] its time. */
void potrf_atoms(idx count, idx n, const double *t, idx ta, idx t0, idx t1,
                 int *info, double *seconds, double *w)
{
    for (idx i = 0; i < count; i++) {
        const double start = now();
        info[i] = potrf(n, block(t, ta, t0, t1, i), w);
        seconds[i] = now() - start;
    }
}

/* Loop 1: per atom i, c_i <- T_ab,i^H A_i (GEMM), then
   c_i <- 1/2 herm(T_i) B_i + c_i (HEMM).  seconds[2i] and seconds[2i + 1]
   are the two kernels' times. */
void loop1_atoms(idx count, idx n, idx m, const double *tab, idx taa, idx ta0, idx ta1,
                 const double *a, idx aa, idx a0, idx a1,
                 const double *t, idx ta, idx t0, idx t1, const double *b, idx ba, idx b0, idx b1,
                 double *c, idx ca, idx c0, idx c1, double *seconds, double *scratch)
{
    double *w = scratch, *tiles = scratch + 2 * n * n;
    for (idx i = 0; i < count; i++) {
        double *ci = c + 2 * i * ca;
        const struct operand h = block(tab, taa, ta0, ta1, i);
        const double start = now();
        product(n, m, (struct operand){h.x, h.s1, h.s0}, 1, 0, block(a, aa, a0, a1, i), 1.0, 0,
                ci, c0, c1, tiles);
        const double mid = now();
        herm_product(n, m, block(t, ta, t0, t1, i), w, block(b, ba, b0, b1, i), 0.5, 1, ci, c0, c1,
                     tiles);
        seconds[2 * i] = mid - start;
        seconds[2 * i + 1] = now() - mid;
    }
}

/* Loop 2's rows, in atom order: an atom with info[i] == 0 is factored
   again into the scratch and writes C^H A_i into the next slot of y
   (TRMM); any other atom writes herm(T_i) A_i into the next slot of x
   (HEMM).  seconds[2i] is the factorization's time (0 for a HEMM atom),
   seconds[2i + 1] the product's. */
void loop2_atoms(idx count, idx n, idx m, const int *info,
                 const double *t, idx ta, idx t0, idx t1, const double *a, idx aa, idx a0, idx a1,
                 double *y, idx ya, idx y0, idx y1, double *x, idx xa, idx x0, idx x1,
                 double *seconds, double *scratch)
{
    double *w = scratch, *tiles = scratch + 2 * n * n;
    idx ys = 0, xs = 0;
    for (idx i = 0; i < count; i++) {
        const struct operand ti = block(t, ta, t0, t1, i), ai = block(a, aa, a0, a1, i);
        const double start = now();
        double mid = start;
        if (info[i] == 0) {
            potrf(n, ti, w);
            mid = now();
            product(n, m, (struct operand){w, n, 1}, 1, 1, ai, 1.0, 0, y + 2 * ys * ya, y0, y1,
                    tiles);
            ys++;
        } else {
            herm_product(n, m, ti, w, ai, 1.0, 0, x + 2 * xs * xa, x0, x1, tiles);
            xs++;
        }
        seconds[2 * i] = mid - start;
        seconds[2 * i + 1] = now() - mid;
    }
}
