/* The native exact engine: out = op(a) @ b for one output tile.

   Every element is accumulated in ascending k with the separated formula,
   acc_r += xr*yr - xi*yi and acc_i += xr*yi + xi*yr, from +0.0, which is
   the operation sequence of kernels._acc_product; built with
   -ffp-contract=off and without -ffast-math, the compiler may neither fuse
   nor reorder it, so the bits are the same.  k runs in blocks of kc: each
   block of a is packed into MR-row micro-panels (the imaginary part negated
   when conj_left is set, which is exact) and each block of b into NR-column
   micro-panels, and an MR x NR register tile is reloaded from out between
   blocks.  Strides are in complex elements; out is column-major m x n; the
   caller owns out and both pack buffers, and nothing here allocates. */

#include <stddef.h>

#define MR 8
#define NR 4

typedef ptrdiff_t idx;
/* GCC/Clang vector extensions: MR doubles, and the same read from a pack
   buffer that numpy aligned to 8 bytes only. */
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

/* Columns [0, n) of b's kb rows: per k, NR real then NR imaginary parts. */
static void pack_right(idx n, idx kb, const double *b, idx s0, idx s1, double *pb)
{
    for (idx j0 = 0; j0 < n; j0 += NR)
        for (idx p = 0; p < kb; p++, pb += 2 * NR)
            for (idx j = 0; j < NR; j++) {
                pb[j] = pb[NR + j] = 0.0;
                if (j0 + j < n) {
                    const double *y = b + 2 * (p * s0 + (j0 + j) * s1);
                    pb[j] = y[0];
                    pb[NR + j] = y[1];
                }
            }
}

/* One mr x nr tile of out (leading dimension ldo), from +0.0 when first.
   The MR rows are one vector, so each operation below is MR independent
   IEEE operations, the same per element as the scalar formula. */
static void micro(idx kb, const double *pa, const double *pb, double *out, idx ldo,
                  idx mr, idx nr, int first)
{
    vec cr[NR], ci[NR];
    for (idx j = 0; j < NR; j++)
        for (idx i = 0; i < MR; i++) {
            int load = !first && i < mr && j < nr;
            cr[j][i] = load ? out[2 * (i + j * ldo)] : 0.0;
            ci[j][i] = load ? out[2 * (i + j * ldo) + 1] : 0.0;
        }
    for (idx p = 0; p < kb; p++, pa += 2 * MR, pb += 2 * NR) {
        vec xr = *(const uvec *)pa, xi = *(const uvec *)(pa + MR);
        for (idx j = 0; j < NR; j++) {
            double yr = pb[j], yi = pb[NR + j];
            cr[j] += xr * yr - xi * yi;
            ci[j] += xr * yi + xi * yr;
        }
    }
    for (idx j = 0; j < nr; j++)
        for (idx i = 0; i < mr; i++) {
            out[2 * (i + j * ldo)] = cr[j][i];
            out[2 * (i + j * ldo) + 1] = ci[j][i];
        }
}

void acc_product(idx m, idx n, idx k, idx kc, const double *a, idx sa0, idx sa1,
                 const double *b, idx sb0, idx sb1, int conj_left, double *out,
                 double *pack_a, double *pack_b)
{
    idx p0 = 0;
    do {  /* k == 0 still runs one empty block, which writes +0.0 */
        idx kb = k - p0 < kc ? k - p0 : kc;
        pack_left(m, kb, a + 2 * p0 * sa1, sa0, sa1, conj_left, pack_a);
        pack_right(n, kb, b + 2 * p0 * sb0, sb0, sb1, pack_b);
        for (idx j0 = 0; j0 < n; j0 += NR)
            for (idx i0 = 0; i0 < m; i0 += MR)
                micro(kb, pack_a + 2 * kb * i0, pack_b + 2 * kb * j0, out + 2 * (i0 + j0 * m),
                      m, m - i0 < MR ? m - i0 : MR, n - j0 < NR ? n - j0 : NR, p0 == 0);
        p0 += kc;
    } while (p0 < k);
}
