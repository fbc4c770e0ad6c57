/*
 * The native library (loaded by repro/engine/native.py): the LUT query
 * kernel of the ``biqgemm`` engine (repro/engine/compiled.py) and the
 * attention folds of repro/nn/attention.py and repro/nn/functional.py
 * (see "Attention folds" below).
 *
 * One call computes ``y = W_q @ x (+ bias)`` for a binary-coding-quantized
 * weight in key-matrix form: the DP lookup-table build of paper
 * Algorithm 1 and the LUT-stationary query of Algorithm 2, tile by tile.
 *
 * Bit-identity contract.  Every output element goes through exactly the
 * float operations of the batch-invariant numpy reference
 * (repro.core.lut.build_tables_dp + BiQGemm's loop query), in the same
 * order:
 *
 *   table seed   t[0] = ((-x0 - x1) - ...) - x_{mu-1}
 *   doubling     t[half + k] = t[k] + 2*x_j  for j = mu-1 down to 1
 *   mirror       t[top + k] = -t[top - 1 - k]
 *   query        per group tile, per bit plane i in order:
 *                  acc = ((0 + t_g0) + t_g1) + ...   (group order)
 *                  y  += acc * alpha_i
 *   epilogue     y += bias
 *
 * Rows are blocked (several independent accumulator chains in flight),
 * columns are processed a chunk at a time and loops are interchanged
 * freely, but each (row, bit, column) sum is still a left fold in group
 * order, so the result depends neither on the batch nor on the chunking.
 * The build must not contract multiply-adds or reassociate: it is
 * compiled with -ffp-contract=off and without -ffast-math.
 *
 * Column chunks.  The batch is cut into full chunks of LUTQ_CHUNK_F32
 * or LUTQ_CHUNK_F64 columns, and the tail into chunks of power-of-two
 * widths (7 float columns: 4 + 2 + 1), each a tile function compiled
 * at its constant width.  Each chunk runs the whole tile schedule on
 * its own.  The table scratch therefore holds tile_g * 2^mu * chunk
 * entries whatever the batch is (lutq_scratch_bytes).  Columns are
 * added LUTQ_VEC bytes at a time through the compiler's vector type:
 * lane by lane the same adds as scalar code.
 *
 * L1 sub-tiles.  A double chunk's tile builds and queries its tables
 * LUTQ_SUB_BYTES at a time (8 groups at mu=8) instead of all tile_g
 * groups at once, so the tables it reads stay near the core.  Each
 * (bit, row, column) partial sum waits in a carry scratch between
 * steps, and y += acc * alpha runs once, in bit order, when the tile
 * ends: still one left fold in group order per output.  The group
 * tiles themselves stay BiQGemm.invariant_tiles'.
 *
 * ISA clones.  On x86-64 (gcc 12+, glibc) the wider tiles and the
 * typed entry points are also compiled for x86-64-v3 (AVX2), and an
 * ifunc picks the clone once per process; the batch-1 and batch-2
 * tiles stay on the baseline ISA.  -DLUTQ_NO_CLONES builds the
 * baseline alone, which gives the same bits
 * (tests/contracts/test_native_kernel.py).
 *
 * Measured on 3-bit, mu=8 layers of 128-2048 rows and columns, one
 * Xeon core with AVX-512 (interleaved medians against the scalar-loop
 * kernel of 32 float / 4 double columns): 8 float columns were faster
 * than 16 or 32 from 1024 rows up and within noise below; 4 double
 * columns with 64 KB sub-tiles beat 32 KB and no sub-tiles; sub-tiled
 * float chunks were slower on the narrow layers.  See CHANGES.md for
 * the sweep.
 *
 * The file instantiates itself: the first pass defines the shared
 * plan struct and includes this file once per (float type, key type)
 * with LUTQ_T / LUTQ_K set, which emits the typed kernels; the public
 * entry point ``lutq_run`` dispatches on the plan's dtype codes.
 */

#ifndef LUTQ_T

#include <stdint.h>
#include <string.h>

#define LUTQ_CHUNK_F32 8  /* float columns per chunk (measured) */
#define LUTQ_CHUNK_F64 4  /* double columns per chunk (measured) */
#define LUTQ_MAX_MU 16    /* = repro.core.keys.MAX_MU */
#define LUTQ_ROWS 4       /* output rows whose folds run interleaved */
#define LUTQ_SUB_F32 0    /* float full chunks are not sub-tiled (measured) */
#define LUTQ_SUB_F64 1    /* double full chunks are sub-tiled (measured) */
#define LUTQ_SUB_BYTES 65536 /* tables per sub-tile step (measured) */
#define LUTQ_VEC 32       /* bytes of one vector add */
#define LUTQ_ALIGN 64     /* tables start on a cache line */

/* ISA clones (see above); LUTQ_NO_CLONES is the portable-build hook. */
#if defined(__x86_64__) && defined(__GNUC__) && __GNUC__ >= 12 \
    && !defined(__clang__) && defined(__GLIBC__) && !defined(LUTQ_NO_CLONES)
#define LUTQ_WIDE __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define LUTQ_WIDE
#endif

/* Everything about a layer's calls in one dtype: fixed once per engine
 * and dtype, read-only afterwards, so concurrent calls may share it.
 * Mirrored by repro.engine.native.Plan; the arrays are owned by the
 * Python engine. */
typedef struct {
    int64_t m;           /* output rows */
    int64_t n;           /* input rows (unpadded) */
    int64_t groups;      /* ceil(n / mu) */
    int64_t tile_g;      /* groups per LUT-stationary tile */
    int32_t mu;          /* LUT unit, 1..LUTQ_MAX_MU */
    int32_t bits;        /* bit planes */
    int32_t fp64;        /* 1: double, 0: float */
    int32_t key_bytes;   /* 1: uint8 keys, 2: uint16 keys */
    const void *keys;    /* (bits, m, groups) C order */
    const void *alphas;  /* (bits, m) C order, float type */
    const void *bias;    /* (m,) float type, or NULL */
} lutq_plan;

static int lutq_valid(const lutq_plan *p)
{
    return p->m >= 1 && p->n >= 1 && p->mu >= 1 && p->mu <= LUTQ_MAX_MU
        && p->bits >= 1 && p->groups == (p->n + p->mu - 1) / p->mu
        && p->tile_g >= 1 && (p->fp64 == 0 || p->fp64 == 1)
        && (p->key_bytes == 1 || p->key_bytes == 2);
}

/* Groups per L1 sub-tile: about LUTQ_SUB_BYTES of tables for a chunk
 * of w columns of itemsize bytes, at least one. */
static int64_t lutq_sub_groups(int mu, int64_t w, int64_t itemsize)
{
    const int64_t groups = LUTQ_SUB_BYTES / ((w * itemsize) << mu);
    return groups > 1 ? groups : 1;
}

/* Bytes of scratch one call on *p* needs, at any batch: the tables of
 * one group tile, then the carry of the sub-tiled full chunks when a
 * tile spans more than one sub-tile.  -1 for a plan outside the
 * kernel's envelope. */
int64_t lutq_scratch_bytes(const lutq_plan *p)
{
    if (!lutq_valid(p))
        return -1;
    const int64_t itemsize = p->fp64 ? sizeof(double) : sizeof(float);
    const int64_t chunk = p->fp64 ? LUTQ_CHUNK_F64 : LUTQ_CHUNK_F32;
    const int sub = p->fp64 ? LUTQ_SUB_F64 : LUTQ_SUB_F32;
    int64_t bytes = LUTQ_ALIGN + (p->tile_g << p->mu) * chunk * itemsize;
    if (sub && p->tile_g > lutq_sub_groups(p->mu, chunk, itemsize))
        bytes += p->bits * p->m * chunk * itemsize;
    return bytes;
}

#define LUTQ_CAT_(a, b) a##_##b
#define LUTQ_CAT(a, b) LUTQ_CAT_(a, b)

#define LUTQ_T float
#define LUTQ_K uint8_t
#define LUTQ_CHUNK LUTQ_CHUNK_F32
#define LUTQ_SUB LUTQ_SUB_F32
#define LUTQ_SUFFIX f32_u8
#include "_lutq.c"
#define LUTQ_T float
#define LUTQ_K uint16_t
#define LUTQ_CHUNK LUTQ_CHUNK_F32
#define LUTQ_SUB LUTQ_SUB_F32
#define LUTQ_SUFFIX f32_u16
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint8_t
#define LUTQ_CHUNK LUTQ_CHUNK_F64
#define LUTQ_SUB LUTQ_SUB_F64
#define LUTQ_SUFFIX f64_u8
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint16_t
#define LUTQ_CHUNK LUTQ_CHUNK_F64
#define LUTQ_SUB LUTQ_SUB_F64
#define LUTQ_SUFFIX f64_u16
#include "_lutq.c"

/* y (m, batch), C order, in the plan's float type; x (n, batch) read
 * through byte strides; tables is lutq_scratch_bytes(p) of scratch,
 * aligned for the float type.  Returns 0, or -1 for a plan or batch
 * outside the kernel's envelope (nothing is written then). */
int lutq_run(const lutq_plan *p, int64_t batch, void *tables,
             const char *x, int64_t stride_row, int64_t stride_col, void *y)
{
    if (batch < 1 || !lutq_valid(p))
        return -1;
    if (p->fp64 && p->key_bytes == 1)
        lutq_run_f64_u8(p, batch, tables, x, stride_row, stride_col, y);
    else if (p->fp64)
        lutq_run_f64_u16(p, batch, tables, x, stride_row, stride_col, y);
    else if (p->key_bytes == 1)
        lutq_run_f32_u8(p, batch, tables, x, stride_row, stride_col, y);
    else
        lutq_run_f32_u16(p, batch, tables, x, stride_row, stride_col, y);
    return 0;
}

/*
 * Attention folds (repro/nn/attention.py, repro/nn/functional.py).
 *
 * The attention block's activation products and the softmax
 * denominator are strict sequential left folds, in double:
 *
 *   fold_dot       out[l, i, j] = ((a[l,i,0]*b[l,j,0] + a[l,i,1]*b[l,j,1])
 *                                  + ...) + a[l,i,C-1]*b[l,j,C-1]
 *   fold_softmax   s = ((x[l,0] + x[l,1]) + ...) + x[l,N-1];
 *                  x[l,k] = x[l,k] / s
 *
 * Each fold is seeded with its first term, not with 0.0 (0.0 + -0.0 is
 * +0.0), so every output carries the bits of numpy's running cumsum
 * over the materialized products -- the Python fallback.  Independent
 * outputs run interleaved; one output's terms are never regrouped.
 *
 * Operands are read in place through byte strides (0 on a broadcast
 * dim), over any number of leading dims l.  geom packs, for nlead
 * leading dims:
 *
 *   fold_dot      shape  lead..., I, J, C
 *                 a      lead..., i, c     (byte strides)
 *                 b      lead..., j, c
 *                 out    lead..., i, j
 *   fold_softmax  shape  lead..., N
 *                 x      lead..., k
 */

#define FOLD_MAX_LEAD 64 /* numpy's NPY_MAXDIMS */
#define FOLD_J 8         /* outputs of one row folded together */

#define AT(p, off) (*(const double *)((const char *)(p) + (off)))

/* out[i, j0 .. j0 + w) of one leading block.  Inlined with a constant
 * w and unit, so the w folds live in registers; with unit (b's j
 * stride is one double) the compiler vectorizes across them. */
static inline __attribute__((always_inline)) void
fold_dot_row(const char *a, int64_t sac, const char *b, int64_t sbj,
             int64_t sbc, int64_t nc, double *out, int64_t soj,
             const int64_t w, const int unit)
{
    double acc[FOLD_J];
    const int64_t bj = unit ? (int64_t)sizeof(double) : sbj;
    const double a0 = AT(a, 0);
    for (int64_t jj = 0; jj < w; ++jj)
        acc[jj] = a0 * AT(b, jj * bj);
    for (int64_t c = 1; c < nc; ++c) {
        const double ac = AT(a, c * sac);
        const char *bc = b + c * sbc;
        for (int64_t jj = 0; jj < w; ++jj)
            acc[jj] = acc[jj] + ac * AT(bc, jj * bj);
    }
    for (int64_t jj = 0; jj < w; ++jj)
        *(double *)((char *)out + jj * soj) = acc[jj];
}

static __attribute__((noinline)) void
fold_dot_block(const char *a, const char *b, char *out, int64_t ni,
               int64_t nj, int64_t nc, int64_t sai, int64_t sac,
               int64_t sbj, int64_t sbc, int64_t soi, int64_t soj)
{
    const int unit = sbj == (int64_t)sizeof(double);
    for (int64_t i = 0; i < ni; ++i) {
        const char *ai = a + i * sai;
        char *oi = out + i * soi;
        int64_t j = 0;
        for (; j + FOLD_J <= nj; j += FOLD_J) {
            if (unit)
                fold_dot_row(ai, sac, b + j * sbj, sbj, sbc, nc,
                             (double *)(oi + j * soj), soj, FOLD_J, 1);
            else
                fold_dot_row(ai, sac, b + j * sbj, sbj, sbc, nc,
                             (double *)(oi + j * soj), soj, FOLD_J, 0);
        }
        if (j < nj)
            fold_dot_row(ai, sac, b + j * sbj, sbj, sbc, nc,
                         (double *)(oi + j * soj), soj, nj - j, 0);
    }
}

/* Advance the odometer idx over shape[0 .. nlead); 0 once it wraps. */
static int fold_next(int64_t nlead, const int64_t *shape, int64_t *idx)
{
    for (int64_t d = nlead - 1; d >= 0; --d) {
        if (++idx[d] < shape[d])
            return 1;
        idx[d] = 0;
    }
    return 0;
}

/* Byte offset of leading index idx under strides st. */
static int64_t fold_offset(int64_t nlead, const int64_t *idx,
                           const int64_t *st)
{
    int64_t off = 0;
    for (int64_t d = 0; d < nlead; ++d)
        off += idx[d] * st[d];
    return off;
}

static int fold_shape_ok(int64_t nlead, const int64_t *shape, int64_t dims)
{
    if (nlead < 0 || nlead > FOLD_MAX_LEAD)
        return 0;
    for (int64_t d = 0; d < nlead + dims; ++d)
        if (shape[d] < 0)
            return 0;
    return 1;
}

/* Returns 0, or -1 for a geometry outside the kernel's envelope
 * (nothing is written then). */
int fold_dot(int64_t nlead, const int64_t *geom, const char *a,
             const char *b, char *out)
{
    if (!fold_shape_ok(nlead, geom, 3) || geom[nlead + 2] < 1)
        return -1;
    const int64_t *shape = geom;
    const int64_t *sa = shape + nlead + 3;
    const int64_t *sb = sa + nlead + 2;
    const int64_t *so = sb + nlead + 2;
    int64_t idx[FOLD_MAX_LEAD] = {0};
    for (int64_t d = 0; d < nlead; ++d)
        if (shape[d] == 0)
            return 0;
    do {
        fold_dot_block(a + fold_offset(nlead, idx, sa),
                       b + fold_offset(nlead, idx, sb),
                       out + fold_offset(nlead, idx, so),
                       shape[nlead], shape[nlead + 1], shape[nlead + 2],
                       sa[nlead], sa[nlead + 1], sb[nlead], sb[nlead + 1],
                       so[nlead], so[nlead + 1]);
    } while (fold_next(nlead, shape, idx));
    return 0;
}

int fold_softmax(int64_t nlead, const int64_t *geom, char *x)
{
    if (!fold_shape_ok(nlead, geom, 1) || geom[nlead] < 1)
        return -1;
    const int64_t *shape = geom;
    const int64_t *sx = shape + nlead + 1;
    const int64_t n = shape[nlead], sk = sx[nlead];
    int64_t idx[FOLD_MAX_LEAD] = {0};
    for (int64_t d = 0; d < nlead; ++d)
        if (shape[d] == 0)
            return 0;
    do {
        char *row = x + fold_offset(nlead, idx, sx);
        double s = AT(row, 0);
        for (int64_t k = 1; k < n; ++k)
            s = s + AT(row, k * sk);
        for (int64_t k = 0; k < n; ++k) {
            double *e = (double *)(row + k * sk);
            *e = *e / s;
        }
    } while (fold_next(nlead, shape, idx));
    return 0;
}

#undef AT

#else /* one typed instantiation: LUTQ_T floats, LUTQ_K keys */

#define T LUTQ_T
#define K LUTQ_K
#define FN(name) LUTQ_CAT(name, LUTQ_SUFFIX)

/* Input element (row, col); rows past n are reshape_input's zero pad. */
static inline T FN(xval)(const lutq_plan *p, const char *x, int64_t sr,
                         int64_t sc, int64_t row, int64_t col)
{
    return row < p->n ? *(const T *)(x + row * sr + col * sc) : (T)0;
}

/* Column runs of LUTQ_VEC bytes are added as one vector: lane by lane
 * the same IEEE adds as the scalar loops, which serve the chunk widths
 * too narrow for a vector (and are kept rolled, so the compiler
 * vectorizes them instead of unrolling them into scalar code). */
typedef T FN(vec) __attribute__((vector_size(LUTQ_VEC), aligned(sizeof(T)),
                                  may_alias));
#define VL ((int64_t)(LUTQ_VEC / sizeof(T)))
#define VAT(ptr) (*(FN(vec) *)(ptr)) /* the vector at ptr, any alignment */
#define ROLLED _Pragma("GCC unroll 1")

/* Algorithm 1 for groups [g0, g0 + g_len) of one column chunk of width
 * w: tables[g][key][col].  Inlined with a constant w for each tile
 * width. */
static inline __attribute__((always_inline)) void
FN(build)(const lutq_plan *p, T *tables, const char *x, int64_t sr,
          int64_t sc, int64_t g0, int64_t g_len, const int64_t w)
{
    const int mu = p->mu;
    const int64_t entries = (int64_t)1 << mu;
    const int64_t top = entries >> 1;
    T two[LUTQ_CHUNK];
    for (int64_t g = 0; g < g_len; ++g) {
        T *t = tables + g * entries * w;
        const int64_t row0 = (g0 + g) * mu;
        for (int64_t c = 0; c < w; ++c)
            t[c] = -FN(xval)(p, x, sr, sc, row0, c);
        for (int j = 1; j < mu; ++j)
            for (int64_t c = 0; c < w; ++c)
                t[c] = t[c] - FN(xval)(p, x, sr, sc, row0 + j, c);
        for (int s = 0; s < mu - 1; ++s) {
            const int64_t half = (int64_t)1 << s;
            for (int64_t c = 0; c < w; ++c)
                two[c] = (T)2 * FN(xval)(p, x, sr, sc, row0 + mu - 1 - s, c);
            for (int64_t k = 0; k < half; ++k) {
                T *dst = t + (half + k) * w;
                const T *src = t + k * w;
                if (w % VL == 0) {
                    for (int64_t c = 0; c < w; c += VL)
                        VAT(dst + c) = VAT(src + c) + VAT(two + c);
                } else {
                    ROLLED for (int64_t c = 0; c < w; ++c)
                        dst[c] = src[c] + two[c];
                }
            }
        }
        for (int64_t k = 0; k < top; ++k) {
            T *dst = t + (top + k) * w;
            const T *src = t + (top - 1 - k) * w;
            if (w % VL == 0) {
                for (int64_t c = 0; c < w; c += VL)
                    VAT(dst + c) = -VAT(src + c);
            } else {
                ROLLED for (int64_t c = 0; c < w; ++c)
                    dst[c] = -src[c];
            }
        }
    }
}

/* Query rows [r, r + nr) of groups [g0, g0 + g_len) into the chunk's
 * columns of y (row stride ldy), all bit planes.  Inlined with a
 * constant nr and w, so the nr * w accumulators live in registers and
 * their independent folds overlap in the pipeline.  A group tile may
 * be queried in several sub-tile steps: resume starts each fold from
 * the partial sums the previous step left in carry (bits, m, w), and
 * only the last step (finish) adds them into y; the others store them
 * back to carry. */
static inline __attribute__((always_inline)) void
FN(query_rows)(const lutq_plan *p, const T *tables, int64_t g0,
               int64_t g_len, T *y, int64_t ldy, int64_t r, const int nr,
               const int64_t w, T *carry, const int resume,
               const int finish)
{
    const int64_t m = p->m, groups = p->groups;
    const int64_t entries = (int64_t)1 << p->mu;
    const K *keys = (const K *)p->keys;
    const T *alphas = (const T *)p->alphas;
    for (int i = 0; i < p->bits; ++i) {
        const K *kr = keys + ((int64_t)i * m + r) * groups + g0;
        T *part = carry + ((int64_t)i * m + r) * w;
        if (w % VL == 0) {
            const int64_t nv = w / VL;
            FN(vec) acc[LUTQ_ROWS * LUTQ_CHUNK / VL];
            for (int64_t e = 0; e < nr * nv; ++e)
                acc[e] = resume ? VAT(part + e * VL) : (FN(vec)){0};
            for (int64_t g = 0; g < g_len; ++g) {
                const T *t = tables + g * entries * w;
                for (int rr = 0; rr < nr; ++rr) {
                    const T *hit = t + (int64_t)kr[rr * groups + g] * w;
                    for (int64_t v = 0; v < nv; ++v)
                        acc[rr * nv + v] += VAT(hit + v * VL);
                }
            }
            if (!finish) {
                for (int64_t e = 0; e < nr * nv; ++e)
                    VAT(part + e * VL) = acc[e];
                continue;
            }
            for (int rr = 0; rr < nr; ++rr) {
                const T alpha = alphas[(int64_t)i * m + r + rr];
                T *yr = y + (r + rr) * ldy;
                for (int64_t v = 0; v < nv; ++v)
                    VAT(yr + v * VL) += acc[rr * nv + v] * alpha;
            }
            continue;
        }
        T acc[LUTQ_ROWS * LUTQ_CHUNK];
        for (int64_t e = 0; e < nr * w; ++e)
            acc[e] = resume ? part[e] : (T)0;
        for (int64_t g = 0; g < g_len; ++g) {
            const T *t = tables + g * entries * w;
            for (int rr = 0; rr < nr; ++rr) {
                const T *hit = t + (int64_t)kr[rr * groups + g] * w;
                ROLLED for (int64_t c = 0; c < w; ++c)
                    acc[rr * w + c] += hit[c];
            }
        }
        if (!finish) {
            for (int64_t e = 0; e < nr * w; ++e)
                part[e] = acc[e];
            continue;
        }
        for (int rr = 0; rr < nr; ++rr) {
            const T alpha = alphas[(int64_t)i * m + r + rr];
            ROLLED for (int64_t c = 0; c < w; ++c)
                y[(r + rr) * ldy + c] += acc[rr * w + c] * alpha;
        }
    }
}

/* One group tile of one column chunk: build its tables, then query
 * every row.  With sub, the tile is built and queried lutq_sub_groups
 * groups at a time (an L1 sub-tile), and the partial sums wait in
 * carry between steps. */
static inline __attribute__((always_inline)) void
FN(tile)(const lutq_plan *p, T *tables, T *carry, const char *x,
         int64_t sr, int64_t sc, int64_t g0, int64_t g_len, T *y,
         int64_t ldy, const int64_t w, const int sub)
{
    const int64_t m = p->m;
    const int64_t step = sub ? lutq_sub_groups(p->mu, w, sizeof(T)) : g_len;
    for (int64_t s0 = 0; s0 < g_len; s0 += step) {
        const int64_t len = g_len - s0 < step ? g_len - s0 : step;
        const int resume = sub && s0 > 0;
        const int finish = !sub || s0 + len == g_len;
        int64_t r = 0;
        FN(build)(p, tables, x, sr, sc, g0 + s0, len, w);
        for (; r + LUTQ_ROWS <= m; r += LUTQ_ROWS)
            FN(query_rows)(p, tables, g0 + s0, len, y, ldy, r, LUTQ_ROWS,
                           w, carry, resume, finish);
        for (; r < m; ++r)
            FN(query_rows)(p, tables, g0 + s0, len, y, ldy, r, 1, w, carry,
                           resume, finish);
    }
}

/* The tile at each constant width lutq_run cuts a batch into.  Kept
 * out of line so each width is compiled on its own; inlined together,
 * the batch-1 query measured up to ~1.5x slower. */
typedef void (*FN(tile_fn))(const lutq_plan *, T *, T *, const char *,
                            int64_t, int64_t, int64_t, int64_t, T *,
                            int64_t);
#define LUTQ_TILE_AT(width, name, sub, attrs)                            \
    static __attribute__((noinline)) attrs void FN(name)(                \
        const lutq_plan *p, T *tables, T *carry, const char *x,          \
        int64_t sr, int64_t sc, int64_t g0, int64_t g_len, T *y,         \
        int64_t ldy)                                                     \
    {                                                                    \
        FN(tile)(p, tables, carry, x, sr, sc, g0, g_len, y, ldy, width,  \
                 sub);                                                   \
    }
LUTQ_TILE_AT(1, tile_1, 0, )
LUTQ_TILE_AT(2, tile_2, 0, )
#if LUTQ_CHUNK > 4
LUTQ_TILE_AT(4, tile_4, 0, LUTQ_WIDE)
#endif
LUTQ_TILE_AT(LUTQ_CHUNK, tile_chunk, LUTQ_SUB, LUTQ_WIDE)
#undef LUTQ_TILE_AT

/* Full chunks first, then the tail in power-of-two widths (7 float
 * columns: 4 + 2 + 1).  Each chunk runs the whole tile schedule on its
 * own columns. */
static LUTQ_WIDE void FN(lutq_run)(const lutq_plan *p, int64_t b,
                                   void *scratch, const char *x,
                                   int64_t sr, int64_t sc, void *out)
{
    T *y = (T *)out;
    T *tables = (T *)(((uintptr_t)scratch + LUTQ_ALIGN - 1)
                      & ~(uintptr_t)(LUTQ_ALIGN - 1));
    T *carry = tables + (p->tile_g << p->mu) * LUTQ_CHUNK;
    const int64_t m = p->m;
    int64_t w;
    memset(y, 0, (size_t)(m * b) * sizeof(T));
    for (int64_t c0 = 0; c0 < b; c0 += w) {
        const int64_t rest = b - c0;
        FN(tile_fn) tile;
        if (rest >= LUTQ_CHUNK)
            w = LUTQ_CHUNK, tile = FN(tile_chunk);
#if LUTQ_CHUNK > 4
        else if (rest >= 4)
            w = 4, tile = FN(tile_4);
#endif
        else if (rest >= 2)
            w = 2, tile = FN(tile_2);
        else
            w = 1, tile = FN(tile_1);
        for (int64_t g0 = 0; g0 < p->groups; g0 += p->tile_g) {
            const int64_t left = p->groups - g0;
            const int64_t g_len = left < p->tile_g ? left : p->tile_g;
            tile(p, tables, carry, x + c0 * sc, sr, sc, g0, g_len, y + c0,
                 b);
        }
    }
    if (p->bias != NULL) {
        const T *bias = (const T *)p->bias;
        for (int64_t r = 0; r < m; ++r)
            for (int64_t c = 0; c < b; ++c)
                y[r * b + c] += bias[r];
    }
}

#undef ROLLED
#undef VAT
#undef VL
#undef FN
#undef K
#undef T
#undef LUTQ_SUFFIX
#undef LUTQ_SUB
#undef LUTQ_CHUNK
#undef LUTQ_K
#undef LUTQ_T

#endif
