/*
 * Native LUT query kernel for the ``compiled`` engine
 * (repro/engine/compiled.py, loaded by repro/engine/native.py).
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
 * Column chunks.  The batch is cut into chunks of LUTQ_CHUNK_F32 or
 * LUTQ_CHUNK_F64 columns (the last one narrower), and each chunk runs
 * the whole tile schedule on its own.  The table scratch therefore
 * holds tile_g * 2^mu * chunk entries whatever the batch is
 * (lutq_scratch_bytes).  The widths were measured on 3-bit, mu=8
 * layers of 128-1024 columns, x86-64 baseline ISA: against one chunk
 * as wide as the batch, 32 float columns took 0.70-0.85x the time at
 * batches 33-64, and 4 double columns 0.5-0.85x at batches 5-64.
 * Narrower float chunks and wider double chunks were slower, and one
 * shared width of 8 was slower than either.
 *
 * The file instantiates itself: the first pass defines the shared
 * plan struct and includes this file once per (float type, key type)
 * with LUTQ_T / LUTQ_K set, which emits the typed kernels; the public
 * entry point ``lutq_run`` dispatches on the plan's dtype codes.
 */

#ifndef LUTQ_T

#include <stdint.h>
#include <string.h>

#define LUTQ_CHUNK_F32 32 /* float columns per chunk (measured) */
#define LUTQ_CHUNK_F64 4  /* double columns per chunk (measured) */
#define LUTQ_MAX_MU 16    /* = repro.core.keys.MAX_MU */
#define LUTQ_ROWS 4       /* output rows whose folds run interleaved */

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

/* Bytes of table scratch one call on *p* needs, at any batch; -1 for a
 * plan outside the kernel's envelope. */
int64_t lutq_scratch_bytes(const lutq_plan *p)
{
    if (!lutq_valid(p))
        return -1;
    return (p->tile_g << p->mu)
        * (p->fp64 ? LUTQ_CHUNK_F64 * (int64_t)sizeof(double)
                   : LUTQ_CHUNK_F32 * (int64_t)sizeof(float));
}

#define LUTQ_CAT_(a, b) a##_##b
#define LUTQ_CAT(a, b) LUTQ_CAT_(a, b)

#define LUTQ_T float
#define LUTQ_K uint8_t
#define LUTQ_CHUNK LUTQ_CHUNK_F32
#define LUTQ_SUFFIX f32_u8
#include "_lutq.c"
#define LUTQ_T float
#define LUTQ_K uint16_t
#define LUTQ_CHUNK LUTQ_CHUNK_F32
#define LUTQ_SUFFIX f32_u16
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint8_t
#define LUTQ_CHUNK LUTQ_CHUNK_F64
#define LUTQ_SUFFIX f64_u8
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint16_t
#define LUTQ_CHUNK LUTQ_CHUNK_F64
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

/* Algorithm 1 for groups [g0, g0 + g_len) of one column chunk of width
 * w: tables[g][key][col].  Inlined with a constant w for the widths of
 * lutq_run's switch. */
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
            for (int64_t k = 0; k < half; ++k)
                for (int64_t c = 0; c < w; ++c)
                    t[(half + k) * w + c] = t[k * w + c] + two[c];
        }
        for (int64_t k = 0; k < top; ++k)
            for (int64_t c = 0; c < w; ++c)
                t[(top + k) * w + c] = -t[(top - 1 - k) * w + c];
    }
}

/* Query rows [r, r + nr) of one group tile into the chunk's columns of
 * y (row stride ldy), all bit planes.  Inlined with a constant nr and
 * w, so the nr * w accumulators live in registers and their
 * independent folds overlap in the pipeline. */
static inline __attribute__((always_inline)) void
FN(query_rows)(const lutq_plan *p, const T *tables, int64_t g0,
               int64_t g_len, T *y, int64_t ldy, int64_t r, const int nr,
               const int64_t w)
{
    const int64_t m = p->m, groups = p->groups;
    const int64_t entries = (int64_t)1 << p->mu;
    const K *keys = (const K *)p->keys;
    const T *alphas = (const T *)p->alphas;
    for (int i = 0; i < p->bits; ++i) {
        const K *kr = keys + ((int64_t)i * m + r) * groups + g0;
        T acc[LUTQ_ROWS * LUTQ_CHUNK];
        for (int64_t e = 0; e < nr * w; ++e)
            acc[e] = (T)0;
        for (int64_t g = 0; g < g_len; ++g) {
            const T *t = tables + g * entries * w;
            for (int rr = 0; rr < nr; ++rr) {
                const T *hit = t + (int64_t)kr[rr * groups + g] * w;
                for (int64_t c = 0; c < w; ++c)
                    acc[rr * w + c] += hit[c];
            }
        }
        for (int rr = 0; rr < nr; ++rr) {
            const T alpha = alphas[(int64_t)i * m + r + rr];
            for (int64_t c = 0; c < w; ++c)
                y[(r + rr) * ldy + c] += acc[rr * w + c] * alpha;
        }
    }
}

/* One group tile of one column chunk: build its tables, then query
 * every row. */
static inline __attribute__((always_inline)) void
FN(tile)(const lutq_plan *p, T *tables, const char *x, int64_t sr,
         int64_t sc, int64_t g0, int64_t g_len, T *y, int64_t ldy,
         const int64_t w)
{
    const int64_t m = p->m;
    int64_t r = 0;
    FN(build)(p, tables, x, sr, sc, g0, g_len, w);
    for (; r + LUTQ_ROWS <= m; r += LUTQ_ROWS)
        FN(query_rows)(p, tables, g0, g_len, y, ldy, r, LUTQ_ROWS, w);
    for (; r < m; ++r)
        FN(query_rows)(p, tables, g0, g_len, y, ldy, r, 1, w);
}

/* The tile at constant widths: full chunks, and batches 1 and 2 (the
 * measured decode regime: predict-b1, two-stream decode ticks).  Kept
 * out of line so each width is compiled on its own; inlined together,
 * the batch-1 query measured up to ~1.5x slower. */
#define LUTQ_TILE_AT(width, name)                                        \
    static __attribute__((noinline)) void FN(name)(                      \
        const lutq_plan *p, T *tables, const char *x, int64_t sr,        \
        int64_t sc, int64_t g0, int64_t g_len, T *y, int64_t ldy)        \
    {                                                                    \
        FN(tile)(p, tables, x, sr, sc, g0, g_len, y, ldy, width);        \
    }
LUTQ_TILE_AT(1, tile_1)
LUTQ_TILE_AT(2, tile_2)
LUTQ_TILE_AT(LUTQ_CHUNK, tile_chunk)
#undef LUTQ_TILE_AT

static void FN(lutq_run)(const lutq_plan *p, int64_t b, void *scratch,
                         const char *x, int64_t sr, int64_t sc, void *out)
{
    T *y = (T *)out;
    T *tables = (T *)scratch;
    const int64_t m = p->m;
    memset(y, 0, (size_t)(m * b) * sizeof(T));
    for (int64_t c0 = 0; c0 < b; c0 += LUTQ_CHUNK) {
        const int64_t rest = b - c0;
        const char *xc = x + c0 * sc;
        T *yc = y + c0;
        for (int64_t g0 = 0; g0 < p->groups; g0 += p->tile_g) {
            const int64_t left = p->groups - g0;
            const int64_t g_len = left < p->tile_g ? left : p->tile_g;
            if (rest >= LUTQ_CHUNK)
                FN(tile_chunk)(p, tables, xc, sr, sc, g0, g_len, yc, b);
            else if (rest == 1)
                FN(tile_1)(p, tables, xc, sr, sc, g0, g_len, yc, b);
            else if (rest == 2)
                FN(tile_2)(p, tables, xc, sr, sc, g0, g_len, yc, b);
            else
                FN(tile)(p, tables, xc, sr, sc, g0, g_len, yc, b, rest);
        }
    }
    if (p->bias != NULL) {
        const T *bias = (const T *)p->bias;
        for (int64_t r = 0; r < m; ++r)
            for (int64_t c = 0; c < b; ++c)
                y[r * b + c] += bias[r];
    }
}

#undef FN
#undef K
#undef T
#undef LUTQ_SUFFIX
#undef LUTQ_CHUNK
#undef LUTQ_K
#undef LUTQ_T

#endif
