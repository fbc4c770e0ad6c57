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
 * Rows are blocked (several independent accumulator chains in flight)
 * and loops are interchanged freely, but each (row, bit, column) sum is
 * still a left fold in group order.  The build must not contract
 * multiply-adds or reassociate: it is compiled with
 * -ffp-contract=off and without -ffast-math.
 *
 * The file instantiates itself: the first pass defines the shared
 * plan struct and includes this file once per (float type, key type)
 * with LUTQ_T / LUTQ_K set, which emits the typed kernels; the public
 * entry point ``lutq_run`` dispatches on the plan's dtype codes.
 */

#ifndef LUTQ_T

#include <stdint.h>
#include <string.h>

#define LUTQ_MAX_BATCH 64 /* = repro.engine.compiled.TRACE_MAX_BATCH */
#define LUTQ_MAX_MU 16    /* = repro.core.keys.MAX_MU */
#define LUTQ_ROWS 4       /* output rows whose folds run interleaved */

/* Everything about a call except the input and the output: fixed when
 * the engine specializes a (dtype, batch) trace.  Mirrored by
 * repro.engine.native.Plan; the arrays are owned by the Python trace. */
typedef struct {
    int64_t m;           /* output rows */
    int64_t n;           /* input rows (unpadded) */
    int64_t batch;       /* columns, 1..LUTQ_MAX_BATCH */
    int64_t groups;      /* ceil(n / mu) */
    int64_t tile_g;      /* groups per LUT-stationary tile */
    int32_t mu;          /* LUT unit, 1..LUTQ_MAX_MU */
    int32_t bits;        /* bit planes */
    int32_t fp64;        /* 1: double, 0: float */
    int32_t key_bytes;   /* 1: uint8 keys, 2: uint16 keys */
    const void *keys;    /* (bits, m, groups) C order */
    const void *alphas;  /* (bits, m) C order, float type */
    const void *bias;    /* (m,) float type, or NULL */
    void *tables;        /* (tile_g, 2^mu, batch) scratch, float type */
} lutq_plan;

#define LUTQ_CAT_(a, b) a##_##b
#define LUTQ_CAT(a, b) LUTQ_CAT_(a, b)

#define LUTQ_T float
#define LUTQ_K uint8_t
#define LUTQ_SUFFIX f32_u8
#include "_lutq.c"
#define LUTQ_T float
#define LUTQ_K uint16_t
#define LUTQ_SUFFIX f32_u16
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint8_t
#define LUTQ_SUFFIX f64_u8
#include "_lutq.c"
#define LUTQ_T double
#define LUTQ_K uint16_t
#define LUTQ_SUFFIX f64_u16
#include "_lutq.c"

/* y (m, batch), C order, in the plan's float type; x (n, batch) read
 * through byte strides.  Returns 0, or -1 for a plan outside the
 * kernel's envelope (nothing is written then). */
int lutq_run(const lutq_plan *p, const char *x, int64_t stride_row,
             int64_t stride_col, void *y)
{
    if (p->m < 1 || p->n < 1 || p->batch < 1 || p->batch > LUTQ_MAX_BATCH
        || p->mu < 1 || p->mu > LUTQ_MAX_MU || p->bits < 1
        || p->groups != (p->n + p->mu - 1) / p->mu || p->tile_g < 1)
        return -1;
    if (p->fp64 && p->key_bytes == 1)
        lutq_run_f64_u8(p, x, stride_row, stride_col, y);
    else if (p->fp64 && p->key_bytes == 2)
        lutq_run_f64_u16(p, x, stride_row, stride_col, y);
    else if (!p->fp64 && p->key_bytes == 1)
        lutq_run_f32_u8(p, x, stride_row, stride_col, y);
    else if (!p->fp64 && p->key_bytes == 2)
        lutq_run_f32_u16(p, x, stride_row, stride_col, y);
    else
        return -1;
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

/* Algorithm 1 for groups [g0, g0 + g_len): tables[g][key][col].
 * Inlined with a constant b for batches 1 and 2 (see lutq_run). */
static inline __attribute__((always_inline)) void
FN(build)(const lutq_plan *p, const char *x, int64_t sr, int64_t sc,
          int64_t g0, int64_t g_len, const int64_t b)
{
    const int mu = p->mu;
    const int64_t entries = (int64_t)1 << mu;
    const int64_t top = entries >> 1;
    T two[LUTQ_MAX_BATCH];
    for (int64_t g = 0; g < g_len; ++g) {
        T *t = (T *)p->tables + g * entries * b;
        const int64_t row0 = (g0 + g) * mu;
        for (int64_t c = 0; c < b; ++c)
            t[c] = -FN(xval)(p, x, sr, sc, row0, c);
        for (int j = 1; j < mu; ++j)
            for (int64_t c = 0; c < b; ++c)
                t[c] = t[c] - FN(xval)(p, x, sr, sc, row0 + j, c);
        for (int s = 0; s < mu - 1; ++s) {
            const int64_t half = (int64_t)1 << s;
            for (int64_t c = 0; c < b; ++c)
                two[c] = (T)2 * FN(xval)(p, x, sr, sc, row0 + mu - 1 - s, c);
            for (int64_t k = 0; k < half; ++k)
                for (int64_t c = 0; c < b; ++c)
                    t[(half + k) * b + c] = t[k * b + c] + two[c];
        }
        for (int64_t k = 0; k < top; ++k)
            for (int64_t c = 0; c < b; ++c)
                t[(top + k) * b + c] = -t[(top - 1 - k) * b + c];
    }
}

/* Query rows [r, r + nr) of one group tile into y, all bit planes.
 * Inlined with a constant nr and (for batches 1 and 2) a constant b, so
 * the nr * b accumulators live in registers and their independent
 * folds overlap in the pipeline. */
static inline __attribute__((always_inline)) void
FN(query_rows)(const lutq_plan *p, int64_t g0, int64_t g_len, T *y,
               int64_t r, const int nr, const int64_t b)
{
    const int64_t m = p->m, groups = p->groups;
    const int64_t entries = (int64_t)1 << p->mu;
    const T *tables = (const T *)p->tables;
    const K *keys = (const K *)p->keys;
    const T *alphas = (const T *)p->alphas;
    for (int i = 0; i < p->bits; ++i) {
        const K *kr = keys + ((int64_t)i * m + r) * groups + g0;
        T acc[LUTQ_ROWS * LUTQ_MAX_BATCH];
        for (int64_t e = 0; e < nr * b; ++e)
            acc[e] = (T)0;
        for (int64_t g = 0; g < g_len; ++g) {
            const T *t = tables + g * entries * b;
            for (int rr = 0; rr < nr; ++rr) {
                const T *hit = t + (int64_t)kr[rr * groups + g] * b;
                for (int64_t c = 0; c < b; ++c)
                    acc[rr * b + c] += hit[c];
            }
        }
        for (int rr = 0; rr < nr; ++rr) {
            const T alpha = alphas[(int64_t)i * m + r + rr];
            for (int64_t c = 0; c < b; ++c)
                y[(r + rr) * b + c] += acc[rr * b + c] * alpha;
        }
    }
}

/* One group tile: build its tables, then query every row. */
static inline __attribute__((always_inline)) void
FN(tile)(const lutq_plan *p, const char *x, int64_t sr, int64_t sc,
         int64_t g0, int64_t g_len, T *y, const int64_t b)
{
    const int64_t m = p->m;
    int64_t r = 0;
    FN(build)(p, x, sr, sc, g0, g_len, b);
    for (; r + LUTQ_ROWS <= m; r += LUTQ_ROWS)
        FN(query_rows)(p, g0, g_len, y, r, LUTQ_ROWS, b);
    for (; r < m; ++r)
        FN(query_rows)(p, g0, g_len, y, r, 1, b);
}

static void FN(lutq_run)(const lutq_plan *p, const char *x, int64_t sr,
                         int64_t sc, void *out)
{
    T *y = (T *)out;
    const int64_t m = p->m, b = p->batch;
    memset(y, 0, (size_t)(m * b) * sizeof(T));
    for (int64_t g0 = 0; g0 < p->groups; g0 += p->tile_g) {
        const int64_t rest = p->groups - g0;
        const int64_t g_len = rest < p->tile_g ? rest : p->tile_g;
        /* Constant widths for batches 1 and 2, the measured decode
         * regime (predict-b1, two-stream decode ticks); wider batches
         * amortize the generic loops over their columns. */
        switch (b) {
        case 1: FN(tile)(p, x, sr, sc, g0, g_len, y, 1); break;
        case 2: FN(tile)(p, x, sr, sc, g0, g_len, y, 2); break;
        default: FN(tile)(p, x, sr, sc, g0, g_len, y, b); break;
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
#undef LUTQ_K
#undef LUTQ_T

#endif
