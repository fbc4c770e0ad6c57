/*
 * The JSON wire format of /predict, built into the native library next
 * to _lutq.c (loaded by repro/engine/native.py, used by
 * repro/serve/wire.py).  Two entry points, each exact with respect to
 * Python's json module:
 *
 * json_parse_input  reads the "input" array of a request body into
 *                   doubles.  Integers of at most 15 digits convert
 *                   exactly; every other number goes through strtod,
 *                   which rounds correctly, as Python's float() does.
 *                   Casting the doubles to the request's dtype then
 *                   gives the bits np.asarray(json.loads(body)["input"],
 *                   dtype) gives.  Anything else (NaN, Infinity, longer
 *                   integers, ragged or empty arrays, escaped or
 *                   duplicate keys, bad syntax) is declined, and the
 *                   caller parses the body with json.loads.
 *
 * json_format       writes an array of doubles as json.dumps(a.tolist())
 *                   does: nested "[...]" with ", " separators, each
 *                   finite value as float.__repr__ writes it (shortest
 *                   round-trip digits, exponent form below 1e-4 and
 *                   from 1e16 on), and NaN, Infinity, -Infinity.
 *
 * The shortest digits come from Ryu (Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018): the shortest decimal in the value's rounding
 * interval, and of those the one nearest the value, which is the digit
 * string of repr().  _pow5.h holds its power-of-five tables, generated
 * by repro/engine/pow5_table.py.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_pow5.h"

#define JSON_MAX_DIMS 32   /* deeper arrays are declined */
#define JSON_MAX_INT_DIGITS 15
#define JSON_MAX_CHARS 24  /* longest value: -2.2250738585072014e-308 */

/* ------------------------------------------------------------------ */
/* Parsing                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    const char *p;
    const char *end;
} cursor;

/* The byte under the cursor, or 0 past the end (never valid here). */
static inline char peek(const cursor *c)
{
    return c->p < c->end ? *c->p : 0;
}

static inline void skip_ws(cursor *c)
{
    while (c->p < c->end
           && (*c->p == ' ' || *c->p == '\t' || *c->p == '\n'
               || *c->p == '\r'))
        c->p++;
}

static inline int is_digit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/* Past a string whose opening quote is under the cursor.  Sets
 * *escaped when the string holds a backslash.  0, or -1 unterminated. */
static int skip_string(cursor *c, int *escaped)
{
    c->p++;
    while (c->p < c->end) {
        char ch = *c->p++;
        if (ch == '"')
            return 0;
        if (ch == '\\') {
            *escaped = 1;
            c->p++;
        }
    }
    return -1;
}

/* Past any value, without checking it (json.loads checks the envelope).
 * 0, or -1 when the body ends inside it. */
static int skip_value(cursor *c)
{
    int64_t depth = 0;
    int escaped = 0;
    for (;;) {
        char ch = peek(c);
        if (ch == 0)
            return -1;
        if (depth == 0 && (ch == ',' || ch == '}' || ch == ']'))
            return 0;
        if (ch == '"') {
            if (skip_string(c, &escaped))
                return -1;
            continue;
        }
        if (ch == '[' || ch == '{')
            depth++;
        else if (ch == ']' || ch == '}')
            depth--;
        c->p++;
    }
}

/* One number of the JSON grammar into *out.  0, or -1 to decline. */
static int parse_number(cursor *c, double *out)
{
    const char *start = c->p;
    int neg = peek(c) == '-';
    int integral = 1, digits = 0;
    int64_t value = 0;
    if (neg)
        c->p++;
    if (peek(c) == '0') {
        c->p++;
    } else if (is_digit(peek(c))) {
        while (is_digit(peek(c))) {
            /* a longer integer stays a Python int, which numpy may
             * round to float32 differently than through a double */
            if (++digits > JSON_MAX_INT_DIGITS)
                return -1;
            value = value * 10 + (*c->p++ - '0');
        }
    } else {
        return -1;
    }
    if (peek(c) == '.') {
        c->p++;
        if (!is_digit(peek(c)))
            return -1;
        while (is_digit(peek(c)))
            c->p++;
        integral = 0;
    }
    if (peek(c) == 'e' || peek(c) == 'E') {
        c->p++;
        if (peek(c) == '+' || peek(c) == '-')
            c->p++;
        if (!is_digit(peek(c)))
            return -1;
        while (is_digit(peek(c)))
            c->p++;
        integral = 0;
    }
    if (c->p >= c->end)
        return -1;
    if (integral) {
        /* json.loads makes an int, and -0 is the int 0 */
        *out = (double)(neg ? -value : value);
    } else {
        char *stop;
        *out = strtod(start, &stop);
        if (stop != c->p)
            return -1;
    }
    return 0;
}

/* A non-empty rectangular array of numbers, '[' under the cursor, into
 * out[0..cap); its shape into shape[0..*ndim), *ndim <= max_dims.
 * The count, or -1. */
static int64_t parse_array(cursor *c, double *out, int64_t cap,
                           int64_t *shape, int64_t max_dims, int64_t *ndim)
{
    int64_t counts[JSON_MAX_DIMS];
    int64_t depth = 0, dims = -1, n = 0, d;
    if (max_dims > JSON_MAX_DIMS)
        max_dims = JSON_MAX_DIMS;
    for (d = 0; d < max_dims; d++)
        shape[d] = -1;
    for (;;) {
        /* a value is expected */
        skip_ws(c);
        if (peek(c) == '[') {
            if (depth == max_dims || (dims >= 0 && depth >= dims))
                return -1;
            counts[depth++] = 0;
            c->p++;
            continue;
        }
        if (depth != dims) {
            if (dims >= 0)
                return -1; /* a number where an array belongs */
            dims = depth;
        }
        if (n == cap || parse_number(c, out + n))
            return -1;
        n++;
        counts[depth - 1]++;
        /* a separator is expected; close every array that ends here */
        for (;;) {
            skip_ws(c);
            if (peek(c) == ',') {
                c->p++;
                break;
            }
            if (peek(c) != ']')
                return -1;
            c->p++;
            d = depth - 1;
            if (shape[d] < 0)
                shape[d] = counts[d];
            else if (shape[d] != counts[d])
                return -1; /* ragged */
            if (--depth == 0) {
                *ndim = dims;
                return n;
            }
            counts[depth - 1]++;
        }
    }
}

/* Find the one top-level "input" member of the JSON object in
 * buf[0..len) and parse its array value (see parse_array).
 *
 * geom[0..geom_cap) receives [ndim, start, end, shape...]: the array
 * spans buf[start..end), so the caller can hand the rest to json.loads.
 * Arrays of more than geom_cap - 3 (or JSON_MAX_DIMS) dims are declined.
 * Returns the number of values, or -1 to decline the body.  Any key
 * holding a backslash is declined, since it might decode to "input". */
int64_t json_parse_input(const char *buf, int64_t len, double *out,
                         int64_t cap, int64_t *geom, int64_t geom_cap)
{
    cursor c = {buf, buf + len};
    int64_t count = -1;
    if (geom_cap < 4)
        return -1;
    skip_ws(&c);
    if (peek(&c) != '{')
        return -1;
    c.p++;
    for (;;) {
        const char *key;
        int64_t key_len;
        int escaped = 0;
        skip_ws(&c);
        if (peek(&c) != '"')
            return -1;
        key = c.p + 1;
        if (skip_string(&c, &escaped) || escaped)
            return -1;
        key_len = c.p - 1 - key;
        skip_ws(&c);
        if (peek(&c) != ':')
            return -1;
        c.p++;
        skip_ws(&c);
        if (key_len == 5 && memcmp(key, "input", 5) == 0) {
            if (count >= 0 || peek(&c) != '[')
                return -1; /* a duplicate, or not an array */
            geom[1] = c.p - buf;
            count = parse_array(&c, out, cap, geom + 3, geom_cap - 3, geom);
            if (count < 0)
                return -1;
            geom[2] = c.p - buf;
        } else if (skip_value(&c)) {
            return -1;
        }
        skip_ws(&c);
        if (peek(&c) == ',') {
            c.p++;
            continue;
        }
        if (peek(&c) != '}')
            return -1;
        return count;
    }
}

/* ------------------------------------------------------------------ */
/* Shortest round-trip digits (Ryu)                                     */
/* ------------------------------------------------------------------ */

#define DBL_MANTISSA_BITS 52
#define DBL_BIAS 1023

/* ceil(log2(5^e)) for e >= 1, and 1 for e == 0. */
static inline int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) and floor(log10(5^e)), for 0 <= e <= 1650. */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

static inline int multiple_of_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        if (++count >= p)
            return 1;
    }
    return count >= p;
}

static inline int multiple_of_pow2(uint64_t v, uint32_t p)
{
    return (v & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j for the 128-bit table entry mul (low word first),
 * 64 <= j < 192.  Compilers without a 128-bit integer type (or a build
 * with -DJSON_PORTABLE_MUL) take four 32x32-bit products instead; both
 * give the same bits. */
#if defined(__SIZEOF_INT128__) && !defined(JSON_PORTABLE_MUL)
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    __uint128_t b0 = (__uint128_t)m * mul[0];
    __uint128_t b2 = (__uint128_t)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}
#else
/* The low 64 bits of a * b; the high 64 into *hi. */
static inline uint64_t mul_64x64(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint64_t a_lo = (uint32_t)a, a_hi = a >> 32;
    uint64_t b_lo = (uint32_t)b, b_hi = b >> 32;
    uint64_t ll = a_lo * b_lo, lh = a_lo * b_hi;
    uint64_t hl = a_hi * b_lo, hh = a_hi * b_hi;
    uint64_t mid = hl + (ll >> 32);             /* cannot overflow */
    uint64_t mid2 = lh + (uint32_t)mid;         /* cannot overflow */
    *hi = hh + (mid >> 32) + (mid2 >> 32);
    return (mid2 << 32) | (uint32_t)ll;
}

static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    uint64_t hi0, hi1, lo1, sum;
    int32_t s = j - 64;
    mul_64x64(m, mul[0], &hi0);
    lo1 = mul_64x64(m, mul[1], &hi1);
    sum = hi0 + lo1;                            /* bits 64..127 */
    hi1 += sum < hi0;                           /* bits 128..191 */
    if (s == 0)
        return sum;
    if (s >= 64)
        return hi1 >> (s - 64);
    return (hi1 << (64 - s)) | (sum >> s);
}
#endif

/* The shortest decimal output * 10^exp that reads back as the finite,
 * nonzero double with these fields (Ryu's d2d). */
static void shortest(uint64_t ieee_m, uint32_t ieee_e, uint64_t *digits,
                     int32_t *exp)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_e == 0) {
        e2 = 1 - DBL_BIAS - DBL_MANTISSA_BITS - 2;
        m2 = ieee_m;
    } else {
        e2 = (int32_t)ieee_e - DBL_BIAS - DBL_MANTISSA_BITS - 2;
        m2 = (1ull << DBL_MANTISSA_BITS) | ieee_m;
    }
    /* An even significand reads back from its interval's bounds too. */
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = ieee_m != 0 || ieee_e <= 1;
    uint64_t vr, vp, vm, output;
    int32_t e10, removed = 0;
    int vm_zeros = 0, vr_zeros = 0;
    uint8_t last = 0;

    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t k = RYU_POW5_INV_BITS + pow5bits((int32_t)q) - 1;
        const int32_t i = -e2 + (int32_t)q + k;
        e10 = (int32_t)q;
        vr = mul_shift(4 * m2, RYU_POW5_INV[q], i);
        vp = mul_shift(4 * m2 + 2, RYU_POW5_INV[q], i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, RYU_POW5_INV[q], i);
        if (q <= 21) {
            /* At most one of mp, mv, mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t k = pow5bits(i) - RYU_POW5_BITS;
        const int32_t j = (int32_t)q - k;
        e10 = (int32_t)q + e2;
        vr = mul_shift(4 * m2, RYU_POW5[i], j);
        vp = mul_shift(4 * m2 + 2, RYU_POW5[i], j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, RYU_POW5[i], j);
        if (q <= 1) {
            /* mv = 4 * m2 has at least two trailing zero bits. */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    if (vm_zeros || vr_zeros) {
        /* The general case: track exact trailing zeros for ties. */
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint8_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint8_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly halfway: round to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_zeros))
                       || last >= 5);
    } else {
        int round_up = 0;
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *digits = output;
    *exp = e10 + removed;
}

/* Write v as float.__repr__ (or json's NaN/Infinity) at o; returns the
 * end of what was written, at most JSON_MAX_CHARS bytes. */
static char *format_double(double v, char *o)
{
    uint64_t bits, digits;
    int32_t exp;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t ieee_m = bits & ((1ull << DBL_MANTISSA_BITS) - 1);
    const uint32_t ieee_e = (uint32_t)(bits >> DBL_MANTISSA_BITS) & 0x7ff;
    if (ieee_e == 0x7ff) {
        const char *s = ieee_m ? "NaN" : (bits >> 63) ? "-Infinity"
                                                      : "Infinity";
        size_t n = strlen(s);
        memcpy(o, s, n);
        return o + n;
    }
    if (bits >> 63)
        *o++ = '-';
    if (ieee_e == 0 && ieee_m == 0) {
        memcpy(o, "0.0", 3);
        return o + 3;
    }
    const int32_t e2 = (int32_t)ieee_e - DBL_BIAS - DBL_MANTISSA_BITS;
    const uint64_t m2 = (1ull << DBL_MANTISSA_BITS) | ieee_m;
    if (ieee_e != 0 && e2 <= 0 && e2 >= -DBL_MANTISSA_BITS
        && (m2 & ((1ull << -e2) - 1)) == 0) {
        /* An integer below 2^53 is its own shortest form. */
        digits = m2 >> -e2;
        exp = 0;
        while (digits % 10 == 0) {
            digits /= 10;
            exp++;
        }
    } else {
        shortest(ieee_m, ieee_e, &digits, &exp);
    }

    char buf[20];
    int n = 0;
    while (digits) {
        buf[19 - n++] = (char)('0' + digits % 10);
        digits /= 10;
    }
    const char *d = buf + 20 - n;
    /* repr: the decimal point sits decpt digits in */
    const int32_t decpt = n + exp;
    if (decpt <= -4 || decpt > 16) {
        int32_t e = decpt - 1;
        *o++ = d[0];
        if (n > 1) {
            *o++ = '.';
            memcpy(o, d + 1, (size_t)(n - 1));
            o += n - 1;
        }
        *o++ = 'e';
        *o++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *o++ = (char)('0' + e / 100);
        *o++ = (char)('0' + e / 10 % 10);
        *o++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        *o++ = '0';
        *o++ = '.';
        memset(o, '0', (size_t)-decpt);
        o += -decpt;
        memcpy(o, d, (size_t)n);
        o += n;
    } else if (decpt >= n) {
        memcpy(o, d, (size_t)n);
        o += n;
        memset(o, '0', (size_t)(decpt - n));
        o += decpt - n;
        memcpy(o, ".0", 2);
        o += 2;
    } else {
        memcpy(o, d, (size_t)decpt);
        o += decpt;
        *o++ = '.';
        memcpy(o, d + decpt, (size_t)(n - decpt));
        o += n - decpt;
    }
    return o;
}

static char *format_nested(const double **x, int64_t ndim,
                           const int64_t *shape, char *o)
{
    int64_t i;
    if (ndim == 0)
        return format_double(*(*x)++, o);
    *o++ = '[';
    for (i = 0; i < shape[0]; i++) {
        if (i) {
            *o++ = ',';
            *o++ = ' ';
        }
        if (ndim == 1)
            o = format_double(*(*x)++, o);
        else
            o = format_nested(x, ndim - 1, shape + 1, o);
    }
    *o++ = ']';
    return o;
}

/* The capacity json_format needs for this shape. */
int64_t json_format_bytes(int64_t ndim, const int64_t *shape)
{
    int64_t arrays = 1, total = 4, d;
    for (d = 0; d < ndim; d++) {
        arrays *= shape[d];
        total += 4 * arrays;
    }
    return total + JSON_MAX_CHARS * arrays;
}

/* The C-ordered doubles x of this shape as json.dumps(x.tolist()) into
 * out, which holds json_format_bytes(ndim, shape) bytes.  Returns the
 * number of bytes written. */
int64_t json_format(const double *x, int64_t ndim, const int64_t *shape,
                    char *out)
{
    return format_nested(&x, ndim, shape, out) - out;
}
