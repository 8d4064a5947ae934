"""Golden tests for the C the native tier emits.

Two descriptors are pinned as inline expected strings, in the shape of
the expect-test idiom (``assertExpectedInline``): the od-reverse gate
case, which the lowering stages, and the od-rotate case, which it keeps
on the direct nest.  A change to the emitter then shows up here as a
reviewable diff of the generated C.  To accept an intended change,
paste the printed source over the expected string.

Each descriptor comes from ``search_nest`` with the cache budget pinned
to a 2 MiB-L2 host's 1.5 MiB, so the test does not depend on the host.
"""

from repro.kernels import codegen as cg
from repro.kernels import native
from tests.helpers import assert_expected_inline

#: The 1.5 MiB cache budget a 2 MiB private L2 probes to.
BUDGET = 1536 * 1024


def _source(in_shape, axes):
    desc = cg.search_nest(in_shape, axes, 8, cache_budget=BUDGET)
    return desc, native.native_source(
        desc["in_shape"], desc["axes"], desc["tiles"], desc["order"],
        desc["elem_bytes"], desc["stage"],
    )


def test_staged_od_reverse_source():
    desc, source = _source((128, 64, 32, 32), (3, 2, 1, 0))
    assert desc["micro"] == "staged"
    assert desc["stage"] == [32, 8, 2, 128]
    assert_expected_inline(
        source,
        """\
#include <stdint.h>
#include <string.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("no-loop-interchange")
#endif
#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>
#define STREAM 1
#endif

typedef uint64_t elem_t;

static inline void stream_run(char * restrict d, const char * restrict s, size_t n) {
#ifdef STREAM
    if (((uintptr_t)d & 3) == 0) {
        int w;
        long long v;
        if (((uintptr_t)d & 4) && n >= 4) {
            memcpy(&w, s, 4); _mm_stream_si32((int *)d, w);
            d += 4; s += 4; n -= 4;
        }
        for (; n >= 8; d += 8, s += 8, n -= 8) {
            memcpy(&v, s, 8); _mm_stream_si64((long long *)d, v);
        }
        if (n >= 4) {
            memcpy(&w, s, 4); _mm_stream_si32((int *)d, w);
            d += 4; s += 4; n -= 4;
        }
    }
#endif
    memcpy(d, s, n);
}

static void nest(const elem_t * restrict src, elem_t * restrict dst, elem_t * restrict buf) {
    for (int64_t i1 = 0; i1 < 32; i1 += 8) {
        const int64_t e1 = 32 - i1 < 8 ? 32 - i1 : 8;
        for (int64_t i2 = 0; i2 < 64; i2 += 2) {
            const int64_t e2 = 64 - i2 < 2 ? 64 - i2 : 2;
            const elem_t * restrict s = src + i1 * 32 + i2 * 1024;
            elem_t * restrict d = dst + i1 * 8192 + i2 * 128;
            for (int64_t b3 = 0; b3 < 128; b3 += 8) {
                for (int64_t x2 = 0; x2 < e2; ++x2) {
                    for (int64_t x1 = 0; x1 < e1; ++x1) {
                        for (int64_t b0 = 0; b0 < 32; b0 += 8) {
                            const elem_t * restrict g = s + b0 * 1 + x1 * 32 + x2 * 1024 + b3 * 65536;
                            elem_t * restrict t = buf + b0 * 2048 + x1 * 256 + x2 * 128 + b3 * 1;
                            if (32 - b0 >= 8 && 128 - b3 >= 8) {
                                #pragma GCC unroll 8
                                for (int p = 0; p < 8; ++p)
                                    #pragma GCC unroll 8
                                    for (int q = 0; q < 8; ++q)
                                        t[p * 2048 + q * 1] = g[p * 1 + q * 65536];
                            } else {
                                const int64_t np = 32 - b0 < 8 ? 32 - b0 : 8;
                                const int64_t nq = 128 - b3 < 8 ? 128 - b3 : 8;
                                for (int64_t p = 0; p < np; ++p)
                                    for (int64_t q = 0; q < nq; ++q)
                                        t[p * 2048 + q * 1] = g[p * 1 + q * 65536];
                            }
                        }
                    }
                }
            }
            for (int64_t x0 = 0; x0 < 32; ++x0)
                for (int64_t x1 = 0; x1 < e1; ++x1)
                    stream_run((char *)(d + x0 * 262144 + x1 * 8192), (const char *)(buf + x0 * 2048 + x1 * 256), (size_t)(e2 * 128) * sizeof(elem_t));
        }
    }
}

void repro_nest(const void *src, void *dst, void *scratch) {
    nest((const elem_t *)src, (elem_t *)dst, (elem_t *)scratch);
#ifdef STREAM
    _mm_sfence();
#endif
}

void repro_nest_batch(const void *src, void *dst, int64_t nbatch, void *scratch) {
    const elem_t *s = (const elem_t *)src;
    elem_t *d = (elem_t *)dst;
    for (int64_t b = 0; b < nbatch; ++b) {
        nest(s + b * INT64_C(8388608), d + b * INT64_C(8388608), (elem_t *)scratch);
    }
#ifdef STREAM
    _mm_sfence();
#endif
}
""",
    )


def test_direct_od_rotate_source():
    desc, source = _source((24, 576, 24, 24), (3, 1, 0, 2))
    assert desc["micro"] == "direct"
    assert desc["stage"] is None
    assert_expected_inline(
        source,
        """\
#include <stdint.h>
#include <string.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("no-loop-interchange")
#endif

typedef uint64_t elem_t;

static void nest(const elem_t * restrict src, elem_t * restrict dst, elem_t * restrict buf) {
    (void)buf;
    for (int64_t x1 = 0; x1 < 576; ++x1) {
        for (int64_t x2 = 0; x2 < 24; ++x2) {
            const elem_t * restrict s = src + x1 * 576 + x2 * 331776;
            elem_t * restrict d = dst + x1 * 576 + x2 * 24;
            for (int64_t jb = 0; jb < 24; jb += 32) {
                int64_t je = jb + 32 < 24 ? jb + 32 : 24;
                for (int64_t xb = 0; xb < 24; xb += 32) {
                    int64_t xe = xb + 32 < 24 ? xb + 32 : 24;
                    for (int64_t j = jb; j < je; ++j) {
                        const elem_t * restrict ss = s + j;
                        elem_t * restrict dd = d + j * 331776;
                        for (int64_t x = xb; x < xe; ++x) { dd[x] = ss[x * 24]; }
                    }
                }
            }
        }
    }
}

void repro_nest(const void *src, void *dst, void *scratch) {
    nest((const elem_t *)src, (elem_t *)dst, (elem_t *)scratch);
}

void repro_nest_batch(const void *src, void *dst, int64_t nbatch, void *scratch) {
    const elem_t *s = (const elem_t *)src;
    elem_t *d = (elem_t *)dst;
    for (int64_t b = 0; b < nbatch; ++b) {
        nest(s + b * INT64_C(7962624), d + b * INT64_C(7962624), (elem_t *)scratch);
    }
}
""",
    )
