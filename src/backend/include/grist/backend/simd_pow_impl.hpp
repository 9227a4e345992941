// Row-level pow for the SIMD dispatch tiers: powRow(n, x, y, out) writes
// out[i] = std::pow(x[i], y) with std::pow's exact bits in every tier, and
// returns how many elements took the scalar std::pow call. Included by
// simd_kernels_impl.hpp only (one internal-linkage copy per tier TU).
//
// Scalar and AVX2 tiers: a std::pow loop (every element is a scalar call).
//
// AVX-512 tier on glibc >= 2.28: eight lanes at a time, x^y = e^(y ln x)
// in double-double. ln x = k ln2 - ln(invc) + log1p(r) from a 256-entry
// table (x = 2^k z, r = z*invc - 1 exact), e^t = 2^(j/128) 2^(k') e^r from a
// 128-entry table; both tables are constexpr data built below, so nothing
// runs at set-up. The lane's extended result v' = H + lo has a relative
// error below 2^-64, i.e. under 2^-10 ULP: the largest term is the double
// rounding of log1p's r^3 tail, under 2^-76 absolute where |ln x| >= 2^-9
// (intervals with invc != 1) and under 2^-67 relative where invc = 1,
// which |y ln x| <= 8 turns into at most 2^-64 relative in e^(y ln x).
//
// Why that gives std::pow's bits: glibc's pow
// (sysdeps/ieee754/dbl-64/e_pow.c, the generic and the FMA build alike)
// documents a worst-case error of ulperr_exp + |y ln x| relerr_log 2^53
// ULP, with ulperr_exp <= 0.511 ULP and relerr_log <= 1.5 * 2^-68. For
// |y ln x| <= 8 that is under 0.5114 ULP, so wherever the exact x^y lies
// more than 0.0114 ULP from every rounding midpoint, the only double that
// close is the correctly rounded one, and glibc returns it. A lane keeps
// its own RN(v') only when v' lies at least 1/32 ULP from the midpoints of
// RN(v') (then x^y is more than 1/32 - 2^-10 > 0.0114 ULP from them and
// rounds to the same double) and RN(v') is not a power of two (whose two
// neighbours sit at different distances). Every other lane -- x not a
// positive normal, |y ln x| > 8 or NaN, or inside that window -- is redone
// with std::pow. On the EOS's arguments ~6% of lanes fall back.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "grist/common/types.hpp"

#if defined(__AVX512F__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
#define GRIST_SIMD_VECTOR_POW 1
#include <immintrin.h>
#else
#define GRIST_SIMD_VECTOR_POW 0
#endif

namespace grist::backend::simd {
namespace {

#if GRIST_SIMD_VECTOR_POW

// ---------------------------------------------------------------------------
// Double-double arithmetic for the constant tables. Constant evaluation has
// no FMA, so products split with Dekker's 2^27 + 1.
// ---------------------------------------------------------------------------
namespace pow_tables {

struct DD {
  double hi, lo;
};

constexpr DD fastTwoSum(double a, double b) {  // |a| >= |b| or a == 0
  const double s = a + b;
  return {s, b - (s - a)};
}

constexpr DD twoSum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

constexpr DD twoProd(double a, double b) {
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double p = a * b;
  const double ta = kSplit * a, tb = kSplit * b;
  const double ah = ta - (ta - a), al = a - ah;
  const double bh = tb - (tb - b), bl = b - bh;
  return {p, ((ah * bh - p) + ah * bl + al * bh) + al * bl};
}

constexpr DD add(DD a, DD b) {
  const DD s = twoSum(a.hi, b.hi);
  const DD t = twoSum(a.lo, b.lo);
  const DD u = fastTwoSum(s.hi, s.lo + t.hi);
  return fastTwoSum(u.hi, u.lo + t.lo);
}

constexpr DD mul(DD a, DD b) {
  const DD p = twoProd(a.hi, b.hi);
  return fastTwoSum(p.hi, p.lo + (a.hi * b.lo + a.lo * b.hi));
}

constexpr DD div(DD a, DD b) {
  const double q1 = a.hi / b.hi;
  const DD r1 = add(a, mul(b, {-q1, 0.0}));
  const double q2 = r1.hi / b.hi;
  const DD r2 = add(r1, mul(b, {-q2, 0.0}));
  return add(fastTwoSum(q1, q2), {r2.hi / b.hi, 0.0});
}

constexpr double absd(double v) { return v < 0 ? -v : v; }

/// ln a for a in [1/2, 2]: 2 atanh((a - 1) / (a + 1)), summed until the
/// terms fall below 2^-120 of the sum.
constexpr DD log(double a) {
  const DD s = div({a - 1.0, 0.0}, twoSum(a, 1.0));
  const DD s2 = mul(s, s);
  DD term = s;
  DD sum{0.0, 0.0};
  for (int n = 1; n < 400 && term.hi != 0.0; n += 2) {
    sum = add(sum, div(term, {static_cast<double>(n), 0.0}));
    term = mul(term, s2);
    if (absd(term.hi) < 0x1p-120 * absd(sum.hi)) break;
  }
  return {2.0 * sum.hi, 2.0 * sum.lo};
}

/// e^x for |x| < 1 by its Taylor series.
constexpr DD exp(DD x) {
  DD sum{1.0, 0.0};
  DD term{1.0, 0.0};
  for (int n = 1; n < 100; ++n) {
    term = div(mul(term, x), {static_cast<double>(n), 0.0});
    sum = add(sum, term);
    if (absd(term.hi) < 0x1p-120) break;
  }
  return sum;
}

inline constexpr DD kLn2 = log(2.0);
static_assert(kLn2.hi == 0x1.62e42fefa39efp-1 &&
                  absd(kLn2.lo - 0x1.abc9e3b39803fp-56) < 0x1p-104,
              "double-double ln 2 must agree with its published value");

// Log table: x = 2^k z with z in [kOff, 2 kOff) ~ [0.708, 1.416), split
// into 256 intervals by the top 8 bits of (bits(x) - kOff)'s mantissa; 1.0
// sits mid-interval. invc ~ 1/c on a grid of 2^-8 (z < 1) or 2^-9 (z >= 1)
// so that r = z*invc - 1 is a multiple of 2^-61 below 2^-8: exact in a
// double. Intervals within 2^-8 of 1 take invc = 1 (r = z - 1, and ln x =
// log1p(r) keeps full relative precision as x -> 1).
inline constexpr int kLogBits = 8;
inline constexpr int kLogN = 1 << kLogBits;
inline constexpr std::uint64_t kOff = 0x3fe6a80000000000;

struct LogTable {
  std::array<double, kLogN> invc, logc_hi, logc_lo;  // logc = -ln(invc)
  double max_r;  // largest |z*invc - 1| over every interval
};

constexpr LogTable makeLogTable() {
  LogTable t{};
  t.max_r = 0.0;
  for (int i = 0; i < kLogN; ++i) {
    const std::uint64_t b0 =
        kOff + (static_cast<std::uint64_t>(i) << (52 - kLogBits));
    const std::uint64_t b1 = b0 + (std::uint64_t{1} << (52 - kLogBits));
    const double z0 = std::bit_cast<double>(b0);
    const double z1 = std::bit_cast<double>(b1);
    double invc = 1.0;
    if (z0 < 1.0 - 0x1p-8 || z1 > 1.0 + 0x1p-8) {
      const double grid = z1 <= 1.0 ? 0x1p-8 : 0x1p-9;
      const double q = 2.0 / (z0 + z1) / grid;
      invc = static_cast<double>(static_cast<std::int64_t>(q + 0.5)) * grid;
    }
    t.invc[i] = invc;
    const DD lc = log(invc);
    t.logc_hi[i] = -lc.hi;
    t.logc_lo[i] = -lc.lo;
    const double r0 = absd(z0 * invc - 1.0), r1 = absd(z1 * invc - 1.0);
    t.max_r = r0 > t.max_r ? r0 : t.max_r;
    t.max_r = r1 > t.max_r ? r1 : t.max_r;
  }
  return t;
}

inline constexpr LogTable kLog = makeLogTable();
static_assert(kLog.max_r < 0x1p-8, "log table: r = z*invc - 1 must stay exact");

// Exp table: 2^(j/128) = hi + lo for j = 0..127.
inline constexpr int kExpBits = 7;
inline constexpr int kExpN = 1 << kExpBits;

struct ExpTable {
  std::array<double, kExpN> hi, lo;
};

constexpr ExpTable makeExpTable() {
  ExpTable t{};
  for (int j = 0; j < kExpN; ++j) {
    const DD v = exp(mul(kLn2, {static_cast<double>(j) / kExpN, 0.0}));
    t.hi[j] = v.hi;
    t.lo[j] = v.lo;
  }
  return t;
}

inline constexpr ExpTable kExp = makeExpTable();
static_assert(kExp.hi[0] == 1.0 && kExp.lo[0] == 0.0);
static_assert(kExp.hi[64] == 0x1.6a09e667f3bcdp+0, "2^(1/2) entry");

}  // namespace pow_tables

/// Lanes `lanes` of x^y into `out`; returns the lanes that must be redone
/// with std::pow (see the header comment for why the rest are exact).
inline __mmask8 powLanes(__m512d x, double y, __mmask8 lanes, __m512d& out) {
  namespace pt = pow_tables;
  const auto i64 = [](std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  };
  const auto f64 = [](double v) { return _mm512_set1_pd(v); };
  // The zero-masked and merge-masked forms: GCC 12's unmasked shift and
  // gather intrinsics start from a self-initialised register that
  // -Wmaybe-uninitialized reports.
  constexpr __mmask8 all = 0xff;
  const auto gather = [](__m512i idx, const double* table) {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), all, idx, table, 8);
  };
  // Round-to-integer shift: adding it leaves an integer in the low bits.
  constexpr double kShift = 0x1.8p52;
  const __m512i shift_bits = i64(std::bit_cast<std::uint64_t>(kShift));

  // x = 2^k z, z in [kOff, 2 kOff); x must be a positive normal.
  const __m512i ix = _mm512_castpd_si512(x);
  const __mmask8 normal = _mm512_cmplt_epu64_mask(
      _mm512_sub_epi64(ix, i64(0x0010000000000000)), i64(0x7fe0000000000000));
  const __m512i tmp = _mm512_sub_epi64(ix, i64(pt::kOff));
  const __m512i idx =
      _mm512_and_si512(_mm512_maskz_srli_epi64(all, tmp, 52 - pt::kLogBits),
                       i64(pt::kLogN - 1));
  const __m512i k = _mm512_maskz_srai_epi64(all, tmp, 52);
  const __m512d z = _mm512_castsi512_pd(
      _mm512_sub_epi64(ix, _mm512_and_si512(tmp, i64(0xfff0000000000000))));
  const __m512d kd = _mm512_sub_pd(
      _mm512_castsi512_pd(_mm512_add_epi64(k, shift_bits)), f64(kShift));
  const __m512d invc = gather(idx, pt::kLog.invc.data());
  const __m512d logc_hi = gather(idx, pt::kLog.logc_hi.data());
  const __m512d logc_lo = gather(idx, pt::kLog.logc_lo.data());

  // ln x = k ln2 + logc + r - r^2/2 + r^3 q(r), r exact, |r| < 2^-8.
  const __m512d r = _mm512_fmsub_pd(z, invc, f64(1.0));
  const __m512d rr = _mm512_mul_pd(r, r);
  const __m512d rr_lo = _mm512_fmsub_pd(r, r, rr);
  const __m512d a_hi = _mm512_mul_pd(f64(-0.5), rr);
  const __m512d a_lo = _mm512_mul_pd(f64(-0.5), rr_lo);
  __m512d q = f64(1.0 / 9);
  q = _mm512_fmadd_pd(q, r, f64(-1.0 / 8));
  q = _mm512_fmadd_pd(q, r, f64(1.0 / 7));
  q = _mm512_fmadd_pd(q, r, f64(-1.0 / 6));
  q = _mm512_fmadd_pd(q, r, f64(1.0 / 5));
  q = _mm512_fmadd_pd(q, r, f64(-1.0 / 4));
  q = _mm512_fmadd_pd(q, r, f64(1.0 / 3));
  const __m512d tail = _mm512_mul_pd(_mm512_mul_pd(rr, r), q);
  const __m512d kh = _mm512_mul_pd(kd, f64(pt::kLn2.hi));
  const __m512d kl = _mm512_fmadd_pd(kd, f64(pt::kLn2.lo),
                                     _mm512_fmsub_pd(kd, f64(pt::kLn2.hi), kh));
  const auto two_sum = [](__m512d a, __m512d b, __m512d& err) {
    const __m512d s = _mm512_add_pd(a, b);
    const __m512d bb = _mm512_sub_pd(s, a);
    err = _mm512_add_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)),
                        _mm512_sub_pd(b, bb));
    return s;
  };
  __m512d e1, e2, e3;
  const __m512d s1 = two_sum(kh, logc_hi, e1);
  const __m512d s2 = two_sum(s1, r, e2);
  const __m512d s3 = two_sum(s2, a_hi, e3);
  const __m512d lo = _mm512_add_pd(
      _mm512_add_pd(_mm512_add_pd(kl, logc_lo), _mm512_add_pd(e1, e2)),
      _mm512_add_pd(_mm512_add_pd(e3, a_lo), tail));
  const __m512d l_hi = _mm512_add_pd(s3, lo);
  const __m512d l_lo = _mm512_add_pd(_mm512_sub_pd(s3, l_hi), lo);

  // t = y ln x as th + tl; |t| <= 8 keeps glibc's bound (and the result
  // normal).
  const __m512d vy = f64(y);
  const __m512d ph = _mm512_mul_pd(vy, l_hi);
  const __m512d pl =
      _mm512_fmadd_pd(vy, l_lo, _mm512_fmsub_pd(vy, l_hi, ph));
  const __m512d th = _mm512_add_pd(ph, pl);
  const __m512d tl = _mm512_add_pd(_mm512_sub_pd(ph, th), pl);
  const __mmask8 in_range =
      _mm512_cmp_pd_mask(_mm512_abs_pd(th), f64(8.0), _CMP_LE_OQ);

  // e^t = 2^(n/128) e^r, n = round(t 128/ln2), r = t - n ln2/128 (the
  // high part exact: a multiple of 2^-61 below 2^-8).
  const pt::DD ln2_n{pt::kLn2.hi / pt::kExpN, pt::kLn2.lo / pt::kExpN};
  const __m512d nd_shifted = _mm512_add_pd(
      _mm512_mul_pd(th, f64(pt::kExpN / pt::kLn2.hi)), f64(kShift));
  const __m512i n =
      _mm512_sub_epi64(_mm512_castpd_si512(nd_shifted), shift_bits);
  const __m512d nd = _mm512_sub_pd(nd_shifted, f64(kShift));
  const __m512d r_hi = _mm512_fnmadd_pd(nd, f64(ln2_n.hi), th);
  const __m512d r_lo = _mm512_fnmadd_pd(nd, f64(ln2_n.lo), tl);
  // e^r - 1 = r_hi + s, s = r_lo (1 + r_hi) + r_hi^2 (1/2 + r_hi/6 + ...).
  __m512d qe = f64(1.0 / 720);
  qe = _mm512_fmadd_pd(qe, r_hi, f64(1.0 / 120));
  qe = _mm512_fmadd_pd(qe, r_hi, f64(1.0 / 24));
  qe = _mm512_fmadd_pd(qe, r_hi, f64(1.0 / 6));
  qe = _mm512_fmadd_pd(qe, r_hi, f64(0.5));
  const __m512d s = _mm512_add_pd(_mm512_fmadd_pd(r_lo, r_hi, r_lo),
                                  _mm512_mul_pd(_mm512_mul_pd(r_hi, r_hi), qe));
  const __m512i j = _mm512_and_si512(n, i64(pt::kExpN - 1));
  const __m512i e = _mm512_maskz_srai_epi64(all, n, pt::kExpBits);
  const __m512d t_hi = gather(j, pt::kExp.hi.data());
  const __m512d t_lo = gather(j, pt::kExp.lo.data());
  // (t_hi + t_lo)(1 + r_hi + s) = H + lo2.
  const __m512d p_hi = _mm512_mul_pd(t_hi, r_hi);
  const __m512d p_lo = _mm512_fmsub_pd(t_hi, r_hi, p_hi);
  const __m512d h = _mm512_add_pd(t_hi, p_hi);
  const __m512d h_err = _mm512_add_pd(_mm512_sub_pd(t_hi, h), p_hi);
  const __m512d lo2 = _mm512_add_pd(
      _mm512_add_pd(_mm512_fmadd_pd(t_hi, s, p_lo),
                    _mm512_fmadd_pd(t_lo, r_hi, t_lo)),
      h_err);
  const __m512d rounded = _mm512_add_pd(h, lo2);
  const __m512d dist = _mm512_add_pd(_mm512_sub_pd(h, rounded), lo2);

  // Keep the lane only if RN(v') is not a power of two and v' sits at
  // least 1/32 ULP inside its rounding interval (|dist| < 15/32 ULP).
  const __m512i rbits = _mm512_castpd_si512(rounded);
  const __mmask8 not_pow2 =
      _mm512_test_epi64_mask(rbits, i64(0x000fffffffffffff));
  const __m512d ulp = _mm512_castsi512_pd(
      _mm512_sub_epi64(_mm512_and_si512(rbits, i64(0x7ff0000000000000)),
                       i64(std::uint64_t{52} << 52)));
  const __mmask8 clear = _mm512_cmp_pd_mask(
      _mm512_abs_pd(dist), _mm512_mul_pd(ulp, f64(15.0 / 32)), _CMP_LT_OQ);

  const __m512d scale = _mm512_castsi512_pd(
      _mm512_maskz_slli_epi64(all, _mm512_add_epi64(e, i64(1023)), 52));
  out = _mm512_mul_pd(rounded, scale);
  const __mmask8 keep = lanes & normal & in_range & not_pow2 & clear;
  return static_cast<__mmask8>(lanes & ~keep);
}

#endif  // GRIST_SIMD_VECTOR_POW

/// out[i] = std::pow(x[i], y) for i < n, bitwise; `out` may alias `x`.
/// Returns how many elements ran the scalar std::pow.
inline std::size_t powRow(Index n, const double* x, double y, double* out) {
#if GRIST_SIMD_VECTOR_POW
  // Chunks of 8 vectors: the vector pass stores the lanes it keeps and
  // compresses the indices of the rest, then one scalar loop redoes them
  // (a branch per vector would mispredict on ~40% of them).
  constexpr Index kChunk = 64;
  alignas(64) long long redo[kChunk];
  const __m512i lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  std::size_t scalar = 0;
  for (Index c0 = 0; c0 < n; c0 += kChunk) {
    const Index c1 = n - c0 > kChunk ? c0 + kChunk : n;
    int nredo = 0;
    for (Index i = c0; i < c1; i += 8) {
      const Index rem = c1 - i;
      const __mmask8 lanes =
          rem >= 8 ? __mmask8(0xff) : __mmask8((1u << rem) - 1u);
      __m512d v;
      const __mmask8 back =
          powLanes(_mm512_maskz_loadu_pd(lanes, x + i), y, lanes, v);
      _mm512_mask_storeu_pd(out + i, static_cast<__mmask8>(lanes & ~back), v);
      _mm512_mask_compressstoreu_epi64(
          redo + nredo, back, _mm512_add_epi64(_mm512_set1_epi64(i), lane_ids));
      nredo += std::popcount(static_cast<unsigned>(back));
    }
    for (int r = 0; r < nredo; ++r) out[redo[r]] = std::pow(x[redo[r]], y);
    scalar += static_cast<std::size_t>(nredo);
  }
  return scalar;
#else
  for (Index i = 0; i < n; ++i) out[i] = std::pow(x[i], y);
  return static_cast<std::size_t>(n);
#endif
}

}  // namespace
}  // namespace grist::backend::simd
