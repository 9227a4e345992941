// AVX-512 quant tier. kQuantNR = 16 is exactly one zmm of fp32/int32, so the
// 8x16 tile is 8 zmm accumulators. Needs AVX-512BW on top of F for the
// 512-bit vpmovsxbw/vpmaddwd int8 path -- quant::bestTier() gates on both.
//
// B-panel packing is vectorized here too (conversion cost rivals compute on
// the small Fig. 8 shapes): the bf16 round-to-nearest-even is done in
// integer math (u += 0x7FFF + lsb(u>>16)) which is the exact formula the
// scalar reference uses, so packed panels are bit-identical across tiers;
// likewise int8 uses vcvtps2dq whose default RNE matches lrintf.

// GCC 12.2's AVX-512 headers build each unmasked intrinsic's pass-through
// operand from a self-initialized `__Y = __Y`, which -Wmaybe-uninitialized
// reports once the packers below inline them (GCC bug 105593, fixed in
// later releases). The operand is never read, so the warning is silenced
// for the header's lines only; this file's own code stays checked.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "quant_tiers.hpp"

namespace grist::backend::quant {

namespace {

void bf16TileAvx512(int k2, const std::uint16_t* ap, const std::uint16_t* bp,
                    float* acc) {
  const __m512i hi_mask = _mm512_set1_epi32(static_cast<int>(0xFFFF0000u));
  __m512 c[kQuantMR];
  for (int i = 0; i < kQuantMR; ++i) c[i] = _mm512_setzero_ps();
  for (int t = 0; t < k2; ++t) {
    const __m512i bv = _mm512_loadu_si512(
        bp + static_cast<std::size_t>(t) * kQuantNR * 2);
    const __m512 be = _mm512_castsi512_ps(_mm512_slli_epi32(bv, 16));
    const __m512 bo = _mm512_castsi512_ps(_mm512_and_si512(bv, hi_mask));
    const std::uint32_t* aw = reinterpret_cast<const std::uint32_t*>(
        ap + static_cast<std::size_t>(t) * kQuantMR * 2);
    for (int i = 0; i < kQuantMR; ++i) {
      const __m512i av = _mm512_set1_epi32(static_cast<int>(aw[i]));
      const __m512 ae = _mm512_castsi512_ps(_mm512_slli_epi32(av, 16));
      const __m512 ao = _mm512_castsi512_ps(_mm512_and_si512(av, hi_mask));
      c[i] = _mm512_fmadd_ps(ae, be, c[i]);
      c[i] = _mm512_fmadd_ps(ao, bo, c[i]);
    }
  }
  for (int i = 0; i < kQuantMR; ++i)
    _mm512_storeu_ps(acc + i * kQuantNR, c[i]);
}

void int8TileAvx512(int k2, const std::int8_t* ap, const std::int8_t* bp,
                    std::int32_t* acc) {
  __m512i c[kQuantMR];
  for (int i = 0; i < kQuantMR; ++i) c[i] = _mm512_setzero_si512();
  for (int t = 0; t < k2; ++t) {
    const __m256i b8 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        bp + static_cast<std::size_t>(t) * kQuantNR * 2));
    const __m512i b16 = _mm512_cvtepi8_epi16(b8);
    const std::int8_t* a = ap + static_cast<std::size_t>(t) * kQuantMR * 2;
    for (int i = 0; i < kQuantMR; ++i) {
      const std::int32_t pair =
          (static_cast<std::int32_t>(a[2 * i]) & 0xFFFF) |
          (static_cast<std::int32_t>(a[2 * i + 1]) << 16);
      const __m512i av = _mm512_set1_epi32(pair);
      c[i] = _mm512_add_epi32(c[i], _mm512_madd_epi16(av, b16));
    }
  }
  for (int i = 0; i < kQuantMR; ++i)
    _mm512_storeu_si512(acc + i * kQuantNR, c[i]);
}

// fp32 -> bf16 RNE on 16 lanes, result in the LOW 16 bits of each lane.
inline __m512i bf16Rne(__m512 v) {
  const __m512i u = _mm512_castps_si512(v);
  const __m512i rnd = _mm512_add_epi32(
      _mm512_set1_epi32(0x7FFF),
      _mm512_and_si512(_mm512_srli_epi32(u, 16), _mm512_set1_epi32(1)));
  return _mm512_srli_epi32(_mm512_add_epi32(u, rnd), 16);
}

void packBBf16Avx512(int k, int nr, const float* b, std::ptrdiff_t row_stride,
                     std::ptrdiff_t col_stride, std::uint16_t* bp) {
  if (nr != kQuantNR || col_stride != 1) {
    // Fringe panel / transposed stride: the scalar formula is identical.
    packBBf16ScalarRef(k, nr, b, row_stride, col_stride, bp);
    return;
  }
  const int k2 = quantKPairs(k);
  for (int t = 0; t < k2; ++t) {
    const int k0 = 2 * t;
    const int k1 = k0 + 1;
    const __m512i even = bf16Rne(_mm512_loadu_ps(b + k0 * row_stride));
    const __m512i odd =
        k1 < k ? _mm512_slli_epi32(
                     bf16Rne(_mm512_loadu_ps(b + k1 * row_stride)), 16)
               : _mm512_setzero_si512();
    // 32-bit lane j = even_j | odd_j<<16 == dst[2j], dst[2j+1] interleaved.
    _mm512_storeu_si512(bp + static_cast<std::size_t>(t) * kQuantNR * 2,
                        _mm512_or_si512(even, odd));
  }
}

// One row of 16 floats -> clamped int8 in the low byte of each int32 lane.
inline __m512i int8Rne(__m512 v, __m512 inv) {
  __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(v, inv));
  q = _mm512_min_epi32(q, _mm512_set1_epi32(127));
  q = _mm512_max_epi32(q, _mm512_set1_epi32(-127));
  return _mm512_and_si512(q, _mm512_set1_epi32(0xFF));
}

void packBInt8Avx512(int k, int nr, const float* b, std::ptrdiff_t row_stride,
                     std::ptrdiff_t col_stride, const float* inv_scale,
                     std::int8_t* bp) {
  if (nr != kQuantNR || col_stride != 1) {
    packBInt8ScalarRef(k, nr, b, row_stride, col_stride, inv_scale, bp);
    return;
  }
  const __m512 inv = _mm512_loadu_ps(inv_scale);
  const int k2 = quantKPairs(k);
  for (int t = 0; t < k2; ++t) {
    const int k0 = 2 * t;
    const int k1 = k0 + 1;
    const __m512i even = int8Rne(_mm512_loadu_ps(b + k0 * row_stride), inv);
    const __m512i odd =
        k1 < k ? _mm512_slli_epi32(
                     int8Rne(_mm512_loadu_ps(b + k1 * row_stride), inv), 8)
               : _mm512_setzero_si512();
    // Low 16 bits of each lane hold the (even, odd) byte pair; narrow
    // 32 -> 16 and store the 32-byte interleaved panel row.
    const __m256i packed =
        _mm512_cvtepi32_epi16(_mm512_or_si512(even, odd));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(
            bp + static_cast<std::size_t>(t) * kQuantNR * 2),
        packed);
  }
}

} // namespace

const KernelTable& tierTableQuantAvx512() {
  static const KernelTable t{simd::Tier::kAvx512, "avx512-widen",
                             /*native_bf16=*/false, &bf16TileAvx512,
                             &int8TileAvx512, &packBBf16Avx512,
                             &packBInt8Avx512};
  return t;
}

} // namespace grist::backend::quant
