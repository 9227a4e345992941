// Quantized-GEMM microkernel tiers: the dispatch surface the ML dense-math
// layer (src/ml) uses to run bf16/int8 weight-quantized inference GEMMs.
//
// The paper's MIX dycore argument -- drop precision wherever the physics
// tolerates it, because the machine is bandwidth-bound -- applied to the ML
// suite: weights are quantized offline into a packed-panel format (half the
// bytes for bf16, a quarter for int8) and dequantized *inside* the register
// tile, so no fp32 weight matrix is ever materialized. Activation panels are
// converted on the fly at pack time (bf16) or dynamically quantized with a
// per-column scale (int8); the per-row weight scale times the per-column
// activation scale is folded into the store epilogue together with the bias
// and ReLU (one pass, like the fp32 GemmEpilogue).
//
// Dispatch mirrors grist/backend/simd.hpp: one implementation per tier
// (scalar reference / AVX2+FMA / AVX-512, plus a native AVX512-BF16 dot-
// product override where the CPU grants it), compiled into per-ISA TUs and
// selected through a cpuid function-pointer table. The quant tiers reuse the
// simd::Tier ordering and the simd::activeTier() override machinery
// (GRIST_SIMD_TIER / forceTier clamp these tiers down too), but clamp
// independently: the AVX-512 quant tier additionally needs AVX-512BW for the
// int16-widening int8 kernel, and the native-bf16 kernel needs AVX512_BF16 --
// a CPU with plain AVX-512F runs the quant tiers at AVX2.
//
// Numerical contract per precision:
//  - int8: products and accumulation are exact integer arithmetic (int16
//    widening, vpmaddwd-shaped pair sums into int32 -- associative), so every
//    tier is BITWISE identical to the scalar reference.
//  - bf16: a bf16*bf16 product is exact in fp32 (8-bit mantissas), so the
//    widen+FMA tiers (scalar/AVX2/AVX-512F) are bitwise identical to each
//    other: per-output accumulation is the fixed k-ascending pair chain
//    (+= even product, += odd product). The native AVX512-BF16 vdpbf16ps
//    kernel may order/round the two per-pair accumulations differently in
//    hardware, so cross-tier tests hold it to a few-ulp tolerance instead.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "grist/backend/simd.hpp"

namespace grist::backend::quant {

/// Register-tile geometry shared by every tier AND by the offline weight
/// packing (quantized weight snapshots must serve any tier). Weight (A)
/// micro-panels hold kMR rows, activation (B) micro-panels kNR columns; both
/// interleave k in pairs -- ap[k2][kMR][2], bp[k2][kNR][2] -- so the AVX-512
/// pair kernels (vdpbf16ps, vpmaddwd) read one 32-bit lane per (row, k-pair)
/// and the widening tiers deinterleave with shifts. Odd k pads the last pair
/// with zeros (exact in both encodings).
inline constexpr int kQuantMR = 8;
inline constexpr int kQuantNR = 16;

/// k-pair count for a logical depth k.
constexpr int quantKPairs(int k) { return (k + 1) / 2; }

/// bf16 -> fp32 widening (exact: place the 16 bits in the high half).
inline float bf16ToFloat(std::uint16_t h) {
  std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// fp32 -> bf16 with round-to-nearest-even mantissa truncation. The carry
/// trick (u += 0x7FFF + lsb-of-kept-part) matches vcvtneps2bf16 for all
/// finite inputs; weights/activations carry no NaNs. Shared by the scalar
/// pack path, the offline weight packer (src/ml), and the tests, so every
/// producer of a bf16 panel rounds identically.
inline std::uint16_t floatToBf16(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

/// q = clamp(rne(v * inv_scale), -127, 127). lrintf honors the default
/// round-to-nearest-even mode, matching vcvtps2dq exactly.
inline std::int8_t quantizeInt8(float v, float inv_scale) {
  long q = std::lrintf(v * inv_scale);
  if (q > 127) q = 127;
  if (q < -127) q = -127;
  return static_cast<std::int8_t>(q);
}

/// One tier's function-pointer table. Microkernels accumulate one
/// kQuantMR x kQuantNR tile over the whole depth (no KC split: inference
/// depths are a few hundred and the panels stay cache-resident) and
/// OVERWRITE acc. Pack functions read B through (row_stride, col_stride) so
/// transposed operands cost a stride, not a copy; both zero-pad fringe
/// columns and the odd-k tail.
struct KernelTable {
  simd::Tier tier = simd::Tier::kScalar;
  /// Human-readable kernel flavor for bench labels ("scalar",
  /// "avx2-fma", "avx512-widen", "avx512-bf16dp").
  const char* name = "scalar";
  /// True when bf16_tile is the native vdpbf16ps kernel (tolerance, not
  /// bitwise, against the widen tiers).
  bool native_bf16 = false;

  /// acc[kQuantMR*kQuantNR] (row-major) = sum over k2 pairs of
  /// widen(ap) * widen(bp), fp32 accumulation.
  void (*bf16_tile)(int k2, const std::uint16_t* ap, const std::uint16_t* bp,
                    float* acc) = nullptr;
  /// acc[kQuantMR*kQuantNR] = sum of int16-widened products, int32
  /// accumulation (exact for |q| <= 127 and inference-scale depths).
  void (*int8_tile)(int k2, const std::int8_t* ap, const std::int8_t* bp,
                    std::int32_t* acc) = nullptr;

  /// Pack nr (<= kQuantNR) columns of B[0..k, jc..jc+nr) into a bf16
  /// pair-interleaved panel of quantKPairs(k)*kQuantNR pairs. Element
  /// B[kk][j] is read at b[kk*row_stride + j*col_stride]; conversion is
  /// round-to-nearest-even (identical across tiers).
  void (*pack_b_bf16)(int k, int nr, const float* b, std::ptrdiff_t row_stride,
                      std::ptrdiff_t col_stride, std::uint16_t* bp) = nullptr;
  /// Same, quantizing with the caller's per-column inverse scales
  /// (q = clamp(rne(v * inv_scale[j]), -127, 127); identical across tiers).
  void (*pack_b_int8)(int k, int nr, const float* b, std::ptrdiff_t row_stride,
                      std::ptrdiff_t col_stride, const float* inv_scale,
                      std::int8_t* bp) = nullptr;
};

/// Best quant tier this build carries AND this CPU supports (independent of
/// the simd override; the AVX-512 entry requires AVX-512F+BW).
simd::Tier bestTier();

/// The active table: min(simd::activeTier(), bestTier()) -- GRIST_SIMD_TIER
/// / simd::forceTier clamp these tiers down exactly like the stencil tiers
/// (the scalar tier is the portable fallback).
const KernelTable& table();

/// A specific tier's table (clamped to bestTier()).
const KernelTable& table(simd::Tier t);

} // namespace grist::backend::quant
