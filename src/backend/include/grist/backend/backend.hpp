// Execution-backend concept (paper section 3.3): one kernel body, written
// once against an abstract load/store/arithmetic interface, instantiated for
// every target. A backend provides
//
//   B::Context      -- receives the kernel's memory and arithmetic events;
//   B::View<T>      -- read-only array handle, read(ctx, i);
//   B::MutView<T>   -- writable array handle, read(ctx, i) / write(ctx, i, v).
//
// HostBackend (here) is the plain host instantiation: views are raw
// pointers and every Context method is an empty inline, so under -O3 the
// body compiles to its bare loads/stores/FLOPs. It is the reference the
// SIMD dispatch tiers (simd.hpp, the production step) are bitwise equal to
// (test_simd, test_fused_kernels), and hostSweep below is the one generic
// way to run a body over a range of entities; no per-kernel Host wrapper
// exists.
//
// SimBackend (sim.hpp) is the SW26010P cost-model target: views carry the
// pool allocator's virtual base addresses and every read/write/divide is
// accounted against the simulated LDCache -- so the Fig. 9 cost model can
// never drift from the production kernels again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "grist/common/types.hpp"
#include "grist/precision/ns.hpp"

namespace grist::backend {

/// Precision of an accounted arithmetic event. Mirrors sunway::SimPrecision
/// but kept independent so host-only translation units never see the
/// simulator headers.
enum class Prec { kDouble, kSingle };

/// The event precision matching a kernel's NS template parameter.
template <precision::NsReal NS>
inline constexpr Prec kPrecOf =
    std::is_same_v<NS, float> ? Prec::kSingle : Prec::kDouble;

/// Zero-overhead production backend: views are bare pointers, accounting is
/// compiled away.
struct HostBackend {
  struct Context {
    void load(std::uint64_t, std::size_t) {}
    void store(std::uint64_t, std::size_t) {}
    void flops(double, Prec) {}
    void divs(double, Prec) {}
    void elems(double, Prec) {}
  };

  template <typename T>
  struct View {
    const T* data = nullptr;
    template <typename Ctx>
    T read(Ctx&, Index i) const {
      return data[i];
    }
  };

  template <typename T>
  struct MutView {
    T* data = nullptr;
    template <typename Ctx>
    T read(Ctx&, Index i) const {
      return data[i];
    }
    template <typename Ctx>
    void write(Ctx&, Index i, T v) const {
      data[i] = v;
    }
  };
};

/// Light structural check used by the kernel bodies' static_asserts.
template <typename B>
concept ExecutionBackend = requires(typename B::Context ctx,
                                    typename B::template View<double> v,
                                    typename B::template MutView<double> mv) {
  v.read(ctx, Index{0});
  mv.read(ctx, Index{0});
  mv.write(ctx, Index{0}, 0.0);
  ctx.flops(1.0, Prec::kDouble);
  ctx.divs(1.0, Prec::kDouble);
  ctx.elems(1.0, Prec::kDouble);
};

static_assert(ExecutionBackend<HostBackend>);

/// Run `body(ctx, i)` for every i in [0, n) with a Host context, OpenMP
/// static schedule. The one generic sweep for a shared body outside the
/// dispatch table (a diagnostic, a test reference, a bench baseline); the
/// body must write only entity i's rows.
template <typename Body>
void hostSweep(Index n, const Body& body) {
#pragma omp parallel for schedule(static)
  for (Index i = 0; i < n; ++i) {
    HostBackend::Context ctx;
    body(ctx, i);
  }
}

} // namespace grist::backend
