#include "grist/ml/ml_suite.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"
#include "grist/precision/norms.hpp"

namespace grist::ml {

using constants::kCp;
using constants::kGravity;
using constants::kLv;

namespace {

std::shared_ptr<const Q1Q2Net> requireNet(std::shared_ptr<const Q1Q2Net> net,
                                          int nlev) {
  if (!net) throw std::invalid_argument("MlPhysicsSuite: null network");
  if (net->config().nlev != nlev) {
    throw std::invalid_argument("MlPhysicsSuite: Q1Q2Net nlev mismatch");
  }
  return net;
}

std::shared_ptr<const Q1Q2Ensemble> requireEnsemble(
    std::shared_ptr<const Q1Q2Ensemble> ensemble, int nlev) {
  if (!ensemble) throw std::invalid_argument("MlPhysicsSuite: null ensemble");
  if (ensemble->nlev() != nlev) {
    throw std::invalid_argument("MlPhysicsSuite: ensemble nlev mismatch");
  }
  return ensemble;
}

} // namespace

MlPhysicsSuite::MlPhysicsSuite(Index ncolumns, int nlev, PredictFn predict,
                               ScratchFn scratch, VersionFn version,
                               std::size_t q1q2_params,
                               std::shared_ptr<const RadMlp> rad,
                               MlSuiteConfig config)
    : predict_q1q2_(std::move(predict)),
      q1q2_scratch_(std::move(scratch)),
      q1q2_version_(std::move(version)),
      q1q2_params_(q1q2_params),
      rad_(std::move(rad)),
      surface_(config.surface),
      land_(ncolumns, config.land),
      config_(config),
      nlev_(nlev) {
  if (!predict_q1q2_ || !q1q2_scratch_ || !q1q2_version_ || !rad_) {
    throw std::invalid_argument("MlPhysicsSuite: null network");
  }
}

MlPhysicsSuite::MlPhysicsSuite(Index ncolumns, int nlev,
                               std::shared_ptr<const Q1Q2Net> q1q2,
                               std::shared_ptr<const RadMlp> rad,
                               MlSuiteConfig config)
    : MlPhysicsSuite(
          ncolumns, nlev,
          [net = requireNet(q1q2, nlev)](int batch, const double* u,
                                         const double* v, const double* t,
                                         const double* q, const double* p,
                                         double* q1, double* q2,
                                         common::Workspace& ws, Precision prec) {
            net->predictBatch(batch, u, v, t, q, p, q1, q2, ws, prec);
          },
          [net = q1q2](int batch) { return net->predictScratchBytes(batch); },
          [net = q1q2](Precision prec) {
            net->ensureQuantized(prec);
            return net->quantizedVersion(prec);
          },
          q1q2 ? q1q2->parameterCount() : 0, std::move(rad), config) {}

MlPhysicsSuite::MlPhysicsSuite(Index ncolumns, int nlev,
                               std::shared_ptr<const Q1Q2Ensemble> ensemble,
                               std::shared_ptr<const RadMlp> rad,
                               MlSuiteConfig config)
    : MlPhysicsSuite(
          ncolumns, nlev,
          [ens = requireEnsemble(ensemble, nlev)](
              int batch, const double* u, const double* v, const double* t,
              const double* q, const double* p, double* q1, double* q2,
              common::Workspace& ws, Precision prec) {
            ens->predictBatch(batch, u, v, t, q, p, q1, q2, ws, prec);
          },
          [ens = ensemble](int batch) {
            return ens->predictScratchBytes(batch);
          },
          [ens = ensemble](Precision prec) {
            ens->ensureQuantized(prec);
            return ens->quantizedVersion(prec);
          },
          ensemble ? ensemble->parameterCount() : 0, std::move(rad), config) {}

void MlPhysicsSuite::runQuantGate(const physics::PhysicsInput& in) {
  const Precision prec = config_.precision;
  const int nlev = in.nlev;
  // Gate on a sample of the columns the suite is about to serve: enough to
  // make the rel-L2 statistically meaningful, small enough to stay cheap.
  const int bc = static_cast<int>(std::min<Index>(in.ncolumns, 64));
  if (bc <= 0) return;

  const std::size_t bl = static_cast<std::size_t>(bc) * nlev;
  std::vector<double> q1_gold(bl), q2_gold(bl), q1_test(bl), q2_test(bl);
  std::vector<double> gsw_gold(bc), glw_gold(bc), gsw_test(bc), glw_test(bc);

  common::Workspace& ws = common::Workspace::threadLocal();
  if (ws.used() == 0) {
    ws.reserve(std::max(q1q2_scratch_(bc), rad_->predictScratchBytes(bc)));
  }
  predict_q1q2_(bc, &in.u(0, 0), &in.v(0, 0), &in.t(0, 0), &in.qv(0, 0),
                &in.pmid(0, 0), q1_gold.data(), q2_gold.data(), ws,
                Precision::kFp32);
  predict_q1q2_(bc, &in.u(0, 0), &in.v(0, 0), &in.t(0, 0), &in.qv(0, 0),
                &in.pmid(0, 0), q1_test.data(), q2_test.data(), ws, prec);
  rad_->predictBatch(bc, &in.t(0, 0), &in.qv(0, 0), in.tskin.data(),
                     in.coszr.data(), gsw_gold.data(), glw_gold.data(), ws,
                     Precision::kFp32);
  rad_->predictBatch(bc, &in.t(0, 0), &in.qv(0, 0), in.tskin.data(),
                     in.coszr.data(), gsw_test.data(), glw_test.data(), ws,
                     prec);

  precision::PrecisionGate gate(config_.quant_tolerance);
  gate.check("q1", q1_test, q1_gold);
  gate.check("q2", q2_test, q2_gold);
  gate.check("gsw", gsw_test, gsw_gold);
  gate.check("glw", glw_test, glw_gold);
  gate_records_ = gate.records();
  if (!gate.passed()) {
    std::ostringstream msg;
    msg << "MlPhysicsSuite: " << precisionName(prec)
        << " quantization rejected by the rel-L2 acceptance gate (threshold "
        << config_.quant_tolerance << "):";
    for (const auto& [var, rel] : gate_records_) {
      if (rel > config_.quant_tolerance) msg << ' ' << var << '=' << rel;
    }
    throw std::runtime_error(msg.str());
  }
}

void MlPhysicsSuite::run(const physics::PhysicsInput& in, double dt,
                         physics::PhysicsOutput& out) {
  out.zero();
  const int nlev = in.nlev;
  using common::Workspace;

  const Precision prec = config_.precision;
  if (prec != Precision::kFp32) {
    // Build-if-needed both snapshots, then gate whenever the combined version
    // differs from the last accepted one (first run, retrain, reload).
    rad_->ensureQuantized(prec);
    const std::uint64_t current =
        q1q2_version_(prec) + rad_->quantizedVersion(prec);
    if (current != gated_version_) {
      runQuantGate(in);
      gated_version_ = current;
    }
  }

  // ---- ML physical tendency + ML radiation diagnostic, batched ----
  // Columns are processed in blocks so the per-column matvecs become GEMMs;
  // field slices are passed straight to the networks (the [column][level]
  // field layout is exactly the [batch][nlev] layout predictBatch expects).
  const Index bs = std::min<Index>(
      std::max(1, config_.column_block), std::max<Index>(in.ncolumns, 1));
  const Index nblocks = (in.ncolumns + bs - 1) / bs;
  const int bsi = static_cast<int>(bs);
  const std::size_t need =
      2 * Workspace::bytesFor<double>(static_cast<std::size_t>(bs) * nlev) +
      2 * Workspace::bytesFor<double>(static_cast<std::size_t>(bs)) +
      q1q2_scratch_(bsi) + rad_->predictScratchBytes(bsi);

#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    // Grow each worker's arena once, before any frames are live (reserve is
    // only legal on an empty arena); afterwards run() is allocation-free.
    if (ws.used() == 0) ws.reserve(need);
#pragma omp for schedule(static)
    for (Index blk = 0; blk < nblocks; ++blk) {
      const Index c0 = blk * bs;
      const int bc = static_cast<int>(std::min<Index>(bs, in.ncolumns - c0));
      Workspace::Frame frame(ws);
      double* q1 = ws.get<double>(static_cast<std::size_t>(bc) * nlev);
      double* q2 = ws.get<double>(static_cast<std::size_t>(bc) * nlev);
      predict_q1q2_(bc, &in.u(c0, 0), &in.v(c0, 0), &in.t(c0, 0),
                    &in.qv(c0, 0), &in.pmid(c0, 0), q1, q2, ws, prec);
      for (int b = 0; b < bc; ++b) {
        const Index c = c0 + b;
        double moisture_sink = 0.0;  // kg/m^2/s
        for (int k = 0; k < nlev; ++k) {
          const std::size_t bk = static_cast<std::size_t>(b) * nlev + k;
          out.dtdt(c, k) += clamp(q1[bk], -config_.q1_limit, config_.q1_limit);
          // Q2 = -(Lv/cp) dq/dt  =>  dq/dt = -(cp/Lv) Q2.
          const double dqdt =
              clamp(-(kCp / kLv) * q2[bk], -config_.dq_limit, config_.dq_limit);
          out.dqvdt(c, k) += dqdt;
          moisture_sink -= dqdt * in.delp(c, k) / kGravity;
        }
        if (moisture_sink > 0) out.precip[c] += moisture_sink * 86400.0;
      }

      double* gsw = ws.get<double>(bc);
      double* glw = ws.get<double>(bc);
      rad_->predictBatch(bc, &in.t(c0, 0), &in.qv(c0, 0), &in.tskin[c0],
                         &in.coszr[c0], gsw, glw, ws, prec);
      for (int b = 0; b < bc; ++b) {
        out.gsw[c0 + b] = gsw[b];
        out.glw[c0 + b] = glw[b];
      }
    }
  }

  // ---- conventional diagnostic modules (surface layer, land) ----
  surface_.run(in, out);
  land_.run(in, dt, out);
}

double MlPhysicsSuite::flopsPerColumn() const {
  // Two flops per MAC in the conv/dense layers.
  return 2.0 * (static_cast<double>(q1q2_params_) * nlev_ +
                static_cast<double>(rad_->parameterCount()));
}

} // namespace grist::ml
