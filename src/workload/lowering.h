/**
 * @file
 * im2col/GEMM lowering: catalog layers -> the (layer, op) GEMM units
 * the accelerator consumes.
 *
 * Every training computation of every described layer reduces to one
 * GEMM whose dimensions follow a single transposition rule. With the
 * forward view Z[M,N] = A[M,K] x B[K,N]:
 *
 *   forward      (M, N, K)
 *   input-grad   (M, K, N)   dE/dA = dE/dZ x B^T   (Eq. 2)
 *   weight-grad  (K, N, M)   dE/dB = A^T  x dE/dZ  (Eq. 3)
 *
 * For convolutions the forward triple is the im2col view with the
 * minibatch folded into M: M = batch * outH * outW, N = Cout,
 * K = Cin * kh * kw (SWCaffe's batched im2col + sgemm formulation).
 * kernelArea tracks which ops read the im2col-duplicated activation
 * array as their [M, K] operand (forward and weight-grad), so the
 * memory model can undo the duplication. FC layers fold the batch into
 * M; per-token layers (MLP / attention projections) fold batch * seq;
 * attention score/context GEMMs fold batch * heads * seq.
 */

#ifndef FPRAKER_WORKLOAD_LOWERING_H
#define FPRAKER_WORKLOAD_LOWERING_H

#include <deque>
#include <vector>

#include "sim/sweep_runner.h"
#include "trace/model_zoo.h"
#include "workload/catalog.h"

namespace fpraker {
namespace workload {

/** One lowered (layer, op) GEMM unit of a model. */
struct WorkloadUnit
{
    const CatalogLayer *layer = nullptr; //!< Borrowed from the catalog.
    TrainingOp op = TrainingOp::Forward;
    LayerShape shape; //!< Lowered GEMM view.
};

/** GEMM view of one catalog layer under @p op at @p geom. */
LayerShape lowerLayer(const CatalogLayer &layer, TrainingOp op,
                      const BatchGeometry &geom);

/**
 * A catalog model instantiated at one batch geometry: every (layer,
 * op) unit lowered to its GEMM view, plus one profile-carrier
 * ModelInfo per layer so the accelerator samples each layer under its
 * own statistics (a layer job reads model.profile for values and
 * model.layers for the activation-stash footprint — the carrier holds
 * this model's lowered forward shapes, so stash occupancy scales with
 * the batch). Units and carriers have stable
 * addresses for the object's lifetime; jobs() hands out pointers into
 * them, so keep the LoweredModel alive while jobs run.
 */
class LoweredModel
{
  public:
    LoweredModel(const CatalogModel &model, const BatchGeometry &geom);

    LoweredModel(const LoweredModel &) = delete;
    LoweredModel &operator=(const LoweredModel &) = delete;

    /** "AlexNet@b32" (sequence included for transformer families). */
    const std::string &name() const { return name_; }
    const CatalogModel &model() const { return *model_; }
    const BatchGeometry &geometry() const { return geom_; }
    const std::vector<WorkloadUnit> &units() const { return units_; }

    /** The profile carrier of @p unit (indexed like units()). */
    const ModelInfo &carrierOf(size_t unit) const;

    /** MACs of one full training iteration (all units). */
    int64_t totalMacs() const;

    /**
     * One SweepLayerJob per unit on @p accel at @p progress, in unit
     * order. The jobs borrow this object's storage.
     */
    std::vector<SweepLayerJob> jobs(const Accelerator &accel,
                                    double progress) const;

  private:
    const CatalogModel *model_;
    BatchGeometry geom_;
    std::string name_;
    std::vector<WorkloadUnit> units_;
    std::deque<ModelInfo> carriers_;       //!< One per catalog layer.
    std::vector<const ModelInfo *> unitCarrier_; //!< Per unit.
};

} // namespace workload
} // namespace fpraker

#endif // FPRAKER_WORKLOAD_LOWERING_H
