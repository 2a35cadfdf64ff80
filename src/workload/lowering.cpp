#include "workload/lowering.h"

#include "common/logging.h"

namespace fpraker {
namespace workload {

namespace {

/** Forward GEMM triple (M, N, K) + conv metadata of one layer. */
struct ForwardView
{
    int64_t m = 0, n = 0, k = 0;
    LayerType type = LayerType::FullyConnected;
    int kernelArea = 1;
};

ForwardView
forwardView(const CatalogLayer &layer, const BatchGeometry &geom)
{
    ForwardView v;
    switch (layer.kind) {
      case LayerKind::Conv: {
        const ConvSpec &c = layer.conv;
        panic_if(c.outH() < 1 || c.outW() < 1,
                 "conv '%s' has an empty output grid",
                 layer.name.c_str());
        v.m = static_cast<int64_t>(geom.batch) * c.outH() * c.outW();
        v.n = c.cout;
        v.k = static_cast<int64_t>(c.cin) * c.kh * c.kw;
        v.type = LayerType::Conv;
        v.kernelArea = c.kh * c.kw;
        return v;
      }
      case LayerKind::FullyConnected:
        v.m = geom.batch;
        v.n = layer.fc.out;
        v.k = layer.fc.in;
        v.type = LayerType::FullyConnected;
        return v;
      case LayerKind::Mlp:
        v.m = static_cast<int64_t>(geom.batch) * geom.seq;
        v.n = layer.fc.out;
        v.k = layer.fc.in;
        v.type = LayerType::FullyConnected;
        return v;
      case LayerKind::Attention: {
        const AttnSpec &a = layer.attn;
        const int64_t tokens =
            static_cast<int64_t>(geom.batch) * geom.seq;
        const int64_t head_rows = tokens * a.heads;
        v.type = LayerType::Attention;
        switch (a.stage) {
          case AttnStage::Qkv:
            v.m = tokens;
            v.n = 3 * a.dModel;
            v.k = a.dModel;
            return v;
          case AttnStage::Scores:
            v.m = head_rows;
            v.n = geom.seq;
            v.k = a.dHead();
            return v;
          case AttnStage::Context:
            v.m = head_rows;
            v.n = a.dHead();
            v.k = geom.seq;
            return v;
          case AttnStage::Out:
            v.m = tokens;
            v.n = a.dModel;
            v.k = a.dModel;
            return v;
        }
        panic("bad attention stage");
      }
    }
    panic("bad layer kind");
}

} // namespace

LayerShape
lowerLayer(const CatalogLayer &layer, TrainingOp op,
           const BatchGeometry &geom)
{
    const ForwardView v = forwardView(layer, geom);
    LayerShape s;
    s.name = layer.name;
    s.type = v.type;
    switch (op) {
      case TrainingOp::Forward:
        s.m = v.m;
        s.n = v.n;
        s.k = v.k;
        // The [M, K] operand is the im2col'd activation array.
        s.kernelArea = v.kernelArea;
        break;
      case TrainingOp::InputGrad:
        // dE/dA[M, K] = dE/dZ[M, N] x B^T[N, K]: the [M, K=N] operand
        // is the unduplicated output gradient.
        s.m = v.m;
        s.n = v.k;
        s.k = v.n;
        s.kernelArea = 1;
        break;
      case TrainingOp::WeightGrad:
        // dE/dB[K, N] = A^T[K, M] x dE/dZ[M, N]: the [M=K, K=M]
        // operand is the im2col'd activation array again.
        s.m = v.k;
        s.n = v.n;
        s.k = v.m;
        s.kernelArea = v.kernelArea;
        break;
    }
    return s;
}

LoweredModel::LoweredModel(const CatalogModel &model,
                           const BatchGeometry &geom)
    : model_(&model), geom_(geom)
{
    panic_if(geom.batch < 1 || geom.seq < 1,
             "batch geometry must be positive (batch %d, seq %d)",
             geom.batch, geom.seq);
    name_ = model.name + "@" +
            geom.label(model.family == "transformer");

    // Lowered forward shapes first: every carrier shares them so the
    // activation-stash footprint reflects the whole model at this
    // batch geometry.
    std::vector<LayerShape> forward_shapes;
    forward_shapes.reserve(model.layers.size());
    for (const CatalogLayer &layer : model.layers)
        forward_shapes.push_back(
            lowerLayer(layer, TrainingOp::Forward, geom));

    units_.reserve(model.layers.size() * 3);
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const CatalogLayer &layer = model.layers[i];
        ModelInfo carrier;
        // A unique name per layer and geometry labels the carrier;
        // its BDC footprints are keyed by its profile, not its name.
        carrier.name = name_ + "/" + layer.name;
        carrier.application = model.family;
        carrier.dataset = "synthetic";
        carrier.layers = forward_shapes;
        carrier.profile = layerProfile(model, layer);
        carriers_.push_back(std::move(carrier));

        for (TrainingOp op :
             {TrainingOp::Forward, TrainingOp::InputGrad,
              TrainingOp::WeightGrad}) {
            WorkloadUnit u;
            u.layer = &layer;
            u.op = op;
            u.shape = lowerLayer(layer, op, geom);
            // Qualify the lowered shape's name with the geometry so
            // the phase runner's per-(layer, op) seeding separates
            // geometries, not just layers.
            u.shape.name = name_ + "/" + layer.name;
            units_.push_back(std::move(u));
            unitCarrier_.push_back(&carriers_.back());
        }
    }
}

const ModelInfo &
LoweredModel::carrierOf(size_t unit) const
{
    panic_if(unit >= unitCarrier_.size(), "unit %zu out of range",
             unit);
    return *unitCarrier_[unit];
}

int64_t
LoweredModel::totalMacs() const
{
    int64_t macs = 0;
    for (const WorkloadUnit &u : units_)
        macs += u.shape.macs();
    return macs;
}

std::vector<SweepLayerJob>
LoweredModel::jobs(const Accelerator &accel, double progress) const
{
    std::vector<SweepLayerJob> out;
    out.reserve(units_.size());
    for (size_t i = 0; i < units_.size(); ++i)
        out.push_back(SweepLayerJob{&accel, unitCarrier_[i],
                                    &units_[i].shape, units_[i].op,
                                    progress, nullptr});
    return out;
}

} // namespace workload
} // namespace fpraker
