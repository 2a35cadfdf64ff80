#include "train/trainer.h"

#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace fpraker {

MlpTrainer::MlpTrainer(const DatasetPair &data, const TrainConfig &cfg)
    : data_(data), cfg_(cfg)
{
    panic_if(cfg_.epochs < 1 || cfg_.batchSize < 1, "bad train config");
}

TrainResult
MlpTrainer::run(MacMode mode, PeConfig pe_cfg)
{
    MacEngine eng(mode, pe_cfg);
    TrainResult result;
    result.mode = mode;

    // Build the layer stack with the same seeds for every mode so the
    // only difference between runs is the MAC arithmetic.
    std::vector<DenseLayer> dense;
    std::vector<size_t> dims;
    dims.push_back(data_.train.features());
    for (size_t h : cfg_.hidden)
        dims.push_back(h);
    dims.push_back(static_cast<size_t>(data_.classes));
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        dense.emplace_back(dims[i], dims[i + 1],
                           cfg_.seed * 131 + i * 17);
    ReluLayer relu;

    const size_t n_train = data_.train.samples();
    Rng shuffle_rng(cfg_.seed ^ 0xbadcafe);
    std::vector<size_t> order(n_train);
    for (size_t i = 0; i < n_train; ++i)
        order[i] = i;

    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
        obs::TraceSpan span(
            "train", obs::TraceCollector::instance().enabled()
                         ? "epoch" + std::to_string(epoch + 1) + ":" +
                               macModeLabel(mode)
                         : std::string());

        // Fisher-Yates shuffle, deterministic across modes.
        for (size_t i = n_train - 1; i > 0; --i) {
            size_t j = shuffle_rng.uniformInt(i + 1);
            std::swap(order[i], order[j]);
        }

        double epoch_loss = 0.0;
        int batches = 0;
        for (size_t start = 0; start + cfg_.batchSize <= n_train;
             start += static_cast<size_t>(cfg_.batchSize)) {
            size_t bs = static_cast<size_t>(cfg_.batchSize);
            Matrix x(bs, data_.train.features());
            std::vector<int> labels(bs);
            for (size_t i = 0; i < bs; ++i) {
                size_t src = order[start + i];
                for (size_t c = 0; c < x.cols(); ++c)
                    x.at(i, c) = data_.train.x.at(src, c);
                labels[i] = data_.train.labels[src];
            }

            // Forward, keeping pre-activation inputs for backward.
            std::vector<Matrix> inputs;
            std::vector<Matrix> preacts;
            Matrix cur = x;
            for (size_t li = 0; li < dense.size(); ++li) {
                inputs.push_back(cur);
                Matrix z = dense[li].forward(eng, cur);
                preacts.push_back(z);
                cur = (li + 1 < dense.size()) ? relu.forward(z) : z;
            }

            Matrix dlogits;
            epoch_loss += SoftmaxCrossEntropy::lossAndGrad(cur, labels,
                                                           dlogits);
            ++batches;

            // Backward through the stack. The first layer's input
            // gradient would only flow into the data, so it is never
            // computed.
            Matrix grad = dlogits;
            for (size_t li = dense.size(); li-- > 0;) {
                if (li + 1 < dense.size())
                    grad = relu.backward(preacts[li], grad);
                dense[li].accumulateGradients(eng, inputs[li], grad);
                if (li > 0)
                    grad = dense[li].inputGradient(eng, grad);
            }
            for (auto &layer : dense)
                layer.step(cfg_.learningRate);
        }

        // Test accuracy with the same arithmetic.
        Matrix cur = data_.test.x;
        for (size_t li = 0; li < dense.size(); ++li) {
            Matrix z = dense[li].forward(eng, cur);
            cur = (li + 1 < dense.size()) ? relu.forward(z) : z;
        }
        result.testAccuracy.push_back(
            SoftmaxCrossEntropy::accuracy(cur, data_.test.labels));
        result.trainLoss.push_back(
            static_cast<float>(epoch_loss / std::max(1, batches)));
    }
    return result;
}

} // namespace fpraker
