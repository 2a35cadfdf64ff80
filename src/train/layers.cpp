#include "train/layers.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fpraker {

DenseLayer::DenseLayer(size_t in, size_t out, uint64_t seed)
    : in_(in), out_(out), w_(in, out), b_(1, out), dw_(in, out),
      db_(1, out)
{
    // Kaiming initialization for ReLU networks.
    w_.randomize(std::sqrt(2.0 / static_cast<double>(in)), seed);
}

Matrix
DenseLayer::forward(const MacEngine &eng, const Matrix &x) const
{
    panic_if(x.cols() != in_, "dense forward shape mismatch");
    // y = x W + bias (Eq. 1: A x W): row r of x against column c of W.
    Matrix y = eng.matmulT(x, w_.transposed());
    for (size_t r = 0; r < y.rows(); ++r)
        for (size_t c = 0; c < out_; ++c)
            y.at(r, c) += b_.at(0, c);
    return y;
}

void
DenseLayer::accumulateGradients(const MacEngine &eng, const Matrix &x,
                                const Matrix &dy)
{
    panic_if(x.cols() != in_ || dy.cols() != out_ ||
                 dy.rows() != x.rows(),
             "dense backward shape mismatch");

    // dL/dW = x^T . dy  (Eq. 3: A x G) — accumulate over the batch.
    dw_.addScaled(eng.matmulT(x.transposed(), dy.transposed()), 1.0f);

    for (size_t o = 0; o < out_; ++o) {
        float s = 0.0f;
        for (size_t r = 0; r < dy.rows(); ++r)
            s += dy.at(r, o);
        db_.at(0, o) += s;
    }
}

Matrix
DenseLayer::inputGradient(const MacEngine &eng, const Matrix &dy) const
{
    panic_if(dy.cols() != out_, "dense backward shape mismatch");

    // dL/dx = dy . W^T  (Eq. 2: G x W): row r of dy against row c of W.
    return eng.matmulT(dy, w_);
}

void
DenseLayer::step(float lr)
{
    w_.addScaled(dw_, -lr);
    b_.addScaled(db_, -lr);
    dw_.zero();
    db_.zero();
}

Matrix
ReluLayer::forward(const Matrix &x) const
{
    Matrix y(x.rows(), x.cols());
    for (size_t i = 0; i < x.size(); ++i)
        y.data()[i] = std::max(0.0f, x.data()[i]);
    return y;
}

Matrix
ReluLayer::backward(const Matrix &x, const Matrix &dy) const
{
    Matrix dx(x.rows(), x.cols());
    for (size_t i = 0; i < x.size(); ++i)
        dx.data()[i] = x.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
    return dx;
}

float
SoftmaxCrossEntropy::lossAndGrad(const Matrix &logits,
                                 const std::vector<int> &labels,
                                 Matrix &dlogits)
{
    panic_if(labels.size() != logits.rows(), "label count mismatch");
    dlogits = Matrix(logits.rows(), logits.cols());
    double loss = 0.0;
    for (size_t r = 0; r < logits.rows(); ++r) {
        float mx = logits.at(r, 0);
        for (size_t c = 1; c < logits.cols(); ++c)
            mx = std::max(mx, logits.at(r, c));
        double denom = 0.0;
        for (size_t c = 0; c < logits.cols(); ++c)
            denom += std::exp(static_cast<double>(logits.at(r, c) - mx));
        int label = labels[r];
        for (size_t c = 0; c < logits.cols(); ++c) {
            double p =
                std::exp(static_cast<double>(logits.at(r, c) - mx)) /
                denom;
            dlogits.at(r, c) = static_cast<float>(
                (p - (static_cast<int>(c) == label ? 1.0 : 0.0)) /
                static_cast<double>(logits.rows()));
            if (static_cast<int>(c) == label)
                loss -= std::log(std::max(p, 1e-12));
        }
    }
    return static_cast<float>(loss / static_cast<double>(logits.rows()));
}

double
SoftmaxCrossEntropy::accuracy(const Matrix &logits,
                              const std::vector<int> &labels)
{
    size_t correct = 0;
    for (size_t r = 0; r < logits.rows(); ++r) {
        size_t best = 0;
        for (size_t c = 1; c < logits.cols(); ++c)
            if (logits.at(r, c) > logits.at(r, best))
                best = c;
        correct += static_cast<int>(best) == labels[r];
    }
    return static_cast<double>(correct) /
           static_cast<double>(logits.rows());
}

} // namespace fpraker
