/**
 * @file
 * Training layers routing all MACs through a pluggable MacEngine.
 *
 * A deliberately small layer set — dense, ReLU, softmax cross-entropy —
 * sufficient for the Fig. 17 convergence-parity study: what matters is
 * that the forward pass (Eq. 1), the input-gradient pass (Eq. 2) and
 * the weight-gradient pass (Eq. 3) all run through the emulated MAC
 * arithmetic, exactly like the paper's PlaidML mad() override.
 *
 * Each of DenseLayer's three passes is one MacEngine::matmulT call, in
 * the way Caffe's BaseConvolutionLayer drives its forward, backward and
 * weight GEMMs from one layer description; the engine, not the layer,
 * decides how the dots are walked. FPRaker is asymmetric, so each pass
 * also fixes which operand streams terms (matmulT's first):
 *
 *  - forward:             y     = matmulT(x, W^T) + bias,
 *  - accumulateGradients: dW   += matmulT(x^T, dy^T),
 *  - inputGradient:       dL/dx = matmulT(dy, W).
 *
 * The backward pass is two calls, so a caller can skip the input
 * gradient nobody reads: the first layer's dL/dx would only flow into
 * the data.
 */

#ifndef FPRAKER_TRAIN_LAYERS_H
#define FPRAKER_TRAIN_LAYERS_H

#include "train/mac_modes.h"
#include "train/tensor.h"

namespace fpraker {

/** Fully connected layer with bias. */
class DenseLayer
{
  public:
    DenseLayer(size_t in, size_t out, uint64_t seed);

    /** Forward: y[b] = x[b] W + bias (Eq. 1 through the engine). */
    Matrix forward(const MacEngine &eng, const Matrix &x) const;

    /**
     * Weight-gradient pass: given the forward input @p x and dL/dy,
     * accumulates the weight gradients (Eq. 3, through the engine) and
     * the bias gradients until the next step().
     */
    void accumulateGradients(const MacEngine &eng, const Matrix &x,
                             const Matrix &dy);

    /** Input-gradient pass: dL/dx = dy W^T (Eq. 2, through the engine). */
    Matrix inputGradient(const MacEngine &eng, const Matrix &dy) const;

    /** SGD step, then clears gradients. */
    void step(float lr);

    const Matrix &weights() const { return w_; }
    Matrix &weights() { return w_; }

  private:
    size_t in_, out_;
    Matrix w_;  //!< [in x out]
    Matrix b_;  //!< [1 x out]
    Matrix dw_; //!< Gradient accumulators.
    Matrix db_;
};

/** ReLU activation. */
class ReluLayer
{
  public:
    Matrix forward(const Matrix &x) const;
    Matrix backward(const Matrix &x, const Matrix &dy) const;
};

/** Softmax + cross-entropy head. */
class SoftmaxCrossEntropy
{
  public:
    /**
     * Compute mean loss and dL/dlogits for integer labels.
     * @param logits  [batch x classes]
     * @param labels  batch labels
     * @param dlogits output gradient (same shape as logits)
     */
    static float lossAndGrad(const Matrix &logits,
                             const std::vector<int> &labels,
                             Matrix &dlogits);

    /** Argmax accuracy. */
    static double accuracy(const Matrix &logits,
                           const std::vector<int> &labels);
};

} // namespace fpraker

#endif // FPRAKER_TRAIN_LAYERS_H
