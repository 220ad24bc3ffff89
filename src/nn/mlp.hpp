// Minimal fully-connected network with reverse-mode gradients.
//
// The paper's actor and critic are both "4-layer neural networks"
// (Sec. IV-A).  This implementation keeps all parameters in one flat vector
// so optimizers (nn::Adam) and parameter copies (ensemble base models) are
// trivial, and exposes an input_gradient() pass so the actor can be trained
// through the frozen critic (Algorithm 1's L_A).
//
// Kernels (docs/architecture.md#nn-kernels): a pass takes one or more
// samples ("rows") and runs layer by layer over all of them, so each layer's
// weights are loaded once per minibatch.  Loops are interchanged and blocked
// around each dot product, never inside one, so every row gets exactly the
// bits a plain one-sample, one-output-at-a-time pass would give it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace glova::nn {

enum class Activation { Identity, Tanh, ReLU, Sigmoid };

/// Value of the activation function.
[[nodiscard]] double activate(Activation act, double x);
/// Derivative of the activation expressed via its output y = activate(act, x).
[[nodiscard]] double activate_grad_from_output(Activation act, double y);

/// Fully-connected feed-forward network.
class Mlp {
 public:
  /// `sizes` lists layer widths including input and output,
  /// e.g. {14, 64, 64, 64, 1} is a 4-layer network on a 14-dim input.
  /// Hidden layers use `hidden`, the final layer uses `output`.
  Mlp(std::vector<std::size_t> sizes, Activation hidden, Activation output, Rng& rng);

  [[nodiscard]] std::size_t input_dim() const { return sizes_.front(); }
  [[nodiscard]] std::size_t output_dim() const { return sizes_.back(); }
  [[nodiscard]] std::size_t layer_count() const { return sizes_.size() - 1; }
  [[nodiscard]] std::size_t parameter_count() const { return params_.size(); }

  /// Flat parameters: per layer, the row-major (out x in) weights, then the
  /// biases.  Gradients use the same layout.
  [[nodiscard]] std::span<double> parameters() { return params_; }
  [[nodiscard]] std::span<const double> parameters() const { return params_; }

  /// Caller-owned activations of one forward pass plus backward scratch.
  /// Sized on first use; reusing it keeps forward/backward allocation-free.
  struct Workspace {
    std::size_t rows = 0;  ///< samples in the recorded pass
    /// Per layer, a rows x width block of outputs; block 0 is the input.
    std::vector<double> post;
    std::vector<double> delta;  ///< dL/d(post), same layout
  };

  /// Inference-only forward pass (same row convention as below).
  [[nodiscard]] std::vector<double> forward(std::span<const double> x) const;

  /// Forward pass that records activations for backward().  `x` holds one
  /// or more samples row by row (a multiple of input_dim() entries); the
  /// returned rows x output_dim() view lives in `ws` until its next use.
  std::span<const double> forward(std::span<const double> x, Workspace& ws) const;

  /// Backpropagate `dLdy` (rows x output_dim(), the gradient of the loss
  /// w.r.t. each row's output) through the pass `ws` holds.  Parameter
  /// gradients are *accumulated* into `grad` (parameter_count() entries),
  /// row by row for each element, so the bits equal one backward() per row.
  void backward(Workspace& ws, std::span<const double> dLdy, std::span<double> grad) const;

  /// dL/dx (rows x input_dim()) for output gradient `dLdy` (no parameter
  /// gradients); used when the critic is frozen during the actor update.
  /// The view lives in `ws`.
  std::span<const double> input_gradient(Workspace& ws, std::span<const double> dLdy) const;

  /// Text-serialize the flat parameter vector (architecture comes from the
  /// constructor).  `load` throws when the stored count does not match this
  /// network's parameter_count().
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  struct LayerView {
    std::size_t w_offset;    ///< offset of the (out x in) weight block in params_
    std::size_t b_offset;    ///< offset of the bias vector in params_
    std::size_t act_offset;  ///< offset of this layer's input in one row's activations
    std::size_t in;
    std::size_t out;
    Activation act;
  };

  /// Fill ws.delta from dLdy down to the first layer's pre-activation, and
  /// on to the input when `to_input`.
  void backprop_deltas(Workspace& ws, std::span<const double> dLdy, bool to_input) const;

  std::vector<std::size_t> sizes_;
  std::vector<LayerView> layers_;
  std::vector<double> params_;
  std::size_t activations_ = 0;  ///< activations of one row, input included
};

}  // namespace glova::nn
