// Neural-network layers composed on a Tape: fully-connected Linear and the
// two-layer MLP blocks the MSCN architecture (paper Figure 1) is built from.

#ifndef LC_NN_LAYERS_H_
#define LC_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/tape.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace lc {

/// Fully-connected layer: y = x * W + b, W of shape (in, out).
class Linear {
 public:
  Linear() = default;
  /// He-normal weight initialization (stddev sqrt(2/in)), zero bias.
  Linear(int64_t in_features, int64_t out_features, Rng* rng);

  /// Records y = x*W + b on the tape. `x` must have shape (rows, in).
  Tape::NodeId Apply(Tape* tape, Tape::NodeId x);

  /// Records y = relu(x*W + b) with the fused bias+ReLU kernel. With
  /// `sparse_input`, the matmul uses the zero-skipping kernel — pass true
  /// only when x is a mostly-zero featurized input (one-hot / bitmap rows).
  Tape::NodeId ApplyRelu(Tape* tape, Tape::NodeId x,
                         bool sparse_input = false);

  int64_t in_features() const { return weight_.value.dim(0); }
  int64_t out_features() const { return weight_.value.dim(1); }

  /// Trainable parameters, for the optimizer.
  std::vector<Parameter*> parameters() { return {&weight_, &bias_}; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

  /// Serialized byte footprint (see section 4.7 of the paper).
  size_t ByteSize() const;

  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  Parameter weight_;
  Parameter bias_;
};

/// Final activation of a TwoLayerMlp.
enum class OutputActivation {
  kRelu,     // Set modules: both layers ReLU.
  kSigmoid,  // Output MLP: last layer squashes into [0, 1].
  kNone,
};

/// Two fully-connected layers: relu(x*W1+b1) followed by act(h*W2+b2).
/// This is the shared-parameter per-element network MLP_S of the paper.
class TwoLayerMlp {
 public:
  TwoLayerMlp() = default;
  TwoLayerMlp(int64_t in_features, int64_t hidden_units, int64_t out_features,
              OutputActivation activation, Rng* rng);

  /// With `sparse_input`, the first layer's matmul uses the zero-skipping
  /// kernel (see Linear::ApplyRelu).
  Tape::NodeId Apply(Tape* tape, Tape::NodeId x, bool sparse_input = false);

  int64_t in_features() const;
  int64_t out_features() const;

  std::vector<Parameter*> parameters();

  size_t ByteSize() const;
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  Linear first_;
  Linear second_;
  OutputActivation activation_ = OutputActivation::kRelu;
};

/// Serializes a tensor (shape + data).
void SaveTensor(const Tensor& tensor, BinaryWriter* writer);

/// Deserializes a tensor written by SaveTensor.
Status LoadTensor(BinaryReader* reader, Tensor* tensor);

}  // namespace lc

#endif  // LC_NN_LAYERS_H_
