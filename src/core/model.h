// The multi-set convolutional network (paper Figure 1): three per-element
// two-layer MLPs with shared weights (table / join / predicate modules),
// masked average pooling per set, concatenation, and a final two-layer
// output MLP whose sigmoid yields the normalized cardinality in [0, 1].

#ifndef LC_CORE_MODEL_H_
#define LC_CORE_MODEL_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "core/featurizer.h"
#include "core/normalizer.h"
#include "nn/layers.h"
#include "nn/tape.h"

namespace lc {

class MscnModel {
 public:
  MscnModel() = default;
  /// Fresh randomly-initialized model for the given feature dimensions.
  MscnModel(const FeatureDims& dims, const MscnConfig& config, Rng* rng);

  /// Records the forward pass of one batch; returns the (size, 1) node of
  /// normalized predictions. The batch's tensors are *borrowed* by the tape
  /// (no copies) and must stay alive until the tape's next Reset().
  Tape::NodeId Forward(Tape* tape, const MscnBatch& batch);

  /// Inference into a caller-owned tape, appending denormalized cardinality
  /// estimates to `estimates`. Resets the tape before and after, so a
  /// long-lived tape makes repeated calls allocation-free once batch shapes
  /// stabilize (the serving hot path; see nn/tape.h).
  void Predict(const MscnBatch& batch, Tape* tape,
               std::vector<double>* estimates);

  /// Convenience inference: denormalized cardinality estimates per query.
  std::vector<double> Predict(const MscnBatch& batch);

  /// All trainable parameters (for the optimizer).
  std::vector<Parameter*> parameters();

  const FeatureDims& dims() const { return dims_; }
  const MscnConfig& config() const { return config_; }

  TargetNormalizer& normalizer() { return normalizer_; }
  const TargetNormalizer& normalizer() const { return normalizer_; }
  void set_normalizer(TargetNormalizer normalizer) {
    normalizer_ = normalizer;
  }

  /// Serialized model footprint in bytes (paper section 4.7 reports this).
  size_t ByteSize() const;

  /// Full model (de)serialization, including dims, config and normalizer.
  std::string ToBytes() const;
  static StatusOr<MscnModel> FromBytes(const std::string& bytes);
  Status SaveToFile(const std::string& path) const;
  static StatusOr<MscnModel> LoadFromFile(const std::string& path);

 private:
  FeatureDims dims_;
  MscnConfig config_;
  TargetNormalizer normalizer_;
  TwoLayerMlp table_module_;
  TwoLayerMlp join_module_;
  TwoLayerMlp predicate_module_;
  TwoLayerMlp output_mlp_;
};

}  // namespace lc

#endif  // LC_CORE_MODEL_H_
