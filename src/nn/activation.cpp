#include "nn/activation.h"

#include "common/check.h"

namespace gluefl {

ReLU::ReLU(int dim) : dim_(dim) { GLUEFL_CHECK(dim > 0); }

void ReLU::init_params(float* /*flat_params*/, Rng& /*rng*/) const {}

void ReLU::forward(const float* /*flat_params*/, float* /*flat_stats*/,
                   const float* in, float* out, int bs, bool training) {
  const size_t n = static_cast<size_t>(bs) * dim_;
  for (size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  if (training) {
    cached_out_.assign(out, out + n);
    cached_bs_ = bs;
  }
}

void ReLU::backward(const float* /*flat_params*/, const float* gout,
                    float* gin, float* /*flat_grads*/, int bs) {
  GLUEFL_CHECK_MSG(bs == cached_bs_, "backward batch differs from forward");
  const size_t n = static_cast<size_t>(bs) * dim_;
  const float* out = cached_out_.data();
  // gout[i] is read unconditionally so the select compiles to a compare and
  // mask instead of a branch on ReLU's ~50/50 sign pattern.
  for (size_t i = 0; i < n; ++i) {
    const float g = gout[i];
    gin[i] = out[i] > 0.0f ? g : 0.0f;
  }
}

std::unique_ptr<Layer> ReLU::clone() const {
  auto l = std::make_unique<ReLU>(dim_);
  l->bind(params_, stats_);
  return l;
}

}  // namespace gluefl
