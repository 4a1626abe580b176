#include "src/optim/adam.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/serial/codec.hpp"

namespace splitmed::optim {

Adam::Adam(std::vector<nn::Parameter*> params, AdamOptions options)
    : Optimizer(std::move(params)), options_(options) {
  SPLITMED_CHECK(options_.learning_rate > 0.0F, "Adam: lr must be positive");
  SPLITMED_CHECK(options_.beta1 >= 0.0F && options_.beta1 < 1.0F &&
                     options_.beta2 >= 0.0F && options_.beta2 < 1.0F,
                 "Adam: betas must be in [0,1)");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const nn::Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::reset_state() {
  for (Tensor& m : m_) m.zero();
  for (Tensor& v : v_) v.zero();
  t_ = 0;
}

void Adam::step() {
  ++t_;
  const float bc1 =
      1.0F - std::pow(options_.beta1, static_cast<float>(t_));
  const float bc2 =
      1.0F - std::pow(options_.beta2, static_cast<float>(t_));
  const float lr = options_.learning_rate * std::sqrt(bc2) / bc1;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    auto val = p.value.data();
    auto g = p.grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < val.size(); ++j) {
      const float grad = g[j] + options_.weight_decay * val[j];
      m[j] = options_.beta1 * m[j] + (1.0F - options_.beta1) * grad;
      v[j] = options_.beta2 * v[j] + (1.0F - options_.beta2) * grad * grad;
      val[j] -= lr * m[j] / (std::sqrt(v[j]) + options_.eps);
    }
  }
}

void Adam::save_state(BufferWriter& writer) const {
  writer.write_i64(t_);
  writer.write_u32(static_cast<std::uint32_t>(m_.size()));
  for (const Tensor& m : m_) encode_tensor(m, writer);
  for (const Tensor& v : v_) encode_tensor(v, writer);
}

void Adam::load_state(BufferReader& reader) {
  const std::int64_t t = reader.read_i64();
  if (t < 0) {
    throw SerializationError("Adam state: negative step count " +
                             std::to_string(t));
  }
  const std::uint32_t count = reader.read_u32();
  if (count != m_.size()) {
    throw SerializationError("Adam state: checkpoint has " +
                             std::to_string(count) + " moment buffers, " +
                             "optimizer has " + std::to_string(m_.size()));
  }
  std::vector<Tensor> m_loaded;
  std::vector<Tensor> v_loaded;
  m_loaded.reserve(count);
  v_loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Tensor m = decode_tensor(reader);
    if (m.shape() != params_[i]->value.shape()) {
      throw SerializationError(
          "Adam state: first moment " + std::to_string(i) +
          " expected shape " + params_[i]->value.shape().str() + ", got " +
          m.shape().str());
    }
    m_loaded.push_back(std::move(m));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    Tensor v = decode_tensor(reader);
    if (v.shape() != params_[i]->value.shape()) {
      throw SerializationError(
          "Adam state: second moment " + std::to_string(i) +
          " expected shape " + params_[i]->value.shape().str() + ", got " +
          v.shape().str());
    }
    v_loaded.push_back(std::move(v));
  }
  t_ = t;
  m_ = std::move(m_loaded);
  v_ = std::move(v_loaded);
}

}  // namespace splitmed::optim
