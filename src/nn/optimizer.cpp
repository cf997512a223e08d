#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/string_util.h"

namespace ecad::nn {

std::string_view to_string(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::Sgd: return "sgd";
    case OptimizerKind::Momentum: return "momentum";
    case OptimizerKind::Adam: return "adam";
  }
  return "?";
}

OptimizerKind optimizer_from_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "sgd") return OptimizerKind::Sgd;
  if (lower == "momentum") return OptimizerKind::Momentum;
  if (lower == "adam") return OptimizerKind::Adam;
  throw std::invalid_argument("optimizer_from_name: unknown optimizer '" + std::string(name) +
                              "'");
}

namespace {

class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(const OptimizerOptions& options) : options_(options) {}

  void step(std::size_t, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    const float lr = static_cast<float>(options_.learning_rate);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= lr * (grads[i] + wd * params[i]);
    }
  }

 private:
  OptimizerOptions options_;
};

class MomentumOptimizer final : public Optimizer {
 public:
  MomentumOptimizer(const OptimizerOptions& options, std::size_t num_slots)
      : options_(options), velocity_(num_slots) {}

  void step(std::size_t slot, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    auto& velocity = velocity_.at(slot);
    if (velocity.size() != params.size()) velocity.assign(params.size(), 0.0f);
    const float lr = static_cast<float>(options_.learning_rate);
    const float mu = static_cast<float>(options_.momentum);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    float* __restrict p = params.data();
    const float* __restrict grad = grads.data();
    float* __restrict v = velocity.data();
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grad[i] + wd * p[i];
      v[i] = mu * v[i] - lr * g;
      p[i] += v[i];
    }
  }

 private:
  OptimizerOptions options_;
  std::vector<std::vector<float>> velocity_;
};

class AdamOptimizer final : public Optimizer {
 public:
  AdamOptimizer(const OptimizerOptions& options, std::size_t num_slots)
      : options_(options), m_(num_slots), v_(num_slots) {
    update_bias_correction();
  }

  void step(std::size_t slot, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    auto& first = m_.at(slot);
    auto& second = v_.at(slot);
    if (first.size() != params.size()) {
      first.assign(params.size(), 0.0f);
      second.assign(params.size(), 0.0f);
    }
    const float b1 = static_cast<float>(options_.beta1);
    const float b2 = static_cast<float>(options_.beta2);
    const float one_minus_b1 = static_cast<float>(1.0 - options_.beta1);
    const float one_minus_b2 = static_cast<float>(1.0 - options_.beta2);
    const float bias1 = bias1_;
    const float bias2 = bias2_;
    const float lr = static_cast<float>(options_.learning_rate);
    const float eps = static_cast<float>(options_.epsilon);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    float* __restrict p = params.data();
    const float* __restrict grad = grads.data();
    float* __restrict m = first.data();
    float* __restrict v = second.data();
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grad[i] + wd * p[i];
      m[i] = b1 * m[i] + one_minus_b1 * g;
      v[i] = b2 * v[i] + one_minus_b2 * g * g;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }

  void advance() override {
    ++t_;
    update_bias_correction();
  }

 private:
  // 1 - beta^t, once per minibatch rather than per slot.
  void update_bias_correction() {
    const double t = static_cast<double>(t_);
    bias1_ = static_cast<float>(1.0 - std::pow(options_.beta1, t));
    bias2_ = static_cast<float>(1.0 - std::pow(options_.beta2, t));
  }

  OptimizerOptions options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::size_t t_ = 1;
  float bias1_ = 0.0f;
  float bias2_ = 0.0f;
};

}  // namespace

std::unique_ptr<Optimizer> make_optimizer(const OptimizerOptions& options, std::size_t num_slots) {
  switch (options.kind) {
    case OptimizerKind::Sgd: return std::make_unique<SgdOptimizer>(options);
    case OptimizerKind::Momentum: return std::make_unique<MomentumOptimizer>(options, num_slots);
    case OptimizerKind::Adam: return std::make_unique<AdamOptimizer>(options, num_slots);
  }
  throw std::logic_error("make_optimizer: unknown kind");
}

}  // namespace ecad::nn
