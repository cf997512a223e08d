// Activation functions — one of the NNA traits the evolutionary search
// mutates (paper §III-A: "number of layers, layer size, activation function,
// and bias").
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "linalg/matrix.h"

namespace ecad::nn {

enum class Activation { ReLU, Sigmoid, Tanh, LeakyReLU, Elu, Identity };

/// All activations the search space may select for hidden layers.
inline constexpr Activation kSearchableActivations[] = {
    Activation::ReLU, Activation::Sigmoid, Activation::Tanh, Activation::LeakyReLU,
    Activation::Elu};

std::string_view to_string(Activation activation);

/// Parse "relu", "sigmoid", ... Throws std::invalid_argument.
Activation activation_from_name(std::string_view name);

/// y = f(z), elementwise.  `y` may alias `z`.
void apply_activation(Activation activation, const linalg::Matrix& z, linalg::Matrix& y);

/// delta *= f'(z), elementwise, given the pre-activation `z` and the
/// activation `a` that apply_activation computed from it. Sigmoid and Tanh
/// take the derivative from `a`; the other activations read `z`.
void apply_activation_gradient(Activation activation, const linalg::Matrix& z,
                               const linalg::Matrix& a, linalg::Matrix& delta);

/// Scalar forward. Sigmoid, Tanh and ELU run through the same kernels as
/// apply_activation, so the two agree bit for bit.
float activate_scalar(Activation activation, float z);

/// out[i] = exp(in[i]) for i < n. The results are those of glibc 2.36's
/// expf as built with FMA, on every host and ISA. `out` may alias `in`.
void exp_array(const float* in, float* out, std::size_t n);

/// Row-wise softmax (numerically stabilized), exponentiating through
/// exp_array. `y` may alias `z`.
void softmax_rows(const linalg::Matrix& z, linalg::Matrix& y);

}  // namespace ecad::nn
