// kernel_values.h — the value form of an `_into` kernel.
//
// The library's kernels write only into caller-bound destinations. Tests
// compare whole results, so value_of hands an op a fresh destination and
// returns it. A KernelBackend op:
//
//   value_of(backend, &KernelBackend::conv2d_into,
//            QTensor(out_shape, out_params), in, layer, w, wparams, bias)
//
// or a free kernel function (the Reference loop nests of int8_kernels.h and
// float_kernels.h):
//
//   value_of(ops::max_pool_q_into, QTensor(out_shape, in.params()), in, l)
//
// The destination carries the output shape and, for a quantized op, the
// output params, exactly as the op's `_into` contract reads them.
#pragma once

#include <concepts>
#include <utility>

#include "nn/ops/backend.h"

namespace qmcu::test {

template <class Op, class Out, class... Args>
Out value_of(nn::ops::KernelBackend& backend, Op op, Out out,
             Args&&... args) {
  (backend.*op)(std::forward<Args>(args)..., out);
  return out;
}

template <class Op, class Out, class... Args>
  requires std::invocable<Op&, Args..., Out&>
Out value_of(Op op, Out out, Args&&... args) {
  op(std::forward<Args>(args)..., out);
  return out;
}

}  // namespace qmcu::test
