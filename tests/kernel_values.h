// kernel_values.h — the value form of a KernelBackend `_into` op.
//
// The library's kernels write only into caller-bound destinations. Tests
// compare whole results, so value_of hands an op a fresh destination and
// returns it:
//
//   value_of(backend, &KernelBackend::conv2d_into,
//            QTensor(out_shape, out_params), in, layer, w, wparams, bias)
//
// The destination carries the output shape and, for a quantized op, the
// output params, exactly as the op's `_into` contract reads them.
#pragma once

#include <utility>

#include "nn/ops/backend.h"

namespace qmcu::test {

template <class Op, class Out, class... Args>
Out value_of(nn::ops::KernelBackend& backend, Op op, Out out,
             Args&&... args) {
  (backend.*op)(std::forward<Args>(args)..., out);
  return out;
}

}  // namespace qmcu::test
