// Adaptive algorithm library — the second pillar of the PEPPHER framework
// ("adaptive algorithm libraries that implement the same basic
// functionality across different architectures", §I; cf. the SkePU
// skeleton work the same group built on this runtime [17]).
//
// Five data-parallel skeletons ship as pre-PEPPHERized components, each
// with serial CPU, OpenMP and CUDA implementation variants and cost hints,
// so applications get performance-aware execution of the common building
// blocks without writing any variants themselves:
//
//   map      y[i] = f(x[i], c)                        component "skel_map"
//   zip      z[i] = f(x[i], y[i])                     component "skel_zip"
//   reduce   r    = x[0] op x[1] op ...               component "skel_reduce"
//   scan     y[i] = x[0] op ... op x[i]  (inclusive)  component "skel_scan"
//   sort     ascending in place                       component "skel_sort"
//
// User functions are passed as plain function pointers (they execute on
// every simulated device); the helpers below wrap container handles and
// argument packing, and submit asynchronously so skeleton calls chain
// through inferred dependencies like any other component calls.
#pragma once

#include <cstdint>

#include "containers/containers.hpp"
#include "runtime/engine.hpp"

namespace peppher::lib {

/// Element-wise user function for map: f(element, constant).
using MapFn = float (*)(float, float);
/// Element-wise combiner for zip / associative operator for reduce & scan.
using BinFn = float (*)(float, float);

/// Registers the five skeleton components with the global component
/// registry. Idempotent; called implicitly by the helpers below.
void register_components();

/// y = f(x, c), element-wise. Asynchronous: returns the task.
rt::TaskPtr map(cont::Vector<float>& x, cont::Vector<float>& y, MapFn f,
                float c = 0.0f);

/// z = f(x, y), element-wise. Asynchronous.
rt::TaskPtr zip(cont::Vector<float>& x, cont::Vector<float>& y,
                cont::Vector<float>& z, BinFn f);

/// out = x[0] op x[1] op ... op x[n-1]. `identity` seeds the fold (0 for
/// plus, 1 for times, ...). op must be associative (parallel variants
/// re-associate): the OpenMP variant folds each chunk of its team's split
/// (peppher::chunk_range) from `identity` and combines the partials in
/// chunk order, so one input always gives one bit pattern. Asynchronous;
/// read `out.get()` to synchronise.
rt::TaskPtr reduce(cont::Vector<float>& x, cont::Scalar<float>& out, BinFn op,
                   float identity = 0.0f);

/// Inclusive prefix: y[i] = x[0] op ... op x[i]. Asynchronous.
rt::TaskPtr scan(cont::Vector<float>& x, cont::Vector<float>& y, BinFn op);

/// Sorts x ascending, in place. Asynchronous.
rt::TaskPtr sort(cont::Vector<float>& x);

}  // namespace peppher::lib
