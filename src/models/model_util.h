#ifndef MGBR_MODELS_MODEL_UTIL_H_
#define MGBR_MODELS_MODEL_UTIL_H_

#include "tensor/ops.h"

namespace mgbr {

/// Appends `extra`'s elements to `params`.
inline void AppendParams(std::vector<Var>* params, std::vector<Var> extra) {
  for (Var& p : extra) params->push_back(std::move(p));
}

}  // namespace mgbr

#endif  // MGBR_MODELS_MODEL_UTIL_H_
