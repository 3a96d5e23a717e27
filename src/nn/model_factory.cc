// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/model_factory.h"

#include "base/check.h"
#include "nn/appnp.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/gcnii.h"
#include "nn/gprgnn.h"
#include "nn/grand.h"
#include "nn/incepgcn.h"
#include "nn/jknet.h"
#include "nn/sgc.h"

namespace skipnode {

std::unique_ptr<Model> MakeModel(const std::string& name,
                                 const ModelConfig& config, Rng& rng) {
  if (name == "GCN") return std::make_unique<GcnModel>(config, rng);
  if (name == "GAT") return std::make_unique<GatModel>(config, rng);
  if (name == "ResGCN") {
    return std::make_unique<GcnModel>(config, rng, /*residual=*/true,
                                      "ResGCN");
  }
  if (name == "JKNet") return std::make_unique<JkNetModel>(config, rng);
  if (name == "IncepGCN") return std::make_unique<IncepGcnModel>(config, rng);
  if (name == "GCNII") return std::make_unique<GcniiModel>(config, rng);
  if (name == "APPNP") return std::make_unique<AppnpModel>(config, rng);
  if (name == "GPRGNN") return std::make_unique<GprGnnModel>(config, rng);
  if (name == "GRAND") return std::make_unique<GrandModel>(config, rng);
  if (name == "SGC") return std::make_unique<SgcModel>(config, rng);
  SKIPNODE_CHECK_MSG(false, "unknown model '%s'", name.c_str());
  __builtin_unreachable();
}

const std::vector<std::string>& AllModelNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{"GCN",      "GAT",   "ResGCN",
                                   "JKNet",    "IncepGCN", "GCNII",
                                   "APPNP",    "GPRGNN",   "GRAND",
                                   "SGC"};
  return *kNames;
}

}  // namespace skipnode
