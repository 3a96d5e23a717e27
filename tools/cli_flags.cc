// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/cli_flags.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "base/check.h"
#include "nn/model_factory.h"

namespace skipnode {
namespace {

// Upper bounds on the flags that size a run: far past any experiment in this
// repo, and low enough that an accepted value cannot overflow the dataset
// generator's int-sized node and edge counts (kMaxNodes * kMaxAvgDegree / 2
// < 2^31) or ask for an allocation no machine can make. A typo like
// --hidden 2147483647 exits 1 with an error instead of aborting in a check
// or in operator new.
constexpr int kMaxLayers = 1024;
constexpr int kMaxHidden = 1 << 14;
constexpr int kMaxEpochs = 1'000'000;
constexpr int64_t kMaxNodes = int64_t{1} << 24;  // --nodes and @SIZE
constexpr double kMaxAvgDegree = 200.0;

// Parses all of `value` into `*target`: no leading whitespace or '+', no
// trailing characters, nothing outside T's range, and (for floating point)
// nothing non-finite. `*target` is untouched on failure.
template <typename T>
bool ParseNumber(const char* value, T* target) {
  const char* end = value + std::strlen(value);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  *target = parsed;
  return true;
}

template <typename T>
std::function<bool(const char*)> NumberSetter(T* target) {
  return [target](const char* value) { return ParseNumber(value, target); };
}

}  // namespace

void FlagParser::Add(std::string name, bool boolean, const char* expects,
                     std::function<bool(const char*)> set) {
  SKIPNODE_CHECK(Find(name) == nullptr);  // One registration per flag.
  flags_.push_back({std::move(name), boolean, expects, std::move(set)});
}

void FlagParser::AddString(const std::string& name, std::string* target) {
  Add(name, false, nullptr, [target](const char* value) {
    *target = value;
    return true;
  });
}

void FlagParser::AddInt(const std::string& name, int* target) {
  Add(name, false, "an integer", NumberSetter(target));
}

void FlagParser::AddInt64(const std::string& name, int64_t* target) {
  Add(name, false, "an integer", NumberSetter(target));
}

void FlagParser::AddUint64(const std::string& name, uint64_t* target) {
  Add(name, false, "a non-negative integer", NumberSetter(target));
}

void FlagParser::AddDouble(const std::string& name, double* target) {
  Add(name, false, "a number", NumberSetter(target));
}

void FlagParser::AddFloat(const std::string& name, float* target) {
  Add(name, false, "a number", NumberSetter(target));
}

void FlagParser::AddBool(const std::string& name, bool* target) {
  Add(name, true, nullptr, [target](const char*) {
    *target = true;
    return true;
  });
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagParser::Parse(int argc, const char* const* argv,
                       std::FILE* out) const {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    if (name == "--help") {
      std::fputs(usage_.c_str(), out);
      return false;
    }
    const Flag* flag = Find(name);
    if (flag != nullptr && flag->boolean) {
      flag->set(nullptr);
      continue;
    }
    // A trailing flag with no value reports missing-value even when the
    // name is unknown — the behaviour both hand-rolled parsers had.
    if (i + 1 >= argc) {
      std::fprintf(out, "error: flag %s needs a value\n", name.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == nullptr) {
      std::fprintf(out, "error: unknown flag %s (try --help)\n", name.c_str());
      return false;
    }
    if (!flag->set(value)) {
      std::fprintf(out, "error: flag %s expects %s, got '%s'\n", name.c_str(),
                   flag->expects, value);
      return false;
    }
  }
  return true;
}

void ModelDataFlags::RegisterOn(FlagParser* parser) {
  parser->AddString("--dataset", &dataset);
  parser->AddDouble("--scale", &scale);
  parser->AddUint64("--seed", &seed);
  parser->AddString("--model", &model);
  parser->AddInt("--layers", &layers);
  parser->AddInt("--hidden", &hidden);
  parser->AddFloat("--dropout", &dropout);
  parser->AddString("--strategy", &strategy);
  parser->AddFloat("--rate", &rate);
  parser->AddInt("--epochs", &epochs);
  parser->AddInt64("--nodes", &nodes);
  parser->AddDouble("--avg-degree", &avg_degree);
}

bool ModelDataFlags::Validate(std::FILE* out) const {
  if (layers < 2) {
    std::fprintf(out, "error: --layers must be >= 2\n");
    return false;
  }
  if (hidden < 1) {
    std::fprintf(out, "error: --hidden must be >= 1\n");
    return false;
  }
  const int gat_heads = ModelConfig{}.gat_heads;
  if (model == "GAT" && hidden % gat_heads != 0) {
    std::fprintf(out,
                 "error: --hidden must be a multiple of %d for GAT (one "
                 "slice per attention head)\n",
                 gat_heads);
    return false;
  }
  if (epochs < 0) {
    std::fprintf(out, "error: --epochs must be >= 0\n");
    return false;
  }
  if (layers > kMaxLayers || hidden > kMaxHidden || epochs > kMaxEpochs) {
    std::fprintf(out,
                 "error: --layers must be <= %d, --hidden <= %d and --epochs "
                 "<= %d\n",
                 kMaxLayers, kMaxHidden, kMaxEpochs);
    return false;
  }
  if (!(dropout >= 0.0f && dropout < 1.0f)) {
    std::fprintf(out, "error: --dropout must be in [0, 1)\n");
    return false;
  }
  return true;
}

bool ModelDataFlags::BuildGraph(std::unique_ptr<Graph>* graph,
                                std::FILE* out) const {
  DatasetRequest request;
  request.scale = scale;
  request.seed = seed;
  request.avg_degree = avg_degree;
  if (!ParseDatasetRequest(dataset, &request)) {
    std::fprintf(out, "error: bad dataset size suffix in '%s'\n",
                 dataset.c_str());
    return false;
  }
  if (nodes > 0) request.nodes = nodes;  // Explicit flag beats @SIZE.
  if (!DatasetRegistry::Global().Contains(request.name)) {
    std::fprintf(out, "error: unknown dataset '%s'\n", request.name.c_str());
    return false;
  }
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(out, "error: --scale must be in (0, 1]\n");
    return false;
  }
  if (nodes < 0 || avg_degree < 0.0) {
    std::fprintf(out, "error: --nodes/--avg-degree must be >= 0\n");
    return false;
  }
  if (request.nodes > kMaxNodes || avg_degree > kMaxAvgDegree) {
    std::fprintf(out,
                 "error: the node count (--nodes or @SIZE) must be <= %lld "
                 "and --avg-degree <= %g\n",
                 static_cast<long long>(kMaxNodes), kMaxAvgDegree);
    return false;
  }
  *graph = std::make_unique<Graph>(DatasetRegistry::Global().Build(request));
  return true;
}

bool MakeStrategyFromName(const std::string& name, float rate,
                          StrategyConfig* strategy, std::FILE* out) {
  // The drop samplers must keep part of the graph (SkipNode clamps its rho
  // into [0, 1] itself).
  if ((name == "dropedge" || name == "dropnode") && !(rate < 1.0f)) {
    std::fprintf(out, "error: --rate must be < 1 for strategy '%s'\n",
                 name.c_str());
    return false;
  }
  if (name == "none") {
    *strategy = StrategyConfig::None();
  } else if (name == "dropedge") {
    *strategy = StrategyConfig::DropEdge(rate);
  } else if (name == "dropnode") {
    *strategy = StrategyConfig::DropNode(rate);
  } else if (name == "pairnorm") {
    *strategy = StrategyConfig::PairNorm();
  } else if (name == "skipconn") {
    *strategy = StrategyConfig::SkipConnection();
  } else if (name == "skipnode-u") {
    *strategy = StrategyConfig::SkipNodeU(rate);
  } else if (name == "skipnode-b") {
    *strategy = StrategyConfig::SkipNodeB(rate);
  } else {
    std::fprintf(out, "error: unknown strategy '%s'\n", name.c_str());
    return false;
  }
  return true;
}

bool KnownModelName(const std::string& name) {
  for (const std::string& known : AllModelNames()) {
    if (known == name) return true;
  }
  return false;
}

}  // namespace skipnode
