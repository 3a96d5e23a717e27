// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared flag-parsing substrate for the skipnode_train / skipnode_serve
// CLIs. FlagParser maps --flag names to typed targets (numeric values must
// parse completely and fit the target type, boolean flags take no value,
// --help prints usage, malformed-value, missing-value and unknown-flag
// errors); ModelDataFlags bundles the model/dataset flags both CLIs share,
// including their range checks and dataset resolution through
// DatasetRegistry with the @SIZE / --nodes / --avg-degree size overrides
// (DESIGN §13).

#ifndef SKIPNODE_TOOLS_CLI_FLAGS_H_
#define SKIPNODE_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "graph/datasets.h"

namespace skipnode {

class FlagParser {
 public:
  explicit FlagParser(std::string usage) : usage_(std::move(usage)) {}

  void AddString(const std::string& name, std::string* target);
  void AddInt(const std::string& name, int* target);
  void AddInt64(const std::string& name, int64_t* target);
  void AddUint64(const std::string& name, uint64_t* target);
  void AddDouble(const std::string& name, double* target);
  void AddFloat(const std::string& name, float* target);
  // Boolean flag: takes no value; seeing it sets *target = true.
  void AddBool(const std::string& name, bool* target);

  // Parses argv. Returns false after printing the usage (--help), a
  // missing-value error, an unknown-flag error, or a malformed numeric value
  // ("error: flag --hidden expects an integer, got 'abc'"); callers exit 1.
  bool Parse(int argc, const char* const* argv, std::FILE* out) const;

 private:
  struct Flag {
    std::string name;
    bool boolean;
    // What a value must look like ("an integer", "a number"), for the
    // malformed-value error; set returns false when the value is not that.
    // nullptr for string and boolean flags, whose set never fails.
    const char* expects;
    std::function<bool(const char*)> set;
  };
  void Add(std::string name, bool boolean, const char* expects,
           std::function<bool(const char*)> set);
  const Flag* Find(const std::string& name) const;

  std::string usage_;
  std::vector<Flag> flags_;
};

// The model/data flag set both CLIs share. Construct, adjust the per-CLI
// defaults (serve: model "SGC", epochs 50, dataset "cora_like"), call
// RegisterOn, parse, then BuildGraph.
struct ModelDataFlags {
  std::string dataset;  // Registry name, optionally with an @SIZE suffix.
  double scale = 1.0;
  uint64_t seed = 1;
  std::string model = "GCN";
  int layers = 2;
  int hidden = 64;
  float dropout = 0.5f;
  std::string strategy = "none";
  float rate = 0.5f;
  int epochs = 200;
  // Size overrides: either switches the dataset to the streaming CSR path.
  int64_t nodes = 0;        // --nodes: node-count override (0 = spec size).
  double avg_degree = 0.0;  // --avg-degree: average degree (0 = spec ratio).

  // Registers --dataset --scale --seed --model --layers --hidden --dropout
  // --strategy --rate --epochs --nodes --avg-degree on `parser`.
  void RegisterOn(FlagParser* parser);

  // Rejects the values the model and trainer would abort on: --layers
  // outside [2, 1024], --hidden outside [1, 16384] (or, for GAT, not a
  // multiple of the head count), --epochs outside [0, 10^6], --dropout
  // outside [0, 1). False, with an error line on `out`; both CLIs call it
  // right after parsing.
  bool Validate(std::FILE* out) const;

  // Resolves `dataset` (name or name@SIZE; an explicit --nodes beats the
  // suffix) through DatasetRegistry::Global(). False, with the usual error
  // message, on a malformed suffix, unknown name, out-of-range --scale, or a
  // node count past 2^24 / --avg-degree past 200.
  bool BuildGraph(std::unique_ptr<Graph>* graph, std::FILE* out) const;
};

// Shared name -> StrategyConfig resolution; false (with message) on unknown
// names or a --rate the strategy cannot sample with.
bool MakeStrategyFromName(const std::string& name, float rate,
                          StrategyConfig* strategy, std::FILE* out);

// True when `name` is one of AllModelNames().
bool KnownModelName(const std::string& name);

}  // namespace skipnode

#endif  // SKIPNODE_TOOLS_CLI_FLAGS_H_
