// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Model checkpointing: saves every Parameter to CSV files (one file per
// parameter plus a manifest listing name + shape) and restores them by
// name. Parameter names double as file names, so checkpoints are
// human-inspectable and survive refactors as long as names are stable.
//
// Both directions are crash-safe:
//   * Save stages the whole checkpoint into a fresh `gen-NNNNNN.tmp`
//     subdirectory and commits it by atomically renaming the manifest, so an
//     interrupted save never clobbers a previous valid checkpoint — readers
//     keep seeing the old generation until the commit rename lands.
//   * Load is transactional: every matrix is read and validated against the
//     manifest's names and row/col counts first, and the model is updated
//     only after the entire set passed — a failed load leaves the model
//     exactly as it was.

#ifndef SKIPNODE_NN_CHECKPOINT_H_
#define SKIPNODE_NN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "nn/model.h"

namespace skipnode {

// One manifest line of the live generation: parameter name + shape.
struct CheckpointEntry {
  std::string name;
  int rows = 0;
  int cols = 0;
};

// Reads `<directory>/manifest.txt` and returns the live generation's
// parameter list (sorted by name). Returns false when the directory holds
// no valid checkpoint. Lets callers (serve/frozen_model.cc) validate a
// checkpoint's architecture before loading it into a model.
bool ReadCheckpointManifest(const std::string& directory,
                            std::vector<CheckpointEntry>* entries);

// Writes `<directory>/<param-name>.csv` for every parameter and a
// `<directory>/manifest.txt` listing `name rows cols` per line. The
// directory is created if missing (its parent must exist); an existing
// checkpoint at `directory` is replaced atomically. Returns false on any
// I/O failure, in which case the previous checkpoint (if any) is intact.
bool SaveModelParameters(Model& model, const std::string& directory);

// Restores parameters from a directory written by SaveModelParameters.
// Every parameter of `model` must appear in the manifest with a matching
// shape and load back with exactly that shape; otherwise returns false and
// the model is untouched (no partially-loaded state).
bool LoadModelParameters(Model& model, const std::string& directory);

}  // namespace skipnode

#endif  // SKIPNODE_NN_CHECKPOINT_H_
