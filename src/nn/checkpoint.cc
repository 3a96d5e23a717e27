// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Crash-safety scheme: every save stages a complete checkpoint into a fresh
// `gen-NNNNNN.tmp` subdirectory, renames it to `gen-NNNNNN` once all files
// are on disk, and then commits by atomically renaming `manifest.txt.tmp`
// over `manifest.txt`. The manifest's first line names the live generation,
// so readers never observe a half-written set: until the manifest rename
// lands, they keep loading the previous generation, whose files the save
// path never touches. Older generations are garbage-collected only after a
// successful commit.

#include "nn/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/io.h"

namespace skipnode {
namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "manifest.txt";
constexpr char kGenerationKeyword[] = "generation";

// Parsed manifest: the generation subdirectory ("" for legacy checkpoints
// whose CSVs sit at the top level) plus name -> (rows, cols).
struct Manifest {
  std::string generation;
  std::map<std::string, std::pair<int, int>> shapes;
};

bool ReadManifest(const fs::path& directory, Manifest* manifest) {
  std::ifstream in(directory / kManifestName);
  if (!in) return false;
  manifest->generation.clear();
  manifest->shapes.clear();
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream tokens(line);
    if (first) {
      first = false;
      std::string keyword;
      tokens >> keyword;
      if (keyword == kGenerationKeyword) {
        if (!(tokens >> manifest->generation) ||
            manifest->generation.empty()) {
          return false;
        }
        continue;
      }
      tokens.clear();
      tokens.seekg(0);
    }
    std::string name;
    int rows = 0, cols = 0;
    if (!(tokens >> name >> rows >> cols)) return false;
    if (rows <= 0 || cols <= 0) return false;
    if (!manifest->shapes.emplace(name, std::make_pair(rows, cols)).second) {
      return false;  // Duplicate entry.
    }
  }
  return !manifest->shapes.empty();
}

// Picks the staging generation name: one past the committed generation's
// counter (gen-000001 for a fresh directory). Deterministic — no clocks.
std::string NextGenerationName(const fs::path& directory) {
  Manifest current;
  int counter = 0;
  if (ReadManifest(directory, &current)) {
    std::sscanf(current.generation.c_str(), "gen-%d", &counter);
  }
  char name[32];
  std::snprintf(name, sizeof(name), "gen-%06d", counter + 1);
  return name;
}

// Best-effort removal of every stale generation / staging dir except
// `keep`. Failures are ignored: orphans are re-collected by the next save.
void CollectGarbage(const fs::path& directory, const std::string& keep) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    const bool is_generation = name.rfind("gen-", 0) == 0;
    const bool is_manifest_tmp =
        name == std::string(kManifestName) + ".tmp";
    if ((is_generation && name != keep) || is_manifest_tmp) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

}  // namespace

bool ReadCheckpointManifest(const std::string& directory,
                            std::vector<CheckpointEntry>* entries) {
  Manifest manifest;
  if (!ReadManifest(fs::path(directory), &manifest)) return false;
  entries->clear();
  entries->reserve(manifest.shapes.size());
  for (const auto& [name, shape] : manifest.shapes) {
    entries->push_back({name, shape.first, shape.second});
  }
  return true;
}

bool SaveModelParameters(Model& model, const std::string& directory) {
  std::error_code ec;
  const fs::path dir(directory);
  if (!fs::is_directory(dir, ec)) {
    fs::create_directory(dir, ec);
    if (ec) return false;
  }

  const std::string generation = NextGenerationName(dir);
  const fs::path staging = dir / (generation + ".tmp");
  fs::remove_all(staging, ec);  // A crashed save may have left one behind.
  ec.clear();
  fs::create_directory(staging, ec);
  if (ec) return false;

  // Stage every parameter file plus the manifest body.
  std::ostringstream manifest_body;
  manifest_body << kGenerationKeyword << ' ' << generation << '\n';
  for (Parameter* param : model.Parameters()) {
    if (!SaveMatrixCsv((staging / (param->name + ".csv")).string(),
                       param->value)) {
      fs::remove_all(staging, ec);
      return false;
    }
    manifest_body << param->name << ' ' << param->value.rows() << ' '
                  << param->value.cols() << '\n';
  }
  fs::rename(staging, dir / generation, ec);
  if (ec) {
    fs::remove_all(staging, ec);
    return false;
  }

  // Commit: the atomic manifest rename flips readers to the new generation.
  const fs::path manifest_tmp = dir / (std::string(kManifestName) + ".tmp");
  {
    std::ofstream manifest(manifest_tmp);
    manifest << manifest_body.str();
    manifest.flush();
    if (!manifest) {
      fs::remove(manifest_tmp, ec);
      fs::remove_all(dir / generation, ec);
      return false;
    }
  }
  fs::rename(manifest_tmp, dir / kManifestName, ec);
  if (ec) {
    fs::remove(manifest_tmp, ec);
    fs::remove_all(dir / generation, ec);
    return false;
  }
  CollectGarbage(dir, generation);
  return true;
}

bool LoadModelParameters(Model& model, const std::string& directory) {
  const fs::path dir(directory);
  Manifest manifest;
  if (!ReadManifest(dir, &manifest)) return false;
  const fs::path base =
      manifest.generation.empty() ? dir : dir / manifest.generation;

  // Stage everything first; the model is committed only after the full
  // parameter set validated against the manifest.
  const std::vector<Parameter*> parameters = model.Parameters();
  std::vector<Matrix> staged;
  staged.reserve(parameters.size());
  for (const Parameter* param : parameters) {
    const auto entry = manifest.shapes.find(param->name);
    if (entry == manifest.shapes.end()) return false;
    if (entry->second.first != param->value.rows() ||
        entry->second.second != param->value.cols()) {
      return false;
    }
    Matrix loaded;
    if (!LoadMatrixCsv((base / (param->name + ".csv")).string(), &loaded)) {
      return false;
    }
    if (loaded.rows() != entry->second.first ||
        loaded.cols() != entry->second.second) {
      return false;  // File disagrees with its manifest row/col counts.
    }
    staged.push_back(std::move(loaded));
  }
  for (size_t i = 0; i < parameters.size(); ++i) {
    parameters[i]->value = std::move(staged[i]);
  }
  return true;
}

}  // namespace skipnode
