// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/sampler.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/telemetry.h"
#include "sparse/csr_builder.h"

namespace skipnode {
namespace {

// Work units per entry of a block row's fill: its share of the replayed
// draw and of the row's renormalisation sums, and a local-id lookup.
constexpr int64_t kFillWorkPerEntry = 32;

// Statistically independent Rng seed for one (batch, layer, node) stream:
// distinct multipliers per coordinate, then the splitmix64 finalizer so
// adjacent node ids land far apart in seed space.
uint64_t RowStreamSeed(uint64_t batch_seed, int layer, int node) {
  uint64_t x = batch_seed +
               0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(layer) + 1) +
               0xd1b54a32d192ed03ULL * (static_cast<uint64_t>(node) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Entry index of row g's diagonal (Â = A + I always stores it; rows are
// column-sorted by CsrBuilder).
int64_t SelfEntry(const CsrMatrix& a, int g) {
  const std::vector<int>& cols = a.col_idx();
  const auto begin = cols.begin() + a.RowBegin(g);
  const auto end = cols.begin() + a.RowEnd(g);
  const auto it = std::lower_bound(begin, end, g);
  SKIPNODE_CHECK(it != end && *it == g);
  return it - cols.begin();
}

// Replays one dst row's neighbor draw. Selection is a pure function of
// (batch_seed, layer, node): the serial frontier walk and the parallel fill
// pass construct their own selector and get identical entries, which is the
// whole replay trick — no per-row edge list survives between the passes.
class RowSelector {
 public:
  RowSelector(const CsrMatrix& a, uint64_t batch_seed, int layer, int fanout)
      : a_(a), batch_seed_(batch_seed), layer_(layer), fanout_(fanout) {}

  // Selects min(fanout, degree) non-self entries of row g. After the call,
  // entries() holds their absolute indices into the adjacency arrays in
  // ascending (column) order and self_entry() the diagonal's index.
  void Select(int g) {
    entries_.clear();
    const int64_t begin = a_.RowBegin(g);
    const int64_t end = a_.RowEnd(g);
    self_entry_ = SelfEntry(a_, g);
    const int m = static_cast<int>(end - begin) - 1;  // Non-self entries.
    const int k = std::min(fanout_, m);
    if (k == m) {
      // The whole neighborhood fits: no draw, no Rng, exact row.
      for (int64_t e = begin; e < end; ++e) {
        if (e != self_entry_) entries_.push_back(e);
      }
      return;
    }
    // Floyd's k-of-m without replacement: O(k^2), no O(m) scratch. Offsets
    // index the row with the diagonal spliced out.
    Rng rng(RowStreamSeed(batch_seed_, layer_, g));
    rel_.clear();
    for (int j = m - k; j < m; ++j) {
      const int t =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(j) + 1));
      const bool taken = std::find(rel_.begin(), rel_.end(), t) != rel_.end();
      rel_.push_back(taken ? j : t);
    }
    // Ascending column order, so downstream sums and the first-appearance
    // local-id assignment are independent of the draw order.
    std::sort(rel_.begin(), rel_.end());
    for (const int r : rel_) {
      const int64_t e = begin + r;
      entries_.push_back(e < self_entry_ ? e : e + 1);
    }
  }

  const std::vector<int64_t>& entries() const { return entries_; }
  int64_t self_entry() const { return self_entry_; }

 private:
  const CsrMatrix& a_;
  const uint64_t batch_seed_;
  const int layer_;
  const int fanout_;
  int64_t self_entry_ = -1;
  std::vector<int64_t> entries_;
  std::vector<int> rel_;
};

}  // namespace

NeighborSampler::NeighborSampler(const Graph& graph, SamplerConfig config)
    : graph_(graph),
      config_(std::move(config)),
      adjacency_(graph.normalized_adjacency()) {
  SKIPNODE_CHECK(!config_.fanouts.empty());
  for (const int fanout : config_.fanouts) SKIPNODE_CHECK(fanout >= 1);
  local_id_.assign(static_cast<size_t>(graph.num_nodes()), -1);
  stamp_.assign(static_cast<size_t>(graph.num_nodes()), 0u);
}

int64_t NeighborSampler::MemoryFootprintBytes() const {
  return static_cast<int64_t>(local_id_.capacity()) * sizeof(int) +
         static_cast<int64_t>(stamp_.capacity()) * sizeof(uint32_t);
}

SampledBatch NeighborSampler::SampleBlocks(
    const std::vector<int>& seeds, uint64_t batch_seed,
    const LayerSkipMaskFn& skip_mask_fn) {
  const ScopedTimer timer("sampler.sample");
  const int num_layers = static_cast<int>(config_.fanouts.size());
  SKIPNODE_CHECK(!seeds.empty());
  const CsrMatrix& a = *adjacency_;

  // Fresh generation: the stamped map makes batch start O(|seeds|), not
  // O(N). On the (astronomically rare) wrap the stamps are scrubbed.
  if (++generation_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    generation_ = 1;
  }

  SampledBatch batch;
  batch.seeds = seeds;
  batch.layers.resize(static_cast<size_t>(num_layers));
  std::vector<int> frontier;
  frontier.reserve(seeds.size());
  for (const int seed : seeds) {
    SKIPNODE_CHECK(seed >= 0 && seed < graph_.num_nodes());
    SKIPNODE_CHECK_MSG(LocalId(seed) < 0, "duplicate seed in batch");
    Assign(seed, frontier);
  }

  // Top layer first: layer l's src frontier is layer l-1's dst frontier.
  for (int layer = num_layers - 1; layer >= 0; --layer) {
    const int fanout = config_.fanouts[static_cast<size_t>(layer)];
    const int num_dst = static_cast<int>(frontier.size());

    // Skip mask over the dst frontier, drawn BEFORE any neighbor fetch —
    // a masked row passes through unconvolved, so it expands nothing.
    std::vector<uint8_t> mask;
    if (skip_mask_fn) {
      mask = skip_mask_fn(layer, frontier);
      SKIPNODE_CHECK(mask.empty() ||
                     static_cast<int>(mask.size()) == num_dst);
    }

    // Serial frontier walk: replay each unmasked row's draw to assign local
    // ids in first-appearance order and build the 64-bit per-row entry
    // prefix (self + selected). No edge vector: the draw is replayed again
    // by the fill pass below.
    std::vector<int64_t> entry_prefix(static_cast<size_t>(num_dst) + 1, 0);
    RowSelector walk(a, batch_seed, layer, fanout);
    for (int i = 0; i < num_dst; ++i) {
      const int g = frontier[static_cast<size_t>(i)];
      int64_t count = 1;  // Self entry, always present.
      if (!mask.empty() && mask[static_cast<size_t>(i)]) {
        ++batch.nodes_pruned;
        batch.edges_pruned +=
            std::min<int64_t>(fanout, a.RowNnz(g) - 1);
      } else {
        walk.Select(g);
        for (const int64_t e : walk.entries()) {
          const int col = a.col_idx()[static_cast<size_t>(e)];
          if (LocalId(col) < 0) Assign(col, frontier);
        }
        count += static_cast<int64_t>(walk.entries().size());
      }
      entry_prefix[static_cast<size_t>(i) + 1] =
          entry_prefix[static_cast<size_t>(i)] + count;
    }
    const int num_src = static_cast<int>(frontier.size());

    // Stream the block through CsrBuilder. Counting is analytic (the walk
    // already knows each row's entry count), and the fill pass fans out
    // row-parallel: every dst row replays its own stream into its own CSR
    // segment, so the block is bitwise identical at any thread count
    // (DESIGN §7 — rows are owned, the map is read-only by now).
    CsrBuilder builder(num_dst, num_src);
    for (int i = 0; i < num_dst; ++i) {
      const int64_t count = entry_prefix[static_cast<size_t>(i) + 1] -
                            entry_prefix[static_cast<size_t>(i)];
      for (int64_t c = 0; c < count; ++c) builder.CountEntry(i);
    }
    builder.FinishCounting();
    builder.BeginRowFill();
    ParallelForBalanced(
        num_dst, entry_prefix.data(),
        [&](int64_t row_begin, int64_t row_end) {
          RowSelector fill(a, batch_seed, layer, fanout);
          std::vector<int> row_cols;
          std::vector<float> row_vals;
          const std::vector<float>& vals = a.values();
          for (int64_t i = row_begin; i < row_end; ++i) {
            const int g = frontier[static_cast<size_t>(i)];
            row_cols.clear();
            row_vals.clear();
            if (!mask.empty() && mask[static_cast<size_t>(i)]) {
              // Pruned row: bare self entry. The masked kernels never read
              // it; the value is kept only so the unfused SpMM + RowSelect
              // path stays shape-valid.
              row_cols.push_back(static_cast<int>(i));
              row_vals.push_back(
                  vals[static_cast<size_t>(SelfEntry(a, g))]);
            } else {
              fill.Select(g);
              const int64_t begin = a.RowBegin(g);
              const int64_t end = a.RowEnd(g);
              const int m = static_cast<int>(end - begin) - 1;
              const int k = static_cast<int>(fill.entries().size());
              // Renormalise to preserve the Â row sum. Both sums accumulate
              // in double over ascending entry order — a pure function of
              // the selection — and a full-neighborhood row keeps scale 1
              // exactly (the block row is then a verbatim Â slice).
              double scale = 1.0;
              if (k < m) {
                double full = 0.0;
                for (int64_t e = begin; e < end; ++e) {
                  full += vals[static_cast<size_t>(e)];
                }
                double kept = vals[static_cast<size_t>(fill.self_entry())];
                for (const int64_t e : fill.entries()) {
                  kept += vals[static_cast<size_t>(e)];
                }
                if (kept > 0.0) scale = full / kept;
              }
              row_cols.push_back(static_cast<int>(i));
              row_vals.push_back(static_cast<float>(
                  vals[static_cast<size_t>(fill.self_entry())] * scale));
              for (const int64_t e : fill.entries()) {
                const int local =
                    LocalId(a.col_idx()[static_cast<size_t>(e)]);
                row_cols.push_back(local);
                row_vals.push_back(static_cast<float>(
                    vals[static_cast<size_t>(e)] * scale));
              }
            }
            builder.AddRowEntries(static_cast<int>(i), row_cols.data(),
                                  row_vals.data(),
                                  static_cast<int>(row_cols.size()));
          }
        },
        /*work_per_cost=*/kFillWorkPerEntry);

    SampledLayer& out = batch.layers[static_cast<size_t>(layer)];
    out.block = std::make_shared<const CsrMatrix>(builder.Build());
    out.skip_mask = std::move(mask);
  }

  batch.input_nodes = std::move(frontier);
  if (batch.nodes_pruned > 0) {
    CountMetric("sampler.nodes_pruned", batch.nodes_pruned);
  }
  if (batch.edges_pruned > 0) {
    CountMetric("sampler.edges_pruned", batch.edges_pruned);
  }
  return batch;
}

}  // namespace skipnode
