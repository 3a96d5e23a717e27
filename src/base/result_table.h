// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Result-table builder used by the benchmark harness: collects rows of
// string cells and emits them in either supported format through one API —
// column-aligned text for the terminal and CSV for post-processing. Bench
// JSONL records go through bench::CellRecorder, not this table.

#ifndef SKIPNODE_BASE_RESULT_TABLE_H_
#define SKIPNODE_BASE_RESULT_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace skipnode {

enum class TableFormat {
  kText,   // column-aligned, human-readable
  kCsv,    // header + comma-separated rows
};

class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> columns);

  // Appends a row; must have exactly one cell per column. When streaming
  // (see StreamTo) the row is also printed immediately.
  void AddRow(std::vector<std::string> cells);

  // Formats a double with fixed precision (helper for AddRow callers).
  static std::string Cell(double value, int precision = 1);

  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  // Live mode for long-running benches: prints the header now and every
  // subsequent AddRow as it lands (text format, fixed-width columns), so
  // progress stays visible without per-bench printf formatting.
  void StreamTo(std::FILE* out);

  // Writes the whole table in `format` to `out`.
  void Emit(TableFormat format, std::FILE* out = stdout) const;

  // Writes the whole table in `format` to `path`; false on I/O failure.
  bool EmitToFile(TableFormat format, const std::string& path) const;

 private:
  void EmitText(std::FILE* out) const;
  void EmitCsv(std::FILE* out) const;
  void PrintStreamRow(const std::vector<std::string>& cells) const;

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::FILE* stream_ = nullptr;
  std::vector<int> stream_widths_;
};

}  // namespace skipnode

#endif  // SKIPNODE_BASE_RESULT_TABLE_H_
