// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/result_table.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace skipnode {

ResultTable::ResultTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  SKIPNODE_CHECK(!columns_.empty());
}

void ResultTable::AddRow(std::vector<std::string> cells) {
  SKIPNODE_CHECK(cells.size() == columns_.size());
  if (stream_ != nullptr) PrintStreamRow(cells);
  rows_.push_back(std::move(cells));
}

std::string ResultTable::Cell(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

void ResultTable::StreamTo(std::FILE* out) {
  stream_ = out;
  stream_widths_.clear();
  for (const std::string& column : columns_) {
    // Fixed widths chosen up front: wide enough for the header and typical
    // numeric cells. Oversized cells overflow their column but stay on one
    // row.
    stream_widths_.push_back(
        std::max(static_cast<int>(column.size()), 9));
  }
  PrintStreamRow(columns_);
}

void ResultTable::PrintStreamRow(const std::vector<std::string>& cells) const {
  for (size_t c = 0; c < cells.size(); ++c) {
    std::fprintf(stream_, "%s%-*s", c == 0 ? "" : "  ", stream_widths_[c],
                 cells[c].c_str());
  }
  std::fprintf(stream_, "\n");
  std::fflush(stream_);
}

void ResultTable::Emit(TableFormat format, std::FILE* out) const {
  switch (format) {
    case TableFormat::kText:
      EmitText(out);
      return;
    case TableFormat::kCsv:
      EmitCsv(out);
      return;
  }
}

bool ResultTable::EmitToFile(TableFormat format,
                             const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Emit(format, out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

void ResultTable::EmitText(std::FILE* out) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      std::fprintf(out, "%s%-*s", c == 0 ? "" : "  ",
                   static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(columns_);
  for (const auto& row : rows_) print_row(row);
}

void ResultTable::EmitCsv(std::FILE* out) const {
  const auto write_row = [out](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) std::fputc(',', out);
      std::fputs(cells[c].c_str(), out);
    }
    std::fputc('\n', out);
  };
  write_row(columns_);
  for (const auto& row : rows_) write_row(row);
}

}  // namespace skipnode
