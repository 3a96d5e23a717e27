// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/result_table.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace skipnode {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(ResultTableTest, TracksShape) {
  ResultTable table({"name", "acc"});
  EXPECT_EQ(table.num_columns(), 2);
  EXPECT_EQ(table.num_rows(), 0);
  table.AddRow({"GCN", "86.1"});
  table.AddRow({"SkipNode", "89.7"});
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(ResultTableTest, CellFormatsPrecision) {
  EXPECT_EQ(ResultTable::Cell(86.125, 1), "86.1");
  EXPECT_EQ(ResultTable::Cell(86.125, 3), "86.125");
  EXPECT_EQ(ResultTable::Cell(-0.5, 2), "-0.50");
}

TEST(ResultTableTest, EmitTextAlignsColumns) {
  ResultTable table({"a", "long_column"});
  table.AddRow({"wide_cell", "1"});
  const std::string path = ::testing::TempDir() + "/table_text.txt";
  ASSERT_TRUE(table.EmitToFile(TableFormat::kText, path));

  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  // Both lines pad the first column to the widest cell ("wide_cell").
  EXPECT_EQ(header.find("long_column"), row.find("1"));
}

TEST(ResultTableTest, EmitCsvRoundTrip) {
  ResultTable table({"x", "y"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4.5"});
  const std::string path = ::testing::TempDir() + "/table.csv";
  ASSERT_TRUE(table.EmitToFile(TableFormat::kCsv, path));
  EXPECT_EQ(ReadFile(path), "x,y\n1,2\n3,4.5\n");
}

TEST(ResultTableTest, EmitToFileFailsOnBadPath) {
  ResultTable table({"x"});
  EXPECT_FALSE(table.EmitToFile(TableFormat::kCsv,
                                "/nonexistent/dir/table.csv"));
}

TEST(ResultTableTest, StreamToPrintsHeaderAndRowsImmediately) {
  const std::string path = ::testing::TempDir() + "/table_stream.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  ResultTable table({"name", "acc"});
  table.StreamTo(out);
  // Header lands before any row exists; each AddRow appends a line.
  EXPECT_EQ(ReadFile(path), "name       acc      \n");
  table.AddRow({"GCN", "86.1"});
  std::fclose(out);

  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row.find("86.1"), header.find("acc"));
}

}  // namespace
}  // namespace skipnode
