// expect_bit_identical: the index-identity assertion the data and serve
// suites share.  Every way to build a LogIndex (from a log, by extend,
// by adopting a snapshot, by re-mounting serve segments) must give the
// same columns and groups bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "data/log_index.h"

namespace tsufail::data {

// Asserts every record column, precomputed array and group layout of
// `merged` is bit-identical to `full` — the contract of every way to
// build an index (shared builder, canonical arena order) is identity,
// not approximate agreement.
inline void expect_bit_identical(const LogIndex& full, const LogIndex& merged) {
  ASSERT_EQ(full.size(), merged.size());
  const ColumnsView& x = full.columns();
  const ColumnsView& y = merged.columns();
  for (std::uint32_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full.hours()[i], merged.hours()[i]) << "hours[" << i << "]";
    EXPECT_EQ(full.ttr()[i], merged.ttr()[i]) << "ttr[" << i << "]";
    EXPECT_EQ(x.category_of(i), y.category_of(i)) << "category[" << i << "]";
    const auto a = x.gpu_slots_of(i);
    const auto b = y.gpu_slots_of(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "slots[" << i << "]";
    EXPECT_EQ(x.root_locus_of(i), y.root_locus_of(i)) << "locus[" << i << "]";
  }
  // An index keeps no times or nodes, however it was built.
  EXPECT_TRUE(x.times.empty() && x.nodes.empty());
  EXPECT_TRUE(y.times.empty() && y.nodes.empty());
  for (std::size_t c = 0; c <= static_cast<std::size_t>(Category::kUnknown); ++c) {
    const auto category = static_cast<Category>(c);
    const auto a = full.by_category(category);
    const auto b = merged.by_category(category);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "by_category " << to_string(category);
  }
  for (std::size_t c = 0; c <= static_cast<std::size_t>(FailureClass::kUnknown); ++c) {
    const auto cls = static_cast<FailureClass>(c);
    const auto a = full.by_class(cls);
    const auto b = merged.by_class(cls);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "by_class " << to_string(cls);
  }
  for (int month = 1; month <= 12; ++month) {
    const auto a = full.by_month(month);
    const auto b = merged.by_month(month);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "month " << month;
  }
  {
    const auto a = full.gpu_attributed();
    const auto b = merged.gpu_attributed();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "gpu_attributed";
  }
  {
    const auto a = full.multi_gpu();
    const auto b = merged.multi_gpu();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "multi_gpu";
  }
  const auto full_nodes = full.nodes();
  const auto merged_nodes = merged.nodes();
  ASSERT_EQ(full_nodes.size(), merged_nodes.size());
  for (std::size_t i = 0; i < full_nodes.size(); ++i) {
    EXPECT_EQ(full_nodes[i].node, merged_nodes[i].node) << "nodes[" << i << "]";
    const auto a = full.positions_of(full_nodes[i]);
    const auto b = merged.positions_of(merged_nodes[i]);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "positions of node " << full_nodes[i].node;
  }
}

}  // namespace tsufail::data
