// Grid rasterization (geom/grid.hpp): power conservation and readback.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "geom/grid.hpp"
#include "geom/niagara.hpp"

namespace liquid3d {
namespace {

TEST(Grid, CellGeometry) {
  const Grid g(10, 23, 11.5e-3, 10e-3);
  EXPECT_EQ(g.cell_count(), 230u);
  EXPECT_DOUBLE_EQ(g.cell_width(), 0.5e-3);
  EXPECT_DOUBLE_EQ(g.cell_height(), 1e-3);
  EXPECT_DOUBLE_EQ(g.cell_area(), 0.5e-6);
  const std::size_t cell = g.index(3, 7);
  EXPECT_EQ(g.row_of(cell), 3u);
  EXPECT_EQ(g.col_of(cell), 7u);
  const Rect r = g.cell_rect(cell);
  EXPECT_DOUBLE_EQ(r.x, 3.5e-3);
  EXPECT_DOUBLE_EQ(r.y, 3e-3);
}

class RasterSweep : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(RasterSweep, PowerIsConservedAtAnyResolution) {
  // Property: distributing block power onto cells conserves total power for
  // any grid resolution, including ones that do not align with block edges.
  const auto [rows, cols] = GetParam();
  const Floorplan fp = make_niagara_core_die();
  const Grid g(rows, cols, fp.width(), fp.height());
  const BlockCellMap map(g, fp);

  std::vector<double> block_power(fp.block_count());
  for (std::size_t b = 0; b < block_power.size(); ++b) {
    block_power[b] = 0.5 + static_cast<double>(b);
  }
  std::vector<double> cell_power(g.cell_count());
  map.distribute_power(block_power, cell_power);

  const double total_blocks =
      std::accumulate(block_power.begin(), block_power.end(), 0.0);
  const double total_cells = std::accumulate(cell_power.begin(), cell_power.end(), 0.0);
  EXPECT_NEAR(total_cells, total_blocks, 1e-9 * total_blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, RasterSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{5, 6},
                      std::pair<std::size_t, std::size_t>{10, 10},
                      std::pair<std::size_t, std::size_t>{23, 26},
                      std::pair<std::size_t, std::size_t>{46, 52},
                      std::pair<std::size_t, std::size_t>{7, 13},
                      std::pair<std::size_t, std::size_t>{100, 115}));

TEST(BlockCellMap, EveryCellHasAnOwnerOnTilingFloorplan) {
  const Floorplan fp = make_niagara_cache_die();
  const Grid g(23, 26, fp.width(), fp.height());
  const BlockCellMap map(g, fp);
  for (std::size_t cell = 0; cell < g.cell_count(); ++cell) {
    EXPECT_NE(map.owner(cell), BlockCellMap::npos) << "cell " << cell;
  }
}

TEST(BlockCellMap, CellSharesSumToOnePerBlock) {
  const Floorplan fp = make_niagara_core_die();
  const Grid g(23, 26, fp.width(), fp.height());
  const BlockCellMap map(g, fp);
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    double sum = 0.0;
    for (const BlockCellMap::CellShare& s : map.cells_of(b)) sum += s.weight;
    EXPECT_NEAR(sum, 1.0, 1e-9) << fp.block(b).name;
  }
}

TEST(BlockCellMap, BlockMaxAndMeanReadback) {
  Floorplan fp("t", 4e-3, 2e-3);
  fp.add_block({"left", BlockType::kCore, Rect{0, 0, 2e-3, 2e-3}, 0});
  fp.add_block({"right", BlockType::kCore, Rect{2e-3, 0, 2e-3, 2e-3}, 1});
  const Grid g(2, 4, fp.width(), fp.height());
  const BlockCellMap map(g, fp);
  // Values: columns 0..3, rows 0..1 -> value = col + 10*row.
  std::vector<double> values(g.cell_count());
  for (std::size_t c = 0; c < g.cell_count(); ++c) {
    values[c] = static_cast<double>(g.col_of(c)) + 10.0 * static_cast<double>(g.row_of(c));
  }
  // Left block covers cols 0-1; right covers cols 2-3.
  EXPECT_DOUBLE_EQ(map.block_max(values, 0), 11.0);
  EXPECT_DOUBLE_EQ(map.block_max(values, 1), 13.0);
  EXPECT_DOUBLE_EQ(map.block_mean(values, 0), (0 + 1 + 10 + 11) / 4.0);
  EXPECT_DOUBLE_EQ(map.block_mean(values, 1), (2 + 3 + 12 + 13) / 4.0);
}

TEST(BlockCellMap, StridedReductionsMatchContiguous) {
  // Layer `offset` of a field interleaving `stride` layers, read in place,
  // must give the bits of the same reductions over a contiguous copy.
  const Floorplan fp = make_niagara_core_die();
  const Grid g(11, 13, fp.width(), fp.height());
  const BlockCellMap map(g, fp);
  for (const std::size_t stride : {1u, 2u, 4u}) {
    std::vector<double> field(g.cell_count() * stride);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = 50.0 + 10.0 * std::sin(0.37 * static_cast<double>(i));
    }
    for (std::size_t offset = 0; offset < stride; ++offset) {
      std::vector<double> layer(g.cell_count());
      for (std::size_t c = 0; c < layer.size(); ++c) layer[c] = field[c * stride + offset];
      for (std::size_t b = 0; b < map.block_count(); ++b) {
        EXPECT_EQ(map.block_max(field.data() + offset, stride, b), map.block_max(layer, b));
        EXPECT_EQ(map.block_mean(field.data() + offset, stride, b),
                  map.block_mean(layer, b));
      }
    }
  }
}

TEST(BlockCellMap, MajorityOwnerOnMisalignedGrid) {
  Floorplan fp("t", 3e-3, 1e-3);
  fp.add_block({"a", BlockType::kCore, Rect{0, 0, 1.8e-3, 1e-3}, 0});
  fp.add_block({"b", BlockType::kCore, Rect{1.8e-3, 0, 1.2e-3, 1e-3}, 1});
  const Grid g(1, 2, fp.width(), fp.height());  // cells split at 1.5 mm
  const BlockCellMap map(g, fp);
  EXPECT_EQ(map.owner(0), 0u);  // cell [0,1.5): all block a
  EXPECT_EQ(map.owner(1), 1u);  // cell [1.5,3): 0.3 of a, 1.2 of b -> b
}

}  // namespace
}  // namespace liquid3d
