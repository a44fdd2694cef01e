#include "geom/grid.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace liquid3d {

Grid::Grid(std::size_t rows, std::size_t cols, double width_m, double height_m)
    : rows_(rows), cols_(cols), width_(width_m), height_(height_m),
      cell_w_(width_m / static_cast<double>(cols)),
      cell_h_(height_m / static_cast<double>(rows)) {
  LIQUID3D_REQUIRE(rows > 0 && cols > 0, "grid must have positive dimensions");
  LIQUID3D_REQUIRE(width_m > 0.0 && height_m > 0.0, "grid extent must be positive");
}

Rect Grid::cell_rect(std::size_t cell) const {
  const std::size_t r = row_of(cell);
  const std::size_t c = col_of(cell);
  return Rect{static_cast<double>(c) * cell_w_, static_cast<double>(r) * cell_h_, cell_w_,
              cell_h_};
}

BlockCellMap::BlockCellMap(const Grid& grid, const Floorplan& fp)
    : cell_owner_(grid.cell_count(), npos), block_cells_(fp.block_count()) {
  std::vector<double> best_overlap(grid.cell_count(), 0.0);
  std::vector<double> block_covered(fp.block_count(), 0.0);

  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    const Rect& br = fp.block(b).rect;
    // Only visit the cell window the block can overlap.
    const auto col_lo = static_cast<std::size_t>(
        std::clamp(br.x / grid.cell_width(), 0.0, static_cast<double>(grid.cols() - 1)));
    const auto col_hi = static_cast<std::size_t>(std::clamp(
        br.right() / grid.cell_width(), 0.0, static_cast<double>(grid.cols() - 1)));
    const auto row_lo = static_cast<std::size_t>(
        std::clamp(br.y / grid.cell_height(), 0.0, static_cast<double>(grid.rows() - 1)));
    const auto row_hi = static_cast<std::size_t>(std::clamp(
        br.top() / grid.cell_height(), 0.0, static_cast<double>(grid.rows() - 1)));

    block_cells_[b].reserve((row_hi - row_lo + 1) * (col_hi - col_lo + 1));
    for (std::size_t r = row_lo; r <= row_hi; ++r) {
      for (std::size_t c = col_lo; c <= col_hi; ++c) {
        const std::size_t cell = grid.index(r, c);
        const double overlap = br.overlap_area(grid.cell_rect(cell));
        if (overlap <= 0.0) continue;
        block_cells_[b].push_back({cell, overlap});
        block_covered[b] += overlap;
        if (overlap > best_overlap[cell]) {
          best_overlap[cell] = overlap;
          cell_owner_[cell] = b;
        }
      }
    }
  }

  // Normalize cell shares to the block's covered area so power is conserved
  // even if a block edge falls slightly outside the grid due to rounding.
  for (std::size_t b = 0; b < block_cells_.size(); ++b) {
    LIQUID3D_REQUIRE(block_covered[b] > 0.0,
                     "block '" + fp.block(b).name + "' overlaps no grid cell");
    for (CellShare& share : block_cells_[b]) share.weight /= block_covered[b];
  }
}

void BlockCellMap::distribute_power(const std::vector<double>& block_power,
                                    std::vector<double>& cell_power) const {
  LIQUID3D_REQUIRE(block_power.size() == block_cells_.size(),
                   "block power arity mismatch");
  std::fill(cell_power.begin(), cell_power.end(), 0.0);
  for (std::size_t b = 0; b < block_cells_.size(); ++b) {
    const double p = block_power[b];
    if (p == 0.0) continue;
    for (const CellShare& share : block_cells_[b]) {
      cell_power[share.cell] += p * share.weight;
    }
  }
}

double BlockCellMap::block_max(const double* values, std::size_t stride,
                               std::size_t block) const {
  const auto& cells = block_cells_.at(block);
  LIQUID3D_ASSERT(!cells.empty(), "block has no cells");
  double best = values[cells.front().cell * stride];
  for (const CellShare& share : cells) best = std::max(best, values[share.cell * stride]);
  return best;
}

double BlockCellMap::block_mean(const double* values, std::size_t stride,
                                std::size_t block) const {
  const auto& cells = block_cells_.at(block);
  LIQUID3D_ASSERT(!cells.empty(), "block has no cells");
  double acc = 0.0;
  for (const CellShare& share : cells) acc += values[share.cell * stride] * share.weight;
  return acc;
}

}  // namespace liquid3d
