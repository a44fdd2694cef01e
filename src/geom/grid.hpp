// grid.hpp — rasterization of block floorplans onto a regular thermal grid.
//
// The thermal solver works on a uniform rows x cols grid per layer (HotSpot's
// "grid mode").  This class maps between blocks and cells:
//   * block -> cells: distributes a block's power over the cells it overlaps,
//     proportional to overlap area;
//   * cell -> block: majority owner, used to read block temperatures back
//     (a block's temperature is the maximum over its cells, matching how a
//     worst-case thermal sensor per unit would behave).
#pragma once

#include <cstddef>
#include <vector>

#include "geom/floorplan.hpp"

namespace liquid3d {

class Grid {
 public:
  /// rows cells along die height (y), cols along die width (x).
  Grid(std::size_t rows, std::size_t cols, double width_m, double height_m);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t cell_count() const { return rows_ * cols_; }
  [[nodiscard]] double cell_width() const { return cell_w_; }
  [[nodiscard]] double cell_height() const { return cell_h_; }
  [[nodiscard]] double cell_area() const { return cell_w_ * cell_h_; }
  [[nodiscard]] double width() const { return width_; }
  [[nodiscard]] double height() const { return height_; }

  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const {
    return row * cols_ + col;
  }
  [[nodiscard]] std::size_t row_of(std::size_t cell) const { return cell / cols_; }
  [[nodiscard]] std::size_t col_of(std::size_t cell) const { return cell % cols_; }

  /// Geometric extent of a cell.
  [[nodiscard]] Rect cell_rect(std::size_t cell) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  double width_;
  double height_;
  double cell_w_;
  double cell_h_;
};

/// Result of rasterizing one floorplan onto a grid.
class BlockCellMap {
 public:
  BlockCellMap(const Grid& grid, const Floorplan& fp);

  /// Majority owner block of a cell, or npos if the floorplan leaves it
  /// uncovered (shouldn't happen for tiling floorplans).
  [[nodiscard]] std::size_t owner(std::size_t cell) const { return cell_owner_[cell]; }
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// (cell, weight) pairs for a block; weights sum to 1 and give the share of
  /// the block's power assigned to each cell.
  struct CellShare {
    std::size_t cell;
    double weight;
  };
  [[nodiscard]] const std::vector<CellShare>& cells_of(std::size_t block) const {
    return block_cells_[block];
  }

  [[nodiscard]] std::size_t block_count() const { return block_cells_.size(); }

  /// Spread per-block power [W] into per-cell power [W].
  void distribute_power(const std::vector<double>& block_power,
                        std::vector<double>& cell_power) const;

  /// Maximum cell temperature over a block's footprint; cell c's value is
  /// values[c * stride], so a layer of an interleaved field is read in place.
  [[nodiscard]] double block_max(const double* values, std::size_t stride,
                                 std::size_t block) const;
  [[nodiscard]] double block_max(const std::vector<double>& cell_values,
                                 std::size_t block) const {
    return block_max(cell_values.data(), 1, block);
  }

  /// Area-weighted mean cell temperature over a block's footprint (strided
  /// like block_max).
  [[nodiscard]] double block_mean(const double* values, std::size_t stride,
                                  std::size_t block) const;
  [[nodiscard]] double block_mean(const std::vector<double>& cell_values,
                                  std::size_t block) const {
    return block_mean(cell_values.data(), 1, block);
  }

 private:
  std::vector<std::size_t> cell_owner_;
  std::vector<std::vector<CellShare>> block_cells_;
};

}  // namespace liquid3d
