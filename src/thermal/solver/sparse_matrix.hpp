// sparse_matrix.hpp — compressed-sparse-row matrix for the iterative
// thermal backend.
//
// The 7-point conduction stencil has ~4 neighbours per node regardless of
// grid size, so on fine grids — where the banded solvers' half-bandwidth
// b = cols x layers grows (230 on the paper's 100 µm grid with 2 layers,
// 1000 on the 200 x 500 demonstration grid) and their O(n b^2)
// factorization cost with it — the system is overwhelmingly sparse:
// nnz ≈ 7n versus the band's n(2b+1) stored entries.
// CSR keeps exactly the nonzeros, makes the matrix-vector product O(nnz),
// and gives the IC(0) preconditioner (solver/pcg.hpp) ordered row access
// to the lower triangle.
//
// Assembly mirrors BandedLuMatrix: the same add_diagonal/add_coupling
// calls, fed by the same ThermalModel3D::stamp_system walk, so the two
// backends assemble the identical air operator.  Entries accumulate into a
// coordinate buffer; finalize() compresses to CSR (rows contiguous, columns
// sorted ascending, duplicates merged) after which the structure is
// immutable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace liquid3d {

class SparseMatrix {
 public:
  explicit SparseMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Stored nonzeros (valid after finalize()).
  [[nodiscard]] std::size_t nnz() const { return val_.size(); }
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Adds g to A(i,i).
  void add_diagonal(std::size_t i, double g);
  /// Symmetric accumulate: adds g to A(i,i) and A(j,j), -g to A(i,j) and
  /// A(j,i) — the same conductance stamp BandedLuMatrix::add_coupling makes.
  void add_coupling(std::size_t i, std::size_t j, double g);

  /// Compress the accumulated entries to CSR.  Every diagonal must have
  /// been touched (thermal systems always stamp the full diagonal).
  void finalize();

  /// y = A x (finalized matrices only).
  void multiply(const double* x, double* y) const;

  // -- CSR access (the IC(0) build) -------------------------------------------
  /// Row i occupies [row_ptr()[i], row_ptr()[i+1]) in col()/val(), columns
  /// sorted ascending.
  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<std::uint32_t>& col() const { return col_; }
  [[nodiscard]] const std::vector<double>& val() const { return val_; }
  /// Index of A(i,i) within col()/val().
  [[nodiscard]] std::size_t diag_index(std::size_t i) const { return diag_pos_[i]; }
  [[nodiscard]] double diagonal(std::size_t i) const { return val_[diag_pos_[i]]; }

 private:
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
    double v;
  };

  std::size_t n_;
  bool finalized_ = false;
  std::vector<double> diag_;       ///< diagonal accumulator (pre-finalize)
  std::vector<Entry> coords_;      ///< off-diagonal accumulator (pre-finalize)
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  std::vector<std::size_t> diag_pos_;
};

}  // namespace liquid3d
