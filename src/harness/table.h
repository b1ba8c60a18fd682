#ifndef GTPL_HARNESS_TABLE_H_
#define GTPL_HARNESS_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gtpl::harness {

/// Fixed-width console table with an optional CSV mirror, used by every
/// bench binary to print paper-style series.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Adds one row; cells must match the column count.
  void AddRow(std::vector<std::string> cells);

  /// Renders the aligned console form.
  std::string ToString() const;

  /// Renders CSV (header + rows). A cell holding a comma, double quote, CR
  /// or LF is quoted with its quotes doubled (RFC 4180); others stay bare.
  std::string ToCsv() const;

  /// Prints ToString() to stdout; also writes CSV to `csv_path` when
  /// non-empty. A CSV file that cannot be written prints one "cannot write
  /// CSV file <path>" line to stderr and exits with status 2.
  void Print(const std::string& csv_path = "") const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `digits` decimals ("12.34").
std::string Fmt(double value, int digits = 2);

/// Formats "mean +- half_width" for confidence-interval cells.
std::string FmtCi(double mean, double half_width, int digits = 1);

}  // namespace gtpl::harness

#endif  // GTPL_HARNESS_TABLE_H_
