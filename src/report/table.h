// Aligned text / CSV tables for the experiment harnesses: every
// bench binary prints the paper's tables through this writer so output is
// uniform and machine-diffable.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace raidrel::report {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept {
    return headers_.size();
  }

  /// Space-aligned monospace rendering.
  void print_text(std::ostream& os) const;

  /// RFC-4180-ish CSV rendering (quotes cells containing separators).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace raidrel::report
