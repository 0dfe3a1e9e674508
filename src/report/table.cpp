#include "report/table.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace raidrel::report {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  RAIDREL_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  RAIDREL_REQUIRE(cells.size() == headers_.size(),
                  "row width must match the header");
  rows_.push_back(std::move(cells));
}

void Table::print_text(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << util::pad_right(row[c], widths[c]);
    }
    os << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    if (c) rule += "  ";
    rule += std::string(widths[c], '-');
  }
  os << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out += "\"";
    return out;
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << escape(row[c]);
    }
    os << '\n';
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
}

}  // namespace raidrel::report
